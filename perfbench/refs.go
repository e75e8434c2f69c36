package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"aurora"
	"aurora/internal/harness"
	"aurora/internal/sample"
)

// The pinned references every answered cell is checked against. They are
// simulated results, so they are exact: any change to them is a change in
// what the simulator computes, and a run that disagrees counts the cell as
// failed. Regenerate with
//
//	bash perfbench/run.sh --write-refs perfbench/testdata/refs.json
//
// only when a change is meant to alter simulated results.

//go:embed testdata/refs.json
var refsJSON []byte

type exactRef struct {
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
}

type sampledRef struct {
	CPI      float64 `json:"cpi"`
	CPIError float64 `json:"cpi_error"`
	Windows  int     `json:"windows"`
}

type frontierRef struct {
	Label string  `json:"label"`
	CPI   float64 `json:"cpi"`
}

type refs struct {
	ExactBudget       uint64 `json:"exact_budget"`
	SampledBudget     uint64 `json:"sampled_budget"`
	FillBudget        uint64 `json:"fill_budget"`
	ExploreFullBudget uint64 `json:"explore_full_budget"`

	// Exact holds each cell's exact run at ExactBudget.
	Exact map[string]exactRef `json:"exact"`
	// ExactAtSampled holds each cell's exact run at SampledBudget, the
	// truth the sampled estimates' error and bound coverage are taken
	// against.
	ExactAtSampled map[string]exactRef `json:"exact_at_sampled_budget"`
	// Sampled holds each cell's estimate at SampledBudget (default Params).
	Sampled map[string]sampledRef `json:"sampled"`
	// Fill holds each cell's exact run at FillBudget: what store-warm fills
	// its store with.
	Fill map[string]exactRef `json:"fill"`
	// Frontier is the Explorer's frontier on the default grid at
	// ExploreFullBudget, cost-ascending.
	Frontier []frontierRef `json:"frontier"`
}

func loadRefs() (*refs, error) {
	var r refs
	if err := json.Unmarshal(refsJSON, &r); err != nil {
		return nil, fmt.Errorf("pinned references: %w", err)
	}
	if r.ExactBudget != exactBudget || r.SampledBudget != sampledBudget ||
		r.FillBudget != fillBudget || r.ExploreFullBudget != exploreFullBudget {
		return nil, fmt.Errorf("pinned references were made at other budgets; regenerate them with --write-refs")
	}
	return &r, nil
}

func (r exactRef) line(key string) string {
	return key + " " + strconv.FormatUint(r.Instructions, 10) + " " + strconv.FormatUint(r.Cycles, 10)
}

func (r sampledRef) line(key string) string {
	return key + " " + strconv.FormatFloat(r.CPI, 'g', -1, 64) + " " +
		strconv.FormatFloat(r.CPIError, 'g', -1, 64) + " " + strconv.Itoa(r.Windows)
}

func (r frontierRef) line() string {
	return r.Label + " " + strconv.FormatFloat(r.CPI, 'g', -1, 64)
}

// digest is an order-independent fingerprint of a set of answer lines: the
// SHA-256 of the sorted lines. A pass's answers arrive in completion order,
// which depends on the seed and on scheduling; the digest does not.
func digest(lines []string) string {
	s := append([]string(nil), lines...)
	sort.Strings(s)
	h := sha256.Sum256([]byte(strings.Join(s, "\n")))
	return hex.EncodeToString(h[:8])
}

// refDigest returns the digest the answers of a fully correct pass have.
func refDigest[T interface{ line(string) string }](m map[string]T) string {
	lines := make([]string, 0, len(m))
	for k, v := range m {
		lines = append(lines, v.line(k))
	}
	return digest(lines)
}

func frontierDigest(f []frontierRef) string {
	lines := make([]string, len(f))
	for i, p := range f {
		lines[i] = p.line()
	}
	return digest(lines)
}

// frontierMismatches counts the points that differ between a frontier and
// its reference, in either direction.
func frontierMismatches(got, want []frontierRef) int {
	count := map[frontierRef]int{}
	for _, p := range want {
		count[p]++
	}
	miss := 0
	for _, p := range got {
		if count[p] > 0 {
			count[p]--
		} else {
			miss++
		}
	}
	for _, n := range count {
		miss += n
	}
	return miss
}

func frontierOf(res *harness.ExploreResult) []frontierRef {
	out := make([]frontierRef, len(res.Frontier))
	for i, p := range res.Frontier {
		out[i] = frontierRef{Label: p.Label, CPI: p.CPI}
	}
	return out
}

// writeRefs simulates every reference serially through the root API and
// writes them to path.
func writeRefs(ctx context.Context, path string) error {
	cells, err := grid()
	if err != nil {
		return err
	}
	r := refs{
		ExactBudget: exactBudget, SampledBudget: sampledBudget,
		FillBudget: fillBudget, ExploreFullBudget: exploreFullBudget,
		Exact: map[string]exactRef{}, ExactAtSampled: map[string]exactRef{},
		Sampled: map[string]sampledRef{}, Fill: map[string]exactRef{},
	}
	exact := func(c cell, budget uint64) (exactRef, error) {
		rep, err := aurora.RunContext(ctx, c.cfg, c.w, budget)
		if err != nil {
			return exactRef{}, err
		}
		return exactRef{Instructions: rep.Instructions, Cycles: rep.Cycles}, nil
	}
	for _, c := range cells {
		if r.Exact[c.key], err = exact(c, exactBudget); err != nil {
			return err
		}
		if r.ExactAtSampled[c.key], err = exact(c, sampledBudget); err != nil {
			return err
		}
		if r.Fill[c.key], err = exact(c, fillBudget); err != nil {
			return err
		}
		s, err := aurora.RunSampledContext(ctx, c.cfg, c.w, sampledBudget, sample.Params{})
		if err != nil {
			return err
		}
		r.Sampled[c.key] = sampledRef{CPI: s.CPI, CPIError: s.CPIError, Windows: s.Windows}
	}
	e := harness.Explorer{Runner: harness.NewRunner(callers), Spec: exploreSpec(nil)}
	res, err := e.Run(ctx)
	if err != nil {
		return err
	}
	r.Frontier = frontierOf(res)
	data, err := json.MarshalIndent(&r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
