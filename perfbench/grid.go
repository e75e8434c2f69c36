package main

import (
	"fmt"
	"math/rand"

	"aurora"
	"aurora/internal/harness"
)

// Budgets and sizes. Each is chosen so that one pass of its workload does
// about a second of work on a 2-core host: long enough that no end-to-end
// figure is a pass of tens of milliseconds, short enough for several passes
// in one run. The pinned references are computed at exactly these budgets.
const (
	// exactBudget is the instruction budget of every exact-sweep cell.
	exactBudget = 200_000
	// sampledBudget is the instruction budget each sampled-sweep estimate
	// stands for (about 30 windows per cell at the default Params).
	sampledBudget = 1_000_000
	// fillBudget is the budget store-warm fills its store at. A lookup's
	// cost does not depend on the budget the entry was simulated at, so the
	// fill is kept small to keep set-up short.
	fillBudget = 20_000
	// exploreFullBudget is the Explorer's final rung; with the default
	// 3-rung, halve-by-4 ladder the screens run at 1k and 4k instructions.
	exploreFullBudget = 16_000
	// warmRunners is how many fresh Runners re-answer the 60-cell grid in
	// one store-warm pass (18,000 lookups).
	warmRunners = 300
	// callers is the closed loop's client count and the Runner's worker
	// count: one per core of the 2-core reference host.
	callers = 2
	// setupUnits is how many timed set-up units a run makes; setup_s is
	// the median unit's time per set-up.
	setupUnits = 5
)

// setupRounds is how many set-ups one timed unit repeats: enough for a unit
// of about half a second on the reference host, where assembling the 15
// kernels takes 14-20 ms and filling store-warm's store 150-300 ms.
func setupRounds(workload string) int {
	if workload == "store-warm" {
		return 4
	}
	return 36
}

// models is the Table 1 model set plus the paper's recommended point E.
var models = []string{"small", "baseline", "large", "pointE"}

// cell is one (kernel, model) point of the 60-cell grid.
type cell struct {
	w     *aurora.Workload
	model string
	cfg   aurora.Config
	key   string // "<kernel>/<model>"
}

// grid returns the 15 kernels × 4 models in fixed kernel-major order.
func grid() ([]cell, error) {
	var cells []cell
	for _, name := range aurora.WorkloadNames() {
		w, err := aurora.GetWorkload(name)
		if err != nil {
			return nil, err
		}
		for _, m := range models {
			cfg, err := aurora.ModelByName(m)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{w: w, model: m, cfg: cfg, key: name + "/" + m})
		}
	}
	return cells, nil
}

// assembleAll assembles every kernel through Workload.Program. The first
// call fills the registered workloads' own program cache, which the timed
// passes then use; later calls assemble fresh copies of the workloads, so
// that every set-up pays the same assembly work.
func assembleAll(first bool) error {
	for _, name := range aurora.WorkloadNames() {
		w, err := aurora.GetWorkload(name)
		if err != nil {
			return err
		}
		if !first {
			w = &aurora.Workload{Name: w.Name, Suite: w.Suite, Description: w.Description, Source: w.Source, DefaultBudget: w.DefaultBudget}
		}
		if _, err := w.Program(); err != nil {
			return fmt.Errorf("assemble %s: %w", name, err)
		}
	}
	return nil
}

// exploreSpec is the default Explorer grid at exploreFullBudget, each axis
// permuted by rng. Permuting the axes reorders the candidates, and with
// them the order the Explorer submits jobs, but not the frontier: survival
// and dominance are order-independent.
func exploreSpec(rng *rand.Rand) harness.ExploreSpec {
	s := harness.ExploreSpec{FullBudget: exploreFullBudget}.Normalize()
	if rng != nil {
		for _, axis := range [][]int{s.IssueWidths, s.ICacheKB, s.WCLines, s.ROBs, s.MSHRs, s.PFBufs} {
			rng.Shuffle(len(axis), func(i, j int) { axis[i], axis[j] = axis[j], axis[i] })
		}
	}
	return s
}
