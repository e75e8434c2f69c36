package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"aurora/internal/core"
	"aurora/internal/harness"
	"aurora/internal/resultstore"
	"aurora/internal/sample"
)

// bench is one run's state: the workload being measured, its seeded input
// order, the pinned references and, for store-warm, the filled store.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	rng      *rand.Rand
	refs     *refs
	cells    []cell
	work     string // scratch directory for stores, inside the checkout

	warm *resultstore.Store      // store-warm: the filled store
	fill map[string]*core.Report // store-warm: the reports it was filled with

	setupAttempted, setupFailed int
	passes                      int
	fills                       int // store-warm: stores filled so far
}

// pass is the outcome of one timed pass of a workload.
type pass struct {
	wall, cpu time.Duration
	cal       time.Duration // the mean of the host calibrations around the pass
	peakMB    float64       // the process's peak resident set during the pass, MiB
	lat       []float64     // one Runner call's latency per cell, ms
	answers   []string      // one line per answered cell, for the digest
	ok        []bool
	instr     uint64 // instructions simulated, or stood for by estimates

	memo     harness.RunnerStats
	store    resultstore.Stats // store counters moved by this pass
	evals    int               // explore-cold: Explorer evaluations
	exInstr  uint64            // explore-cold: instructions over all rungs
	gets     []float64         // timed Store.Get calls, µs (traced passes)
	puts     []float64         // timed Store.Put calls, µs (traced passes)
	mismatch int               // failures not tied to one answered cell

	// Set by settle.
	cells, nAttempted, nFailed int
	digest                     string
	tailPct, p50MS, tailMS     float64
}

func newPass(n int) *pass {
	return &pass{lat: make([]float64, n), answers: make([]string, n), ok: make([]bool, n)}
}

// settle reduces a finished pass to what the run reports: its attempted and
// failed cells, its answers digest and its latency percentiles. It drops the
// per-cell slices, so that the passes a run keeps do not grow the heap on
// which later passes' peak resident sets are measured.
func (p *pass) settle() {
	p.cells = len(p.lat)
	p.nAttempted, p.nFailed = len(p.ok), p.mismatch
	if p.evals > 0 {
		p.nAttempted = p.evals
	}
	for _, ok := range p.ok {
		if !ok {
			p.nFailed++
		}
	}
	p.digest = digest(p.answers)
	p.tailPct = tailPercentile(p.cells, []float64{80, 90, 95, 99}, 10)
	p.p50MS, p.tailMS = percentile(p.lat, 50), percentile(p.lat, p.tailPct)
	p.lat, p.answers, p.ok = nil, nil, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// drive runs jobs 0..n-1 as a closed loop of `callers` clients: each client
// takes the next job only after its previous one has returned.
func drive(n int, job func(caller, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				job(c, i)
			}
		}(c)
	}
	wg.Wait()
}

// timer measures a pass's wall and process CPU time.
type timer struct {
	t0  time.Time
	cpu time.Duration
}

func startTimer() timer { return timer{time.Now(), processCPU()} }

func (t timer) stop(p *pass) {
	p.wall = time.Since(t.t0)
	p.cpu = processCPU() - t.cpu
}

// runPass runs one pass of the workload; tr is nil for an untraced pass.
func (b *bench) runPass(tr *tracer) (*pass, error) {
	b.passes++
	root := tr.begin("pass "+b.workload, "bench", 0, -1)
	defer tr.end(root)
	switch b.workload {
	case "exact-sweep":
		return b.sweepPass(tr, root, false), nil
	case "sampled-sweep":
		return b.sweepPass(tr, root, true), nil
	case "explore-cold":
		return b.explorePass(tr, root)
	case "store-warm":
		return b.warmPass(tr, root), nil
	}
	return nil, fmt.Errorf("unknown workload %q", b.workload)
}

// sweepPass answers the 60-cell grid once through a fresh Runner, in a
// seed-permuted order, exact or sampled.
func (b *bench) sweepPass(tr *tracer, root int, sampled bool) *pass {
	r := harness.NewRunner(callers)
	var h *hooks
	if tr != nil {
		h = newHooks(tr, nil, root)
		h.attach(r)
		if sampled {
			r.Store = sampledSeam{h}
		}
	}
	order := b.rng.Perm(len(b.cells))
	p := newPass(len(order))
	instr := make([]uint64, len(order))
	t := startTimer()
	drive(len(order), func(caller, i int) {
		c := b.cells[order[i]]
		track := 1 + caller
		t0 := time.Now()
		if sampled {
			id := tr.begin("harness.Runner.RunSampled "+c.key, "harness", track, root)
			key := jobKey(c.cfg.Fingerprint(), c.w.Name, sampledBudget)
			if h != nil {
				h.enter(key, id, track)
			}
			rep, err := r.RunSampled(b.ctx, c.cfg, c.w, harness.Options{Budget: sampledBudget}, sample.Params{})
			if h != nil {
				h.leave(key)
			}
			tr.end(id)
			p.lat[i] = ms(time.Since(t0))
			if err != nil {
				p.answers[i] = c.key + " " + err.Error()
				return
			}
			got := sampledRef{CPI: rep.CPI, CPIError: rep.CPIError, Windows: rep.Windows}
			p.answers[i], p.ok[i], instr[i] = got.line(c.key), got == b.refs.Sampled[c.key], rep.Instructions
			return
		}
		id := tr.begin("harness.Runner.Run "+c.key, "harness", track, root)
		key := jobKey(c.cfg.Fingerprint(), c.w.Name, exactBudget)
		if h != nil {
			h.enter(key, id, track)
		}
		rep, err := r.Run(b.ctx, c.cfg, c.w, harness.Options{Budget: exactBudget})
		if h != nil {
			h.leave(key)
		}
		tr.end(id)
		p.lat[i] = ms(time.Since(t0))
		if err != nil {
			p.answers[i] = c.key + " " + err.Error()
			return
		}
		got := exactRef{Instructions: rep.Instructions, Cycles: rep.Cycles}
		p.answers[i], p.ok[i], instr[i] = got.line(c.key), got == b.refs.Exact[c.key], rep.Instructions
	})
	t.stop(p)
	for _, n := range instr {
		p.instr += n
	}
	p.memo = r.Stats()
	return p
}

// explorePass runs the default Explorer grid once against a fresh, empty
// store. The Explorer makes its own Runner calls, all at once; a cell's
// latency here is its service time, from worker-pool admission to the
// persisted answer, taken at the Runner's Observe and Store seams.
func (b *bench) explorePass(tr *tracer, root int) (*pass, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("explore-%d", b.passes))
	st, err := resultstore.Open(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := harness.NewRunner(callers)
	e := &harness.Explorer{Runner: r, Spec: exploreSpec(b.rng)}
	t := startTimer()
	id := tr.begin("harness.Explorer.Run", "harness", 1, root)
	h := newHooks(tr, st, id)
	h.attach(r)
	res, err := e.Run(b.ctx)
	tr.end(id)
	p := &pass{}
	t.stop(p)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	p.lat, p.gets, p.puts = h.lat, h.gets, h.puts
	p.evals = res.Evaluations()
	for _, rung := range res.Rungs {
		p.exInstr += uint64(rung.Entered) * rung.Budget
	}
	p.instr = p.exInstr
	got := frontierOf(res)
	for _, f := range got {
		p.answers = append(p.answers, f.line())
	}
	p.mismatch = frontierMismatches(got, b.refs.Frontier) + len(res.Faults)
	p.memo, p.store = r.Stats(), st.Stats()
	return p, nil
}

// warmPass re-answers the 60-cell grid from the filled store through
// warmRunners fresh Runners, each asking for the cells in its own
// seed-permuted order. Nothing is simulated: every call is a memo miss
// answered by a store read.
func (b *bench) warmPass(tr *tracer, root int) *pass {
	type job struct{ runner, cell int }
	runners := make([]*harness.Runner, warmRunners)
	hs := make([]*hooks, warmRunners)
	// left counts each Runner's unanswered cells. A Runner is dropped once
	// its last cell is answered, so its memo table can be collected, as a
	// short-lived Runner's would be.
	left := make([]atomic.Int32, warmRunners)
	stats := make([]harness.RunnerStats, warmRunners)
	var jobs []job
	for i := range runners {
		left[i].Store(int32(len(b.cells)))
		r := harness.NewRunner(callers)
		r.Store, r.StoreReadOnly = b.warm, true
		if tr != nil {
			hs[i] = newHooks(tr, b.warm, root)
			hs[i].attach(r)
		}
		runners[i] = r
		for _, c := range b.rng.Perm(len(b.cells)) {
			jobs = append(jobs, job{i, c})
		}
	}
	p := newPass(len(jobs))
	before := b.warm.Stats()
	t := startTimer()
	drive(len(jobs), func(caller, i int) {
		j := jobs[i]
		c := b.cells[j.cell]
		track := 1 + caller
		t0 := time.Now()
		id := tr.begin("harness.Runner.Run "+c.key, "harness", track, root)
		h := hs[j.runner]
		key := ""
		if h != nil {
			key = jobKey(c.cfg.Fingerprint(), c.w.Name, fillBudget)
			h.enter(key, id, track)
		}
		r := runners[j.runner]
		rep, err := r.Run(b.ctx, c.cfg, c.w, harness.Options{Budget: fillBudget})
		if h != nil {
			h.leave(key)
		}
		tr.end(id)
		p.lat[i] = ms(time.Since(t0))
		if left[j.runner].Add(-1) == 0 {
			stats[j.runner] = r.Stats()
			runners[j.runner] = nil
		}
		if err != nil {
			p.answers[i] = c.key + " " + err.Error()
			return
		}
		p.answers[i] = exactRef{Instructions: rep.Instructions, Cycles: rep.Cycles}.line(c.key)
		p.ok[i] = reflect.DeepEqual(rep, b.fill[c.key])
	})
	t.stop(p)
	after := b.warm.Stats()
	p.store = resultstore.Stats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Puts: after.Puts - before.Puts, Corrupt: after.Corrupt - before.Corrupt,
	}
	for i, s := range stats {
		p.memo.Hits += s.Hits
		p.memo.Misses += s.Misses
		p.memo.Simulated += s.Simulated
		if hs[i] != nil {
			p.gets = append(p.gets, hs[i].gets...)
		}
	}
	// A lookup that missed was simulated instead: the answer may still be
	// right, but the pass no longer measures the read path it is for.
	p.mismatch = int(p.memo.Simulated)
	return p
}

// setup prepares a run: it assembles every kernel and, for store-warm,
// fills a fresh store with the 60-cell grid at fillBudget. The run's first
// set-up also warms the kernels' program cache that the passes use.
func (b *bench) setup(first bool) error {
	if err := assembleAll(first); err != nil {
		return err
	}
	cells, err := grid()
	if err != nil {
		return err
	}
	b.cells = cells
	if b.workload != "store-warm" {
		return nil
	}
	if b.warm != nil {
		os.RemoveAll(b.warm.Dir())
	}
	b.fills++
	st, err := resultstore.Open(filepath.Join(b.work, fmt.Sprintf("fill-%d", b.fills)))
	if err != nil {
		return err
	}
	r := harness.NewRunner(callers)
	r.Store = st
	reps := make([]*core.Report, len(cells))
	drive(len(cells), func(_, i int) {
		c := cells[i]
		rep, err := r.Run(b.ctx, c.cfg, c.w, harness.Options{Budget: fillBudget})
		if err == nil && (exactRef{Instructions: rep.Instructions, Cycles: rep.Cycles}) == b.refs.Fill[c.key] {
			reps[i] = rep
		}
	})
	b.warm, b.fill = st, map[string]*core.Report{}
	for i, c := range cells {
		b.setupAttempted++
		if reps[i] == nil {
			b.setupFailed++
			continue
		}
		b.fill[c.key] = reps[i]
	}
	return nil
}
