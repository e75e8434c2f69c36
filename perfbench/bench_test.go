package main

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"aurora"
	"aurora/internal/harness"
	"aurora/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {80, 8}, {90, 9}, {99, 10}, {100, 10}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestTailLeavesTenBeyond(t *testing.T) {
	cands := []float64{80, 90, 95, 99}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{60, 80},    // the 60-cell sweeps: 12 cells beyond p80, 6 beyond p90
		{1128, 99},  // explore-cold: 11 evaluations beyond p99
		{18000, 99}, // store-warm
		{100, 90},   // 10 beyond p90, 5 beyond p95
		{9, 0},      // too few cells for any tail
	} {
		p := tailPercentile(c.n, cands, 10)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, p, c.want)
		}
		if p > 0 && beyond(c.n, p) < 10 {
			t.Errorf("n=%d p%v leaves %d beyond", c.n, p, beyond(c.n, p))
		}
	}
	// The count beyond is what the percentile really leaves on distinct data.
	xs := make([]float64, 60)
	for i := range xs {
		xs[i] = float64(i)
	}
	cut := percentile(xs, 80)
	n := 0
	for _, x := range xs {
		if x > cut {
			n++
		}
	}
	if n != beyond(60, 80) {
		t.Errorf("%d values beyond p80, beyond() says %d", n, beyond(60, 80))
	}
}

func ms2d(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

func TestSelfTimeNestedChildren(t *testing.T) {
	spans := []span{
		{Name: "root", Layer: "bench", Start: ms2d(0), End: ms2d(100), Parent: -1},
		{Name: "a", Layer: "harness", Start: ms2d(10), End: ms2d(40), Parent: 0},
		{Name: "b", Layer: "harness", Start: ms2d(30), End: ms2d(60), Parent: 0}, // overlaps a
		{Name: "a1", Layer: "sim", Start: ms2d(15), End: ms2d(20), Parent: 1},
		{Name: "a2", Layer: "sim", Start: ms2d(18), End: ms2d(45), Parent: 1}, // overlaps a1, outlives a
		{Name: "r2", Layer: "bench", Start: ms2d(200), End: ms2d(300), Parent: -1},
		{Name: "c", Layer: "resultstore", Start: ms2d(200), End: ms2d(300), Parent: 5},
	}
	want := []time.Duration{
		ms2d(50), // root: a ∪ b covers 10..60
		ms2d(5),  // a: a1 ∪ a2 clipped to a covers 15..40
		ms2d(30),
		ms2d(5),
		ms2d(27),
		0,
		ms2d(100),
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	layers := layerSelf(spans, func(span) bool { return true })
	if layers["harness"] != ms2d(35) || layers["sim"] != ms2d(32) || layers["bench"] != ms2d(50) {
		t.Errorf("layerSelf = %v", layers)
	}
	second := layerSelf(spans, func(r span) bool { return r.Name == "r2" })
	if len(second) != 2 || second["resultstore"] != ms2d(100) || second["bench"] != 0 {
		t.Errorf("layerSelf under r2 = %v", second)
	}
	if got := coverage(spans); got != 0.75 { // (50 + 100) / (100 + 100)
		t.Errorf("coverage = %v, want 0.75", got)
	}
}

func TestDigestIsOrderIndependent(t *testing.T) {
	m := map[string]exactRef{}
	var lines []string
	for i, k := range []string{"espresso/small", "li/large", "ora/pointE", "gcc/baseline"} {
		r := exactRef{Instructions: uint64(1000 * (i + 1)), Cycles: uint64(1234 * (i + 1))}
		m[k] = r
		lines = append(lines, r.line(k))
	}
	want := digest(lines)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		rng.Shuffle(len(lines), func(a, b int) { lines[a], lines[b] = lines[b], lines[a] })
		if got := digest(lines); got != want {
			t.Fatalf("digest changed with order: %s != %s", got, want)
		}
	}
	if got := refDigest(m); got != want {
		t.Errorf("refDigest = %s, want %s", got, want)
	}
	lines[0] += "1"
	if digest(lines) == want {
		t.Error("digest did not change with content")
	}
}

func TestFrontierMismatches(t *testing.T) {
	a := frontierRef{"x", 1.5}
	b := frontierRef{"y", 1.25}
	c := frontierRef{"z", 1}
	if n := frontierMismatches([]frontierRef{b, a}, []frontierRef{a, b}); n != 0 {
		t.Errorf("reordered frontier: %d mismatches", n)
	}
	if n := frontierMismatches([]frontierRef{a, c}, []frontierRef{a, b}); n != 2 {
		t.Errorf("one point replaced: %d mismatches, want 2", n)
	}
	if n := frontierMismatches([]frontierRef{a}, []frontierRef{a, b}); n != 1 {
		t.Errorf("one point missing: %d mismatches, want 1", n)
	}
}

// The decomposition's batch slice stream must drive the core to the same
// Report as trace.SliceStream (the per-record path), and both must match
// the interleaved VM-driven run of the same cell.
func TestBatchSliceMatchesSliceStream(t *testing.T) {
	const budget = 30_000
	for _, name := range []string{"espresso", "alvinn"} {
		w, err := aurora.GetWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := w.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		var recs []trace.Record
		if _, err := m.Run(budget, func(r trace.Record) { recs = append(recs, r) }); err != nil {
			t.Fatal(err)
		}
		cfg, err := aurora.ModelByName("baseline")
		if err != nil {
			t.Fatal(err)
		}
		batched, err := aurora.RunTrace(cfg, &batchSlice{recs: recs})
		if err != nil {
			t.Fatal(err)
		}
		single, err := aurora.RunTrace(cfg, &trace.SliceStream{Records: recs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched, single) {
			t.Errorf("%s: batch slice stream report differs from SliceStream's", name)
		}
		direct, err := aurora.Run(cfg, w, budget)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Cycles != batched.Cycles || direct.Instructions != batched.Instructions {
			t.Errorf("%s: replay %d cycles / %d instr, direct run %d / %d", name,
				batched.Cycles, batched.Instructions, direct.Cycles, direct.Instructions)
		}
	}
}

// The hooks must nest the runner-side simulate span under the caller's
// Runner.Run span, so the Run span's self time is the harness's own.
func TestHooksNestSimulateUnderRun(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", "bench", 0, -1)
	r := harness.NewRunner(1)
	h := newHooks(tr, nil, root)
	h.attach(r)
	w, err := aurora.GetWorkload("li")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := aurora.ModelByName("small")
	if err != nil {
		t.Fatal(err)
	}
	key := jobKey(cfg.Fingerprint(), w.Name, 20_000)
	id := tr.begin("harness.Runner.Run", "harness", 1, root)
	h.enter(key, id, 1)
	if _, err := r.Run(context.Background(), cfg, w, harness.Options{Budget: 20_000}); err != nil {
		t.Fatal(err)
	}
	h.leave(key)
	tr.end(id)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 3 || spans[2].Layer != "sim" || spans[2].Parent != id || spans[2].End < 0 {
		t.Fatalf("spans = %+v", spans)
	}
	self := selfTimes(spans)
	if self[id] >= spans[2].End-spans[2].Start {
		t.Errorf("Runner.Run self time %v not below its simulate child's %v", self[id], spans[2].End-spans[2].Start)
	}
}

// A store-warm pass, untraced and traced, answers every cell from the
// filled store with the reports it was filled with, simulating nothing.
// Run it under -race: callers share Runners and drop them as they finish.
func TestStoreWarmPass(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a store and answers 18,000 lookups twice")
	}
	rf, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{ctx: context.Background(), workload: "store-warm", rng: rand.New(rand.NewSource(3)), refs: rf, work: t.TempDir()}
	if err := b.setup(true); err != nil {
		t.Fatal(err)
	}
	if b.setupFailed != 0 {
		t.Fatalf("%d fill cells off the references", b.setupFailed)
	}
	want := b.wantDigest()
	for _, tr := range []*tracer{nil, newTracer()} {
		p, err := b.runPass(tr)
		if err != nil {
			t.Fatal(err)
		}
		p.settle()
		if p.nFailed != 0 || p.memo.Simulated != 0 || p.memo.Misses != warmRunners*60 {
			t.Errorf("traced=%v: failed %d, memo %+v", tr != nil, p.nFailed, p.memo)
		}
		if p.digest != want {
			t.Errorf("traced=%v: answers digest %s, want %s", tr != nil, p.digest, want)
		}
		if tr != nil && (len(p.gets) != warmRunners*60 || coverage(tr.snapshot()) < 0.95) {
			t.Errorf("traced pass: %d gets, coverage %v", len(p.gets), coverage(tr.snapshot()))
		}
	}
}

// A pass's peak resident set is its own: resetting the high-water mark
// forgets an earlier, larger peak, and touching memory after the reset
// raises it again.
func TestPeakRSSIsPerPass(t *testing.T) {
	touch := func(mb int) []byte {
		b := make([]byte, mb<<20)
		for i := range b {
			b[i] = 1
		}
		return b
	}
	touch(64)
	before, err := readPeakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := readPeakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if after > before-32 {
		t.Fatalf("peak after reset %.1f MiB, before %.1f MiB: the 64 MiB peak was not forgotten", after, before)
	}
	small := touch(16)
	grown, err := readPeakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if grown < after+12 {
		t.Fatalf("peak %.1f MiB after touching 16 MiB, %.1f MiB before", grown, after)
	}
	runtime.KeepAlive(small)
}
