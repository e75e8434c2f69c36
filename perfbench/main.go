// Command perfbench is the repository's benchmark: four workloads driven
// through the simulator's public APIs, every answered cell checked against
// pinned references, and a separate traced run that splits host time by
// layer. See README.md in this directory for the metrics, the workloads and
// how to read a traced run. Run it from the repository root:
//
//	bash perfbench/run.sh --workload exact-sweep --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"aurora/internal/core"
	"aurora/internal/resultstore"
)

// processStart stands in for the process's start: package variables are
// initialised before main runs, after the runtime and imported packages.
var processStart = time.Now()

// outDir is where runs leave their scratch stores and Chrome traces,
// relative to the repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

var workloadNames = []string{"exact-sweep", "sampled-sweep", "explore-cold", "store-warm"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload: exact-sweep, sampled-sweep, explore-cold or store-warm")
	seed := flag.Int64("seed", 1, "workload seed: permutes submission and lookup order")
	seconds := flag.Int("seconds", 10, "how long to measure, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	refsOut := flag.String("write-refs", "", "simulate the pinned references, write them to this path and exit")
	calib := flag.Bool("calibrate", false, "run one host-speed calibration, print its time and exit (the benchmark's own child process)")
	flag.Parse()
	if *calib {
		return calibrateChild()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *refsOut != "" {
		if err := writeRefs(ctx, *refsOut); err != nil {
			return fail(err)
		}
		return 0
	}
	known := false
	for _, n := range workloadNames {
		known = known || n == *workload
	}
	if !known || *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fail(fmt.Errorf("usage: --workload %v --seed N --seconds S --trace 0|1", workloadNames))
	}
	rf, err := loadRefs()
	if err != nil {
		return fail(err)
	}
	work := filepath.Join(outDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(work)
	b := &bench{ctx: ctx, workload: *workload, seed: *seed, rng: rand.New(rand.NewSource(*seed)), refs: rf, work: work}
	budget := time.Duration(*seconds) * time.Second

	facts := runFacts(*workload, *seed)
	var res *result
	if *traced == 1 {
		res, err = b.tracedRun(budget, facts)
	} else {
		res, err = b.timedRun(budget, facts)
	}
	if err != nil {
		return fail(err)
	}
	printFacts(facts)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 1
}

// fact is one run fact, printed before the result in input order.
type fact struct {
	name  string
	value any
}

type factList []fact

func (f *factList) add(name string, v any) { *f = append(*f, fact{name, v}) }

func runFacts(workload string, seed int64) *factList {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	f := &factList{}
	f.add("workload", workload)
	f.add("seed", seed)
	f.add("nproc", runtime.NumCPU())
	f.add("gomaxprocs", runtime.GOMAXPROCS(0))
	f.add("go_version", runtime.Version())
	f.add("git_revision", rev)
	f.add("sim_code_version", resultstore.CodeVersion())
	f.add("callers", callers)
	return f
}

func printFacts(f *factList) {
	for _, x := range *f {
		fmt.Printf("# %-22s %v\n", x.name, x.value)
	}
}

// timedRun sets up setupUnits × setupRounds times, then runs untraced
// passes for budget and reports the end-to-end metrics.
func (b *bench) timedRun(budget time.Duration, facts *factList) (*result, error) {
	setups, setupCals, err := b.timedSetups()
	if err != nil {
		return nil, err
	}
	passes, err := b.passesFor(budget, nil)
	if err != nil {
		return nil, err
	}
	// Every timing is scaled to the reference host's speed (see calib.go):
	// a pass by the calibrations around it, set-up by the median of the
	// calibrations after its units. The unscaled medians are run facts.
	names := []string{"wall_s", "cpu_s", "cell_p50_ms", "cell_tail_ms"}
	raw := map[string][]float64{}
	scaled := map[string][]float64{}
	var ips, cals, peaks []float64
	for _, p := range passes {
		scale := calRef.Seconds() / p.cal.Seconds()
		for i, v := range []float64{p.wall.Seconds(), p.cpu.Seconds(), p.p50MS, p.tailMS} {
			raw[names[i]] = append(raw[names[i]], v)
			scaled[names[i]] = append(scaled[names[i]], v*scale)
		}
		ips = append(ips, float64(p.instr)/p.wall.Seconds())
		cals = append(cals, p.cal.Seconds())
		peaks = append(peaks, p.peakMB)
	}
	res := b.verdict(passes, nil, facts)
	res.Metrics = map[string]metric{
		"setup_s":      {median(setups) * calRef.Seconds() / median(setupCals), "s"},
		"wall_s":       {median(scaled["wall_s"]), "s"},
		"cpu_s":        {median(scaled["cpu_s"]), "s"},
		"cell_p50_ms":  {median(scaled["cell_p50_ms"]), "ms"},
		"cell_tail_ms": {median(scaled["cell_tail_ms"]), "ms"},
		"peak_rss_mb":  {median(peaks), "MB"},
	}
	facts.add("host_cal_s", median(cals))
	facts.add("raw_setup_s", median(setups))
	for _, name := range names {
		facts.add("raw_"+name, median(raw[name]))
	}
	facts.add("passes", len(passes))
	facts.add("pass_wall_s", raw["wall_s"])
	facts.add("pass_cal_s", cals)
	facts.add("pass_peak_rss_mb", peaks)
	facts.add("setup_rounds_per_unit", setupRounds(b.workload))
	facts.add("setup_unit_s", setups)
	facts.add("setup_cal_s", setupCals)
	facts.add("cells_per_pass", passes[0].cells)
	facts.add("cell_tail_percentile", passes[0].tailPct)
	if b.workload != "store-warm" {
		facts.add("sips", median(ips))
	} else {
		facts.add("sips", "not reported: store-warm simulates nothing")
	}
	facts.add("tracing_overhead_s", "not measured: untraced run (see --trace 1)")
	return res, nil
}

// passesFor runs passes until budget has elapsed, at least two, handing
// tr to the odd-numbered ones (nil leaves every pass untraced). A host
// calibration runs before the first pass and after every pass; each pass
// keeps the mean of the two around it. Each pass starts with the freed heap
// returned to the OS and the resident high-water mark reset, and records
// its own peak resident set.
func (b *bench) passesFor(budget time.Duration, tr *tracer) ([]*pass, error) {
	var out []*pass
	start := time.Now()
	before, err := calibrate()
	if err != nil {
		return nil, err
	}
	for i := 0; i < 2 || time.Since(start) < budget; i++ {
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		p, err := b.runPass(t)
		if err != nil {
			return nil, err
		}
		if p.peakMB, err = readPeakRSSMB(); err != nil {
			return nil, err
		}
		p.settle()
		after, err := calibrate()
		if err != nil {
			return nil, err
		}
		p.cal = (before + after) / 2
		before = after
		out = append(out, p)
	}
	return out, nil
}

// timedSetups sets up setupUnits times setupRounds(workload) times and
// returns each unit's time per set-up, and the host calibration taken after
// each unit, in seconds. A unit is long enough (about half a second) that
// scheduler jitter does not dominate it. The first unit is counted from
// process start.
func (b *bench) timedSetups() (units, cals []float64, err error) {
	rounds := setupRounds(b.workload)
	for u := 0; u < setupUnits; u++ {
		t0 := processStart
		if u > 0 {
			runtime.GC() // each later unit starts from a collected heap
			t0 = time.Now()
		}
		for r := 0; r < rounds; r++ {
			if err := b.setup(u == 0 && r == 0); err != nil {
				return nil, nil, err
			}
		}
		units = append(units, time.Since(t0).Seconds()/float64(rounds))
		cal, err := calibrate()
		if err != nil {
			return nil, nil, err
		}
		cals = append(cals, cal.Seconds())
	}
	return units, cals, nil
}

// verdict totals attempted and failed cells over the passes, the
// decomposition (when there is one) and set-up, and checks each pass's
// answers digest against the references'.
func (b *bench) verdict(passes []*pass, d *decomp, facts *factList) *result {
	res := &result{Attempted: b.setupAttempted, Failed: b.setupFailed}
	want := b.wantDigest()
	digestOK := true
	for _, p := range passes {
		res.Attempted += p.nAttempted
		res.Failed += p.nFailed
		digestOK = digestOK && p.digest == want
	}
	if d != nil {
		res.Attempted += d.attempted
		res.Failed += d.failed
	}
	res.Correct = res.Failed == 0 && digestOK
	facts.add("answers_digest", passes[len(passes)-1].digest)
	facts.add("reference_digest", want)
	facts.add("failed_frac", float64(res.Failed)/float64(res.Attempted))
	return res
}

func (b *bench) wantDigest() string {
	switch b.workload {
	case "exact-sweep":
		return refDigest(b.refs.Exact)
	case "sampled-sweep":
		return refDigest(b.refs.Sampled)
	case "explore-cold":
		return frontierDigest(b.refs.Frontier)
	}
	// store-warm answers each cell once per Runner.
	var lines []string
	for i := 0; i < warmRunners; i++ {
		for k, v := range b.refs.Fill {
			lines = append(lines, v.line(k))
		}
	}
	return digest(lines)
}

// tracedRun alternates untraced and traced passes for half the budget,
// then runs the decomposition (about as long again), and reports the
// per-layer metrics.
func (b *bench) tracedRun(budget time.Duration, facts *factList) (*result, error) {
	if err := b.setup(true); err != nil {
		return nil, err
	}
	tr := newTracer()
	passes, err := b.passesFor(budget/2, tr)
	if err != nil {
		return nil, err
	}
	d, err := b.decompose(tr)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	var plain, traced []float64
	var last *pass
	var gets, puts []float64
	for i, p := range passes {
		if i%2 == 1 {
			traced = append(traced, p.wall.Seconds())
			gets = append(gets, p.gets...)
			puts = append(puts, p.puts...)
			last = p
		} else {
			plain = append(plain, p.wall.Seconds())
		}
	}
	gets = append(gets, d.gets...)
	puts = append(puts, d.puts...)
	overhead := median(traced) - median(plain)

	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	put("trace.overhead_s", overhead, "s")
	put("trace.coverage_frac", coverage(spans), "frac")
	put("trace.spans", float64(len(spans)), "count")
	layers := []string{"vm", "core", "sim", "sample", "harness", "resultstore"}
	self := layerSelf(spans, func(span) bool { return true })
	for _, l := range layers {
		put(l+".self_s", self[l].Seconds(), "s")
	}
	// The workload's own split: the traced passes without the decomposition.
	passSelf := layerSelf(spans, func(r span) bool { return r.Name != "decompose" })
	var total time.Duration
	for _, l := range layers {
		total += passSelf[l]
	}
	split := ""
	for _, l := range layers {
		split += fmt.Sprintf(" %s=%.3fs(%.1f%%)", l, passSelf[l].Seconds(), 100*float64(passSelf[l])/float64(total))
	}

	put("vm.cpu_s", d.vmCPU.Seconds(), "s")
	put("vm.instr", float64(d.vmInstr), "count")
	put("vm.ns_per_instr", float64(d.vmCPU)/float64(d.vmInstr), "ns")

	put("core.cpu_s", d.coreCPU.Seconds(), "s")
	put("core.cycles", float64(d.cycles), "count")
	put("core.ns_per_cycle", float64(d.coreCPU)/float64(d.cycles), "ns")
	put("core.ns_per_instr", float64(d.coreCPU)/float64(d.coreInstr), "ns")
	for _, name := range models {
		put("core."+name+".ns_per_cycle", float64(d.modelCPU[name])/float64(d.modelCycles[name]), "ns")
	}
	for c := core.StallCause(0); c < core.NumStallCauses; c++ {
		put("core.stalls."+c.String(), float64(d.stalls[c]), "count")
	}
	put("cache.icache_misses", float64(d.icMiss), "count")
	put("cache.dcache_misses", float64(d.dcMiss), "count")
	put("cache.wc_hits", float64(d.wcHits), "count")

	put("sample.capture_cpu_s", d.capCPU.Seconds(), "s")
	put("sample.replay_cpu_s", d.replayCPU.Seconds(), "s")
	put("sample.replay_ns_per_detailed_instr", float64(d.replayCPU)/float64(d.detailed), "ns")
	put("sample.detailed_frac", float64(d.detailed)/float64(d.sampleInstr), "frac")
	put("sample.windows", float64(d.windows), "count")
	put("sample.cpi_err_pct", mean(d.cpiErrPct), "%")
	put("sample.bound_miss_frac", float64(d.boundMiss)/float64(len(d.cpiErrPct)), "frac")

	put("harness.run_overhead_us", median(d.overheadUS), "us")
	put("harness.memo_hits", float64(last.memo.Hits), "count")
	put("harness.memo_misses", float64(last.memo.Misses), "count")
	put("harness.simulated", float64(last.memo.Simulated), "count")
	put("harness.explore.evaluations", float64(last.evals), "count")
	put("harness.explore.instr", float64(last.exInstr), "count")

	put("resultstore.get_p50_us", percentile(gets, 50), "us")
	put("resultstore.get_p99_us", percentile(gets, 99), "us")
	put("resultstore.put_p50_us", percentile(puts, 50), "us")
	put("resultstore.put_p99_us", percentile(puts, 99), "us")
	put("resultstore.entry_bytes", d.entryBytes, "bytes")
	put("resultstore.hits", float64(last.store.Hits+d.store.Hits), "count")
	put("resultstore.misses", float64(last.store.Misses+d.store.Misses), "count")
	put("resultstore.puts", float64(last.store.Puts+d.store.Puts), "count")
	put("resultstore.corrupt", float64(last.store.Corrupt+d.store.Corrupt), "count")

	res := b.verdict(passes, d, facts)
	res.Metrics = m
	tracePath := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", b.workload, b.seed))
	if err := writeChromeTrace(tracePath, spans); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	facts.add("passes_untraced", len(plain))
	facts.add("passes_traced", len(traced))
	var cals []float64
	for _, p := range passes {
		cals = append(cals, p.cal.Seconds())
	}
	facts.add("host_cal_s", median(cals))
	facts.add("tracing_overhead_s", overhead)
	facts.add("traced_pass_self", split[1:])
	facts.add("chrome_trace", tracePath)
	return res, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
