// Package aurora is a trace-driven timing simulator of the Aurora III, the
// experimental 300 MHz GaAs microprocessor of Upton, Huff, Mudge and Brown,
// "Resource Allocation in a High Clock Rate Microprocessor" (ASPLOS VI,
// 1994). It reproduces the paper's resource-allocation study: three machine
// models (small / baseline / large), single- and dual-issue pipelines,
// stream-buffer prefetching, a non-blocking external data cache with MSHRs,
// a coalescing write cache, and a decoupled floating-point unit with
// configurable queues and functional-unit latencies — all costed in
// Register Bit Equivalents.
//
// # Quick start
//
//	w, _ := aurora.GetWorkload("espresso")
//	rep, _ := aurora.Run(aurora.Baseline(), w, 0)
//	fmt.Printf("CPI %.3f, icache hit %.1f%%\n", rep.CPI(), 100*rep.ICacheHitRate())
//
// Workloads are MIPS R3000 assembly kernels modelled after the SPEC92
// programs the paper used; they are assembled and executed functionally by
// an internal MIPS VM whose dynamic instruction trace drives the timing
// model, mirroring the paper's trace-driven methodology.
package aurora

import (
	"context"
	"fmt"

	"aurora/internal/bpred"
	"aurora/internal/core"
	"aurora/internal/fpu"
	"aurora/internal/harness"
	"aurora/internal/isa"
	"aurora/internal/mem"
	"aurora/internal/mmu"
	"aurora/internal/obs"
	"aurora/internal/rbe"
	"aurora/internal/sample"
	"aurora/internal/simfault"
	"aurora/internal/trace"
	"aurora/internal/vm"
	"aurora/internal/workloads"
)

// SimFault is the typed error a panic inside the timing core is recovered
// into: it identifies the job (configuration fingerprint, workload), the
// faulting subsystem and the simulated cycle the panic fired at, and carries
// the stack. Match with errors.As:
//
//	var f *aurora.SimFault
//	if errors.As(err, &f) { log.Printf("bad design point: %v", f) }
type SimFault = simfault.Fault

// Config is a complete machine configuration (Table 1 resources plus the
// memory system and FPU).
type Config = core.Config

// Report carries the result of a timing run: CPI, stall breakdown, cache,
// prefetch, write-cache and FPU statistics.
type Report = core.Report

// StallCause labels the stall buckets of Figure 6.
type StallCause = core.StallCause

// Stall causes (paper §5.3, plus FPU decoupling and a residual bucket).
const (
	StallICache    = core.StallICache
	StallLoad      = core.StallLoad
	StallROBFull   = core.StallROBFull
	StallLSUBusy   = core.StallLSUBusy
	StallFPU       = core.StallFPU
	StallOther     = core.StallOther
	NumStallCauses = core.NumStallCauses
)

// FPUConfig parameterises the decoupled floating-point unit.
type FPUConfig = fpu.Config

// FPUPolicy selects the §5.8 issue policy.
type FPUPolicy = fpu.IssuePolicy

// FPU issue policies.
const (
	FPUInOrder   = fpu.InOrderComplete
	FPUOOOSingle = fpu.OutOfOrderSingle
	FPUOOODual   = fpu.OutOfOrderDual
)

// MemoryConfig parameterises the secondary memory system (BIU).
type MemoryConfig = mem.Config

// BPredConfig selects and sizes the branch direction predictor (extension;
// the zero value keeps the paper's branch-folding front end). See
// docs/BRANCH-PREDICTION.md.
type BPredConfig = bpred.Config

// BPredKind names a predictor model.
type BPredKind = bpred.Kind

// Predictor models, from the paper's folded front end to TAGE.
const (
	BPredFolding = bpred.Folding
	BPredStatic  = bpred.Static
	BPredBimodal = bpred.Bimodal
	BPredGShare  = bpred.GShare
	BPredTAGE    = bpred.TAGE
)

// ParseBPred parses a -bpred flag value such as "gshare:entries=4096,hist=12"
// into a predictor configuration.
func ParseBPred(s string) (BPredConfig, error) { return bpred.Parse(s) }

// MMUConfig parameterises the optional structured MMU model (TLB +
// secondary cache) behind the BIU; the zero value keeps the paper's flat
// average-latency abstraction.
type MMUConfig = mmu.Config

// DefaultMMU returns a period-plausible structured MMU (64-entry TLB,
// 512 KB secondary cache).
func DefaultMMU() MMUConfig { return mmu.DefaultConfig() }

// Workload is one benchmark kernel (a SPEC92 stand-in).
type Workload = workloads.Workload

// Machine-model constructors (Table 1).
var (
	Small        = core.Small
	Baseline     = core.Baseline
	Large        = core.Large
	RecommendedE = core.RecommendedE
	Models       = core.Models
)

// DefaultFPU returns the §5.11 recommended FPU configuration.
func DefaultFPU() FPUConfig { return fpu.DefaultConfig() }

// ModelByName resolves a Table 1 model name ("small", "baseline", "large")
// or the §5.6 recommendation ("pointE").
func ModelByName(name string) (Config, error) {
	switch name {
	case "small":
		return Small(), nil
	case "baseline", "base":
		return Baseline(), nil
	case "large":
		return Large(), nil
	case "pointE", "pointe", "e":
		return RecommendedE(), nil
	}
	return Config{}, fmt.Errorf("aurora: unknown model %q (small, baseline, large, pointE)", name)
}

// GetWorkload returns a workload by its SPEC name ("espresso", "alvinn", ...).
func GetWorkload(name string) (*Workload, error) { return workloads.Get(name) }

// WorkloadNames lists all workloads, integer suite first.
func WorkloadNames() []string { return workloads.Names() }

// IntegerSuite returns the six SPECint92 stand-ins in the paper's order.
func IntegerSuite() []*Workload { return workloads.Integer() }

// FPSuite returns the nine SPECfp92 stand-ins in the paper's order.
func FPSuite() []*Workload { return workloads.FP() }

// Run executes a workload on the given machine configuration. maxInstr
// bounds the dynamic instruction count (0 uses the workload's default
// budget, which covers the kernel's full natural run).
func Run(cfg Config, w *Workload, maxInstr uint64) (*Report, error) {
	return RunContext(context.Background(), cfg, w, maxInstr)
}

// RunContext is Run under a context: cancellation stops the simulation
// within a few thousand cycles and returns ctx.Err().
func RunContext(ctx context.Context, cfg Config, w *Workload, maxInstr uint64) (*Report, error) {
	return RunObservedContext(ctx, cfg, w, maxInstr, nil)
}

// RunObserved is Run with an observability sink attached (see internal/obs):
// the simulator streams timeline events and, at the sink's sampling
// interval, per-interval metric batches. A nil sink is exactly Run — the
// timing model stays on its zero-cost path, so the Report is identical.
func RunObserved(cfg Config, w *Workload, maxInstr uint64, sink obs.Sink) (*Report, error) {
	return RunObservedContext(context.Background(), cfg, w, maxInstr, sink)
}

// RunObservedContext is RunObserved under a context. A panic inside machine
// construction or the timing core comes back as a *SimFault instead of
// unwinding the caller: the run goes through the experiment runner's fault
// boundary.
func RunObservedContext(ctx context.Context, cfg Config, w *Workload, maxInstr uint64, sink obs.Sink) (*Report, error) {
	return harness.Simulate(ctx, cfg, w, harness.Options{Budget: maxInstr}, sink)
}

// Simulation is an incrementally-stepped timing run: the same machine Run
// drives, exposed one cycle at a time. Benchmarks use it to warm a
// processor up and then time the steady-state cycle loop in isolation.
type Simulation struct {
	p      *core.Processor
	stream *vm.Stream
	done   <-chan struct{} // nil without a cancellable context
	ctx    context.Context
	err    error
}

// simCancelMask matches the core cycle loop's cancellation-poll interval.
const simCancelMask = 1<<12 - 1

// NewSimulation prepares a workload run for cycle-by-cycle stepping.
// maxInstr bounds the dynamic instruction count (0 uses the workload's
// default budget).
func NewSimulation(cfg Config, w *Workload, maxInstr uint64) (*Simulation, error) {
	return NewSimulationContext(context.Background(), cfg, w, maxInstr)
}

// NewSimulationContext is NewSimulation under a context: once ctx is
// cancelled, Step returns false within a few thousand cycles and Err
// reports ctx.Err().
func NewSimulationContext(ctx context.Context, cfg Config, w *Workload, maxInstr uint64) (*Simulation, error) {
	m, err := w.NewMachine()
	if err != nil {
		return nil, err
	}
	if maxInstr == 0 {
		maxInstr = w.DefaultBudget * 4
	}
	stream := vm.NewStream(m, maxInstr)
	p, err := core.NewProcessor(cfg, stream)
	if err != nil {
		return nil, err
	}
	return &Simulation{p: p, stream: stream, done: ctx.Done(), ctx: ctx}, nil
}

// Step advances the machine one cycle, reporting whether work remains.
func (s *Simulation) Step() bool {
	if s.done != nil && s.p.Cycles()&simCancelMask == 0 {
		select {
		case <-s.done:
			s.err = s.ctx.Err()
			return false
		default:
		}
	}
	return s.p.Step()
}

// Err reports why stepping stopped early: the context's error after a
// cancellation, nil for a natural end of the run.
func (s *Simulation) Err() error { return s.err }

// Cycles returns the cycles simulated so far.
func (s *Simulation) Cycles() uint64 { return s.p.Cycles() }

// Instructions returns the instructions retired so far.
func (s *Simulation) Instructions() uint64 { return s.p.Instructions() }

// FastForward advances the simulation n dynamic instructions at functional
// (VM) speed, warming only the machine's cache contents — no cycles pass,
// no statistics are counted. Detailed stepping picks up from the warmed
// state: this is the fast-forward mode, for skipping initialisation phases
// a study does not want to pay cycle-accurate time for. The skipped
// instructions count against the simulation's instruction budget.
// It returns the number of instructions actually skipped (the kernel may
// halt or exhaust the budget first).
func (s *Simulation) FastForward(n uint64) (uint64, error) {
	var skipped uint64
	for skipped < n {
		rec, ok := s.stream.Next()
		if !ok {
			if err := s.stream.Err(); err != nil {
				return skipped, fmt.Errorf("aurora: fast-forward execution fault: %w", err)
			}
			break
		}
		skipped++
		s.p.WarmAccess(core.WarmFetch, rec.PC)
		if rec.SI.Class.IsMem() {
			k := core.WarmLoad
			if rec.SI.Class == isa.ClassStore || rec.SI.Class == isa.ClassFPStore {
				k = core.WarmStore
			}
			s.p.WarmAccess(k, rec.MemAddr)
		}
		if skipped&simCancelMask == 0 && s.done != nil {
			select {
			case <-s.done:
				s.err = s.ctx.Err()
				return skipped, s.err
			default:
			}
		}
	}
	s.p.Reopen()
	return skipped, nil
}

// SampleParams configures the sampled simulation mode (see internal/sample);
// the zero value selects the tuned defaults.
type SampleParams = sample.Params

// SampledReport is a sampled run's estimate: CPI with a measured confidence
// bound, plus the window measurements behind it.
type SampledReport = sample.Report

// RunSampled executes a workload in sampled + fast-forward mode: the
// functional VM fast-forwards between periodic cycle-accurate windows and
// CPI is estimated from the windows with a reported confidence bound
// (Report.CPIError). On the pinned benchmark sweep this is 5-8× faster than
// Run with |CPI error| within the bound on every kernel — see
// docs/SIMULATION-MODES.md for the algorithm and the error model.
// maxInstr follows Run's convention (0 = the workload's default budget).
func RunSampled(cfg Config, w *Workload, maxInstr uint64, p SampleParams) (*SampledReport, error) {
	return RunSampledContext(context.Background(), cfg, w, maxInstr, p)
}

// RunSampledContext is RunSampled under a context, with the same fault
// boundary as RunObservedContext.
func RunSampledContext(ctx context.Context, cfg Config, w *Workload, maxInstr uint64, p SampleParams) (*SampledReport, error) {
	return harness.SimulateSampled(ctx, cfg, w, maxInstr, p)
}

// RunScheduled is Run with the §6 "better compiler scheduling" pass: each
// basic block of the dynamic trace is list-scheduled (loads hoisted away
// from their consumers) before it reaches the timing model — modelling a
// recompiled binary.
func RunScheduled(cfg Config, w *Workload, maxInstr uint64) (*Report, error) {
	return RunScheduledContext(context.Background(), cfg, w, maxInstr)
}

// RunScheduledContext is RunScheduled under a context, with the same fault
// boundary as RunObservedContext.
func RunScheduledContext(ctx context.Context, cfg Config, w *Workload, maxInstr uint64) (*Report, error) {
	return harness.Simulate(ctx, cfg, w, harness.Options{Budget: maxInstr, Scheduled: true}, nil)
}

// RunTrace executes the timing model over an arbitrary trace stream
// (for pre-recorded traces or synthetic streams).
func RunTrace(cfg Config, stream trace.Stream) (*Report, error) {
	return RunTraceContext(context.Background(), cfg, stream)
}

// RunTraceContext is RunTrace under a context, with the panic fault boundary
// (the trace has no workload name; the fault identifies the configuration).
func RunTraceContext(ctx context.Context, cfg Config, stream trace.Stream) (*Report, error) {
	return harness.SimulateTrace(ctx, cfg, stream)
}

// Runner is the parallel experiment engine: it schedules simulation jobs
// onto a bounded worker pool and memoizes results by the configuration's
// canonical fingerprint, so sweeps that revisit a (config, workload, budget)
// job reuse the finished Report instead of re-simulating. Reports returned
// for memo hits are shared and must be treated as read-only.
//
//	r := aurora.NewRunner(0) // 0 = GOMAXPROCS workers
//	rep, err := r.RunWorkload(aurora.Baseline(), w, 600_000)
type Runner = harness.Runner

// RunnerStats reports a Runner's memo-table behaviour.
type RunnerStats = harness.RunnerStats

// NewRunner returns a parallel experiment runner; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func NewRunner(workers int) *Runner { return harness.NewRunner(workers) }

// Cost returns a configuration's integer-side implementation cost in
// Register Bit Equivalents (Table 2).
func Cost(cfg Config) (int, error) { return cfg.CostRBE() }

// FPUCost returns an FPU configuration's cost in RBE (Table 2).
func FPUCost(cfg FPUConfig) int {
	c := cfg.Normalize()
	return rbe.FPUCost{
		InstrQueue: c.InstrQueue, LoadQueue: c.LoadQueue, StoreQueue: c.StoreQueue,
		ReorderBuf: c.ReorderBuffer,
		AddLatency: c.AddLatency, MulLatency: c.MulLatency,
		DivLatency: c.DivLatency, CvtLatency: c.CvtLatency,
		AddPipelined: c.AddPipelined, MulPipelined: c.MulPipelined,
	}.Total()
}
