package harness

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/obs"
	"aurora/internal/sample"
	"aurora/internal/simfault"
	"aurora/internal/workloads"
)

// Runner is the parallel experiment engine. It schedules (config, workload,
// budget, scheduled) simulation jobs onto a bounded worker pool and memoizes
// completed runs by a canonical job key, so experiments that share a
// configuration — Figure 4's dual-issue points, Tables 3-5, Figure 6 and the
// write-traffic study all run the Table 1 models on the integer suite —
// simulate each distinct job exactly once.
//
// Every figure assembles its results in input order, so output is
// byte-identical regardless of the worker count: each job is a deterministic
// function of its key, and scheduling only changes when a job runs, never
// what it computes.
//
// The runner is also the fault boundary: a panic inside the timing core
// fails that job with a typed *simfault.Fault — never the process, and
// never the memo table — and a job that exceeds JobTimeout fails the same
// way. Cancelling the context passed to Run stops queued jobs before they
// are scheduled and interrupts running ones within a few thousand simulated
// cycles; cancelled attempts are not memoized, so a later sweep retries
// them under its own context.
//
// When Store is set, a persistent layer sits under the memo table and
// requests resolve memory → disk → simulate: the goroutine that owns a
// key's memo entry consults the store before paying for a simulation, and
// writes the result back after one, so single-flight semantics hold across
// both layers — concurrent requesters of one key trigger at most one disk
// lookup and at most one simulation per process.
type Runner struct {
	sem chan struct{} // bounds concurrently simulating jobs

	// Store, when non-nil, is the persistent result layer (see
	// internal/resultstore). Lookups and writes happen only on memo
	// misses, outside the worker-pool semaphore (they are cheap file
	// I/O, not simulation). Set it before submitting jobs.
	Store Store

	// StoreReadOnly serves hits from Store but never writes back —
	// for sharing a populated store with runs that must not mutate it.
	StoreReadOnly bool

	// Observe, when non-nil, supplies a per-job observability sink (see
	// internal/obs) for every distinct job the runner simulates. It is
	// called exactly once per memo entry — on the miss, never on hits — so
	// a sweep that revisits a job yields one time series per distinct
	// simulation no matter how many experiments requested it or how many
	// workers ran them. A nil return leaves that job unobserved. Set it
	// before submitting jobs; it must be safe for concurrent calls.
	Observe func(job JobInfo) obs.Sink

	// JobTimeout bounds each distinct job's wall-clock time; 0 means no
	// per-job deadline. An expired job fails with a *simfault.Fault whose
	// Subsystem is "deadline", and the fault is memoized like any other
	// property of the job. Set it before submitting jobs.
	JobTimeout time.Duration

	mu      sync.Mutex
	memo    map[jobKey]*memoEntry
	cpCache *sample.CheckpointCache
	stats   RunnerStats
}

// Store is the persistent result layer a Runner can sit on top of:
// fingerprint-keyed, shared between processes, consulted on memo misses.
// resultstore.Store implements it. Lookup reports the stored report or
// typed fault for the job coordinates (ok false on any miss); Save
// persists a finished job and must refuse results that are not
// deterministic properties of the job (see simfault.Fault.Persistable).
// Implementations must be safe for concurrent use.
type Store interface {
	Lookup(fingerprint, workload string, budget uint64, scheduled bool) (rep *core.Report, fault *simfault.Fault, ok bool)
	Save(fingerprint, workload string, budget uint64, scheduled bool, rep *core.Report, fault *simfault.Fault) error
}

// JobInfo describes one distinct simulation job to an Observe factory.
type JobInfo struct {
	ConfigName  string
	Fingerprint string // core.Config.Fingerprint(): canonical config identity
	Workload    string
	Budget      uint64 // effective instruction budget (defaults resolved)
	Scheduled   bool
}

// jobKey canonically identifies one simulation. Budget is the effective
// per-workload budget (an Options.Budget of 0 resolves to the workload's
// default before keying, so explicit and defaulted budgets collapse).
// sample is empty for exact runs and sample.Params.Key() for sampled
// estimates, so the two kinds can never share a key even at identical
// (config, workload, budget) coordinates.
type jobKey struct {
	config    string // core.Config.Fingerprint()
	workload  string
	budget    uint64
	scheduled bool
	sample    string
}

// memoEntry holds one job's result, exact or sampled (jobKey.sample tells
// the kinds apart, so one table serves both). The goroutine that inserts
// the entry computes it and closes done; later requesters wait on done (or
// their own cancellation) and share the result. A panicking job completes
// its entry with the recovered *simfault.Fault — the earlier sync.Once
// design counted a panicking computation as returned, so every later hit of
// that key read a poisoned nil, nil entry. A computation aborted by its own
// caller's cancellation is withdrawn from the table instead, so the next
// requester retries under a live context.
type memoEntry struct {
	done chan struct{}
	val  any // *core.Report or *sample.Report, by key kind
	err  error
}

// jobStore is the persistent layer as one job sees it: the Store or
// SampledStore method pair bound to the job's coordinates.
type jobStore[T any] interface {
	Lookup() (T, *simfault.Fault, bool)
	Save(T, *simfault.Fault) error
}

// NewRunner returns a runner with the given worker-pool size;
// workers <= 0 selects runtime.GOMAXPROCS(0).
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		sem:  make(chan struct{}, workers),
		memo: map[jobKey]*memoEntry{},
	}
}

// Workers returns the worker-pool size.
func (r *Runner) Workers() int { return cap(r.sem) }

// RunnerStats reports memo-table and store behaviour. Hits counts requests
// answered from (or coalesced onto) an existing memo entry; Misses counts
// memo entries created. Each Run call increments at most one of the two —
// a request that waits on an entry later withdrawn by cancellation and then
// retries counts only its final disposition — so for any set of completed,
// uncancelled requests Hits+Misses equals the request count.
//
// With a Store attached, a memo miss resolves against the disk before
// simulating: StoreHits counts entries served from disk, StoreMisses the
// lookups that fell through, and Simulated the jobs actually run. A sweep
// answered entirely from a warm store reports Simulated == 0.
type RunnerStats struct {
	Hits        uint64
	Misses      uint64
	Simulated   uint64
	StoreHits   uint64
	StoreMisses uint64
}

// Stats returns a snapshot of the memo-table counters.
func (r *Runner) Stats() RunnerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// count increments one of the runner's counters.
func (r *Runner) count(c *uint64) {
	r.mu.Lock()
	*c++
	r.mu.Unlock()
}

// canceled reports whether err is a context cancellation or deadline error —
// a property of the requesting sweep, not of the job, so never memoized.
// (A job's own JobTimeout expiry is converted to a *simfault.Fault before
// it reaches this check.)
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes one workload on one configuration under the worker pool,
// returning the memoized report when an identical job has already run.
// Reports are shared between hits and must be treated as read-only.
//
// A job that panics in the timing core returns a *simfault.Fault (match
// with errors.As); hits of the same key return the identical fault. ctx
// cancellation returns ctx.Err() without publishing anything.
func (r *Runner) Run(ctx context.Context, cfg core.Config, w *workloads.Workload, opts Options) (*core.Report, error) {
	cfg = applyBPred(cfg, opts)
	opts.Budget = effectiveBudget(w, opts)
	key := jobKey{
		config:    cfg.Fingerprint(),
		workload:  w.Name,
		budget:    opts.Budget,
		scheduled: opts.Scheduled,
	}
	t := task[*core.Report]{key: key, job: jobOf(cfg, key.config, key.workload, key.scheduled)}
	if r.Store != nil {
		t.store = exactStore{r.Store, key}
	}
	t.simulate = func(jctx context.Context) (*core.Report, uint64, error) {
		var sink obs.Sink
		if r.Observe != nil {
			sink = r.Observe(JobInfo{
				ConfigName:  cfg.Name,
				Fingerprint: key.config,
				Workload:    key.workload,
				Budget:      key.budget,
				Scheduled:   key.scheduled,
			})
		}
		return run(jctx, cfg, workloadTrace(w, opts), sink, t.job)
	}
	return t.memoize(ctx, r)
}

// exactStore is a Store bound to one exact job's coordinates.
type exactStore struct {
	st  Store
	key jobKey
}

func (s exactStore) Lookup() (*core.Report, *simfault.Fault, bool) {
	return s.st.Lookup(s.key.config, s.key.workload, s.key.budget, s.key.scheduled)
}

func (s exactStore) Save(rep *core.Report, f *simfault.Fault) error {
	return s.st.Save(s.key.config, s.key.workload, s.key.budget, s.key.scheduled, rep, f)
}

// task is one job as the shared path sees it, exact (T *core.Report) or
// sampled (T *sample.Report): what differs between the kinds is only the
// persistent layer and the simulate step each supplies.
type task[T any] struct {
	key   jobKey
	job   simfault.Job
	store jobStore[T] // nil when the runner has no store for this kind
	// simulate runs the admitted job under the job's context, reporting
	// how far the timing core got for deadline faults.
	simulate func(context.Context) (T, uint64, error)
}

// memoize is the single-flight memo every job goes through: the first
// requester of a key resolves it, concurrent and later requesters share
// the answer.
func (t task[T]) memoize(ctx context.Context, r *Runner) (T, error) {
	var zero T
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		r.mu.Lock()
		e, ok := r.memo[t.key]
		if !ok {
			e = &memoEntry{done: make(chan struct{})}
			r.memo[t.key] = e
			r.stats.Misses++
			r.mu.Unlock()
			v, err := t.resolve(ctx, r)
			e.val, e.err = v, err
			if canceled(err) {
				// The attempt died with its caller, not on its own merits:
				// withdraw the entry so the next requester retries.
				r.mu.Lock()
				if r.memo[t.key] == e {
					delete(r.memo, t.key)
				}
				r.mu.Unlock()
			}
			close(e.done)
			return v, err
		}
		r.mu.Unlock()
		select {
		case <-e.done:
			if !canceled(e.err) {
				// Counted here — on the answer — not when the wait began:
				// a requester that waits on an entry later withdrawn by
				// cancellation retries and is counted once, by whichever
				// branch finally answers it, instead of as a hit plus a
				// hit-or-miss again.
				r.count(&r.stats.Hits)
				return e.val.(T), e.err
			}
			// The computing caller was cancelled; loop and retry under our
			// own context (the withdrawn entry no longer blocks the key).
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// resolve answers one memo miss: disk first when a store is attached, then
// simulation, writing persistable results back the moment it returns. It
// runs inside the key's memo entry, so both layers inherit the memo's
// single-flight guarantee. The lookup stays outside the worker pool: it is
// cheap file I/O, not simulation.
func (t task[T]) resolve(ctx context.Context, r *Runner) (T, error) {
	if t.store != nil {
		if v, f, ok := t.store.Lookup(); ok {
			r.count(&r.stats.StoreHits)
			if f != nil {
				var zero T
				return zero, f
			}
			return v, nil
		}
		r.count(&r.stats.StoreMisses)
	}
	v, err := t.compute(ctx, r)
	if t.store != nil && !r.StoreReadOnly {
		t.persist(v, err)
	}
	return v, err
}

// persist writes a finished job back to the store when its outcome is a
// deterministic property of the job: a healthy result, or an invariant-
// panic fault. Deadline faults depend on host load and plain errors
// (VM faults, I/O, cancellation) have no canonical serialized form, so
// neither is written — they are recomputed by each process instead. A
// failed write never fails the job; the store's own counters record it.
func (t task[T]) persist(v T, err error) {
	if err == nil {
		//aurora:allow(fault, a failed persist must fail neither job nor sweep; the store counts it in Stats.PutErrors)
		_ = t.store.Save(v, nil)
		return
	}
	var f *simfault.Fault
	if errors.As(err, &f) && f.Persistable() {
		var zero T
		//aurora:allow(fault, a failed persist must fail neither job nor sweep; the store counts it in Stats.PutErrors)
		_ = t.store.Save(zero, f)
	}
}

// compute simulates one distinct job: pool admission, per-job deadline,
// and simulate — whose own recover (run or runSampled) is the fault
// boundary.
func (t task[T]) compute(ctx context.Context, r *Runner) (T, error) {
	// Admission: a queued job waits for a pool slot unless the sweep is
	// cancelled first — this is where fail-fast studies stop scheduling
	// work that has not started yet.
	select {
	case r.sem <- struct{}{}:
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
	defer func() { <-r.sem }()

	jctx := ctx
	if r.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, r.JobTimeout)
		defer cancel()
	}
	r.count(&r.stats.Simulated)
	v, cycles, err := t.simulate(jctx)
	if err != nil && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		// The job's own wall-clock budget expired while the surrounding
		// sweep is still live: a property of the job, recorded as a typed
		// fault and memoized like any other bad design point.
		err = simfault.Deadline(t.job, cycles, r.JobTimeout)
	}
	return v, err
}

// RunWorkload is Run with the root-package budget convention:
// maxInstr = 0 selects the workload's default budget.
func (r *Runner) RunWorkload(ctx context.Context, cfg core.Config, w *workloads.Workload, maxInstr uint64) (*core.Report, error) {
	return r.Run(ctx, cfg, w, Options{Budget: maxInstr})
}

// RunScheduledWorkload is RunWorkload with the §6 compiler-scheduling trace
// pass applied; scheduled and unscheduled runs memoize separately.
func (r *Runner) RunScheduledWorkload(ctx context.Context, cfg core.Config, w *workloads.Workload, maxInstr uint64) (*core.Report, error) {
	return r.Run(ctx, cfg, w, Options{Budget: maxInstr, Scheduled: true})
}

// each runs fn(0) .. fn(n-1) concurrently and collects the results in input
// order. Goroutines are cheap and the runner's semaphore bounds the actual
// simulation work, so callers fan out one goroutine per job regardless of
// pool size.
//
// Under opts.FailFast the first failure cancels the context the remaining
// fn calls receive, so jobs that have not been scheduled yet stop at the
// pool-admission gate; the default keep-going mode lets every job run to
// its own conclusion. The first error in input order wins, except that the
// secondary cancellations fail-fast induces never mask the failure that
// triggered them.
func each[T any](ctx context.Context, opts Options, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	ectx := ctx
	var cancel context.CancelFunc
	if opts.FailFast {
		ectx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	out := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = fn(ectx, i)
			if errs[i] != nil && cancel != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !canceled(err) {
			return nil, err
		}
		if first == nil {
			first = err
		}
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}
