package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"aurora/internal/core"
	"aurora/internal/sample"
	"aurora/internal/simfault"
	"aurora/internal/workloads"
)

// Sampled-mode scheduling. A sampled estimate flows through the same
// machinery as an exact run — worker pool, single-flight memo, persistent
// store, fault boundary, per-job deadline — but under a key extended with
// the sampling discriminator (sample.Params.Key()), so a sampled estimate
// can never be served where an exact result was asked for, or vice versa.
// The runner also owns a checkpoint cache: all configurations of a sweep
// share one captured functional pass per (workload, layout, budget).

// SampledStore is the optional persistent layer for sampled estimates. A
// Runner whose Store also implements SampledStore (resultstore.Store does)
// persists and serves sampled results exactly like exact ones; any other
// Store simply leaves sampled jobs memory-memoized.
type SampledStore interface {
	LookupSampled(fingerprint, workload string, budget uint64, sampleKey string) (rep *sample.Report, fault *simfault.Fault, ok bool)
	SaveSampled(fingerprint, workload string, budget uint64, sampleKey string, rep *sample.Report, fault *simfault.Fault) error
}

// RunSampled executes one sampled estimate of a workload on one
// configuration under the worker pool, memoized like Run. The §6
// scheduling pass is incompatible with sampling (the reschedule operates on
// the live trace the sampled mode never materialises end-to-end) and is
// rejected, never silently ignored.
//
// Estimates are shared between hits and must be treated as read-only.
func (r *Runner) RunSampled(ctx context.Context, cfg core.Config, w *workloads.Workload, opts Options, p sample.Params) (*sample.Report, error) {
	if opts.Scheduled {
		return nil, errors.New("harness: sampled mode does not support the scheduled trace pass")
	}
	cfg = applyBPred(cfg, opts)
	p = p.Normalize()
	opts.Budget = effectiveBudget(w, opts)
	key := jobKey{
		config:   cfg.Fingerprint(),
		workload: w.Name,
		budget:   opts.Budget,
		sample:   p.Key(),
	}
	t := task[*sample.Report]{key: key, job: jobOf(cfg, key.config, key.workload, false)}
	if ss, ok := r.Store.(SampledStore); ok {
		t.store = sampledStore{ss, key}
	}
	t.simulate = func(jctx context.Context) (*sample.Report, uint64, error) {
		return runSampled(jctx, r.checkpoints(), cfg, w, opts.Budget, p, t.job)
	}
	return t.memoize(ctx, r)
}

// sampledStore is a SampledStore bound to one job's coordinates.
type sampledStore struct {
	st  SampledStore
	key jobKey
}

func (s sampledStore) Lookup() (*sample.Report, *simfault.Fault, bool) {
	return s.st.LookupSampled(s.key.config, s.key.workload, s.key.budget, s.key.sample)
}

func (s sampledStore) Save(rep *sample.Report, f *simfault.Fault) error {
	return s.st.SaveSampled(s.key.config, s.key.workload, s.key.budget, s.key.sample, rep, f)
}

// checkpoints returns the runner's checkpoint cache, creating it on first
// use: all configurations of a sweep share one functional pass per
// (workload, layout, budget).
func (r *Runner) checkpoints() *sample.CheckpointCache {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cpCache == nil {
		r.cpCache = sample.NewCheckpointCache()
	}
	return r.cpCache
}

// runSampled is the sampled fault boundary, for Runner jobs and the root
// API alike: a panic inside the VM capture or the replayed timing core
// comes back as a typed *simfault.Fault. cycles reports how far the replay
// core got, for the fault and for deadline annotation.
func runSampled(ctx context.Context, cache *sample.CheckpointCache, cfg core.Config, w *workloads.Workload, budget uint64, p sample.Params, job simfault.Job) (rep *sample.Report, cycles uint64, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			rep, err = nil, simfault.FromPanic(rec, job, cycles, debug.Stack())
		}
	}()
	cp, err := cache.Get(ctx, w, budget, p)
	if err != nil {
		return nil, 0, err
	}
	rep, err = cp.RunCounted(ctx, cfg, budget, p, &cycles)
	if err != nil {
		return nil, cycles, fmt.Errorf("harness: %s on %s (sampled): %w", w.Name, cfg.Name, err)
	}
	return rep, cycles, nil
}

// SimulateSampled runs one sampled estimate outside any Runner, on a
// private checkpoint, under the same fault boundary. budget 0 selects the
// workload's default budget. It is the root API's RunSampledContext path.
func SimulateSampled(ctx context.Context, cfg core.Config, w *workloads.Workload, budget uint64, p sample.Params) (*sample.Report, error) {
	job := jobOf(cfg, cfg.Fingerprint(), w.Name, false)
	budget = effectiveBudget(w, Options{Budget: budget})
	rep, _, err := runSampled(ctx, sample.NewCheckpointCache(), cfg, w, budget, p.Normalize(), job)
	return rep, err
}

// SampledCell is one (model, workload) estimate of a sampled sweep. A
// faulted cell has Fault set and a nil Report, mirroring BenchCPI.
type SampledCell struct {
	Model  string
	Bench  string
	Report *sample.Report
	Fault  *simfault.Fault
}

// SampledSweepResult is the sampled counterpart of the paper's CPI tables:
// every Table 1 model (plus point E) crossed with every workload, each cell
// an estimated CPI with its confidence bound. All cells of one workload
// share a single captured functional pass through the runner's checkpoint
// cache, which is where sampling's sweep-scale speedup comes from.
type SampledSweepResult struct {
	Params  sample.Params
	Models  []string
	Benches []string
	// Cells is model-major: Cells[i][j] estimates Models[i] on Benches[j].
	Cells [][]SampledCell
}

// SampledSweep estimates the full models x workloads grid in sampled mode
// through the runner. Fault policy matches the exact sweeps: keep-going
// marks the cell, fail-fast aborts.
func SampledSweep(ctx context.Context, r *Runner, opts Options, p sample.Params) (*SampledSweepResult, error) {
	p = p.Normalize()
	models := append(core.Models(), core.RecommendedE())
	benches := workloads.Names()
	res := &SampledSweepResult{Params: p, Benches: benches}
	for _, m := range models {
		res.Models = append(res.Models, m.Name)
	}
	flat, err := each(ctx, opts, len(models)*len(benches), func(ctx context.Context, i int) (SampledCell, error) {
		cfg := models[i/len(benches)]
		w, err := workloads.Get(benches[i%len(benches)])
		if err != nil {
			return SampledCell{}, err
		}
		cell := SampledCell{Model: cfg.Name, Bench: w.Name}
		rep, err := r.RunSampled(ctx, cfg, w, opts, p)
		f, err := faultCell(opts, err)
		if err != nil {
			return SampledCell{}, err
		}
		cell.Report, cell.Fault = rep, f
		return cell, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range models {
		res.Cells = append(res.Cells, flat[i*len(benches):(i+1)*len(benches)])
	}
	return res, nil
}
