package harness

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/faultinject"
	"aurora/internal/simfault"
	"aurora/internal/workloads"
)

// siteWorkload picks a workload whose instruction mix visits the site: FPU
// sites need floating-point dispatches, which the integer suite never issues.
func siteWorkload(t *testing.T, s faultinject.Site) *workloads.Workload {
	t.Helper()
	suite := workloads.Integer()
	if s.Subsystem() == "fpu" {
		suite = workloads.FP()
	}
	return suite[0]
}

// TestFaultInjectionEverySite arms each guarded panic site in turn and checks
// the runner degrades the job into a typed *simfault.Fault from the matching
// subsystem — the process survives, and the fault carries the job identity.
func TestFaultInjectionEverySite(t *testing.T) {
	defer faultinject.Reset()
	for _, site := range faultinject.Sites() {
		t.Run(site.String(), func(t *testing.T) {
			faultinject.Reset()
			faultinject.Arm(site)
			defer faultinject.Reset()

			r := NewRunner(1)
			w := siteWorkload(t, site)
			rep, err := r.Run(context.Background(), core.Baseline(), w, Options{Budget: 100_000})
			if err == nil {
				t.Fatalf("armed site %s did not fault (report: %v)", site, rep)
			}
			var f *simfault.Fault
			if !errors.As(err, &f) {
				t.Fatalf("armed site %s returned %T, want *simfault.Fault: %v", site, err, err)
			}
			if f.Subsystem != site.Subsystem() {
				t.Errorf("fault subsystem %q, want %q", f.Subsystem, site.Subsystem())
			}
			if f.Workload != w.Name {
				t.Errorf("fault workload %q, want %q", f.Workload, w.Name)
			}
			if f.Fingerprint == "" || f.Config == "" {
				t.Errorf("fault missing job identity: config %q fingerprint %q", f.Config, f.Fingerprint)
			}
			if len(f.Stack) == 0 {
				t.Error("fault has no captured stack")
			}
		})
	}
}

// jobKinds are the two kinds of job the runner schedules through its one
// memo, store and fault path. run submits one job of the kind on cfg and
// reports whether a result came back; the table tests below drive each
// shared runner step under both kinds.
var jobKinds = []struct {
	name string
	run  func(ctx context.Context, r *Runner, cfg core.Config, w *workloads.Workload, opts Options) (bool, error)
}{
	{"exact", func(ctx context.Context, r *Runner, cfg core.Config, w *workloads.Workload, opts Options) (bool, error) {
		rep, err := r.Run(ctx, cfg, w, opts)
		return rep != nil, err
	}},
	{"sampled", func(ctx context.Context, r *Runner, cfg core.Config, w *workloads.Workload, opts Options) (bool, error) {
		rep, err := r.RunSampled(ctx, cfg, w, opts, sampledTestParams())
		return rep != nil, err
	}},
}

// TestFaultMemoNotPoisoned is the regression test for the poisoned-entry bug:
// the earlier sync.Once memo counted a panicking computation as done, so a
// hit on that key read nil, nil — a "successful" run with no report. The
// done-channel design must return the identical *simfault.Fault on the miss
// and on every later hit.
func TestFaultMemoNotPoisoned(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			faultinject.Reset()
			faultinject.Arm(faultinject.LSUDispatch)
			defer faultinject.Reset()

			r := NewRunner(1)
			w := workloads.Integer()[0]
			opts := Options{Budget: 50_000}

			ok1, err1 := k.run(context.Background(), r, core.Baseline(), w, opts)
			ok2, err2 := k.run(context.Background(), r, core.Baseline(), w, opts)
			if ok1 || ok2 {
				t.Fatalf("faulted job produced results: %v, %v", ok1, ok2)
			}
			var f1, f2 *simfault.Fault
			if !errors.As(err1, &f1) {
				t.Fatalf("miss returned %T, want *simfault.Fault: %v", err1, err1)
			}
			if !errors.As(err2, &f2) {
				t.Fatalf("hit returned %T, want *simfault.Fault: %v (memo entry poisoned)", err2, err2)
			}
			if f1 != f2 {
				t.Error("hit returned a distinct fault; the memo entry was recomputed or poisoned")
			}
			if f1.Cycle == 0 {
				t.Error("fault does not name the cycle the timing core reached")
			}
			if st := r.Stats(); st.Misses != 1 || st.Hits != 1 {
				t.Errorf("stats %+v, want 1 miss / 1 hit", st)
			}
		})
	}
}

// TestRunHonorsCancellation: an already-cancelled context returns before
// simulating, a mid-run cancellation interrupts the job, and the cancelled
// attempt is withdrawn from the memo table so a later sweep retries it
// under its own live context.
func TestRunHonorsCancellation(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			r := NewRunner(1)
			w := workloads.Integer()[0]
			opts := Options{Budget: 200_000}

			pre, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := k.run(pre, r, core.Baseline(), w, opts); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
			}

			// Cancel once the attempt owns its memo entry, so the withdrawal
			// path runs rather than the pre-check.
			mid, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := k.run(mid, r, core.Baseline(), w, opts)
				done <- err
			}()
			for memoLen(r) == 0 {
				time.Sleep(50 * time.Microsecond)
			}
			cancel()
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("mid-run cancellation returned %v", err)
				}
				if err != nil && memoLen(r) != 0 {
					t.Fatal("cancelled attempt was not withdrawn from the memo table")
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancelled run did not return")
			}

			// The key must not be poisoned by the withdrawn attempt: a fresh
			// context computes it successfully.
			ok, err := k.run(context.Background(), r, core.Baseline(), w, opts)
			if err != nil || !ok {
				t.Fatalf("retry after cancellation failed: %v", err)
			}
		})
	}
}

func memoLen(r *Runner) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.memo)
}

// TestJobDeadlineBecomesFault: a job that exceeds Runner.JobTimeout while the
// surrounding sweep is alive fails with a typed "deadline" fault — a property
// of the job, memoized like any other — not a bare context error. The fault
// names the cycle the timing core reached: a sampled job's is its replay
// core's, which a first job on another model has already set up by filling
// the shared checkpoint.
func TestJobDeadlineBecomesFault(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			r := NewRunner(1)
			w := workloads.Integer()[0]
			opts := Options{Budget: 200_000}
			if _, err := k.run(context.Background(), r, core.Small(), w, opts); err != nil {
				t.Fatal(err)
			}

			r.JobTimeout = time.Nanosecond
			_, err := k.run(context.Background(), r, core.Baseline(), w, opts)
			var f *simfault.Fault
			if !errors.As(err, &f) {
				t.Fatalf("expired job returned %T, want *simfault.Fault: %v", err, err)
			}
			if f.Subsystem != "deadline" {
				t.Errorf("subsystem %q, want deadline", f.Subsystem)
			}
			if f.Cycle == 0 {
				t.Error("deadline fault does not name the cycle the timing core reached")
			}

			// Memoized: the hit shares the fault instead of re-simulating.
			_, err2 := k.run(context.Background(), r, core.Baseline(), w, opts)
			var f2 *simfault.Fault
			if !errors.As(err2, &f2) || f2 != f {
				t.Errorf("hit returned %v, want the memoized deadline fault", err2)
			}
			if st := r.Stats(); st.Misses != 2 || st.Hits != 1 {
				t.Errorf("stats %+v, want 2 misses / 1 hit", st)
			}
		})
	}
}

// TestKeepGoingSweepCompletes: with a hot-path site armed, a keep-going
// rate-table sweep still completes — every faulted cell is annotated and the
// rendering marks it, instead of the whole study aborting.
func TestKeepGoingSweepCompletes(t *testing.T) {
	faultinject.Reset()
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	r := NewRunner(2)
	tab, err := Table3(context.Background(), r, Quick())
	if err != nil {
		t.Fatalf("keep-going sweep aborted: %v", err)
	}
	if tab.Faults == nil {
		t.Fatal("sweep with an armed site reported no faults")
	}
	var faulted int
	for i, row := range tab.Rows {
		for j, v := range row {
			if f := tab.Faults[i][j]; f != nil {
				faulted++
				if !math.IsNaN(v) {
					t.Errorf("faulted cell %s/%s has value %v, want NaN", tab.Models[i], tab.Benches[j], v)
				}
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no cell faulted under an armed hot-path site")
	}
	var buf bytes.Buffer
	PrintRateTable(&buf, tab)
	if !strings.Contains(buf.String(), "FAULT(ipu@") {
		t.Errorf("rendered table does not mark the faulted cells:\n%s", buf.String())
	}
}

// TestFailFastAbortsSweep: under FailFast the same armed site aborts the
// sweep with the fault as the error instead of a partial table.
func TestFailFastAbortsSweep(t *testing.T) {
	faultinject.Reset()
	faultinject.Arm(faultinject.LSUDispatch)
	defer faultinject.Reset()

	opts := Quick()
	opts.FailFast = true
	_, err := Table3(context.Background(), NewRunner(2), opts)
	var f *simfault.Fault
	if !errors.As(err, &f) {
		t.Fatalf("fail-fast sweep returned %T, want *simfault.Fault: %v", err, err)
	}
}

// TestConcurrentRunRace exercises the memo table under -race: many callers
// race the same faulting job, healthy jobs, and a cancellation. Nothing may
// deadlock, and the pool must be fully released afterwards.
func TestConcurrentRunRace(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name, func(t *testing.T) {
			faultinject.Reset()
			faultinject.Arm(faultinject.LSUDispatch)
			defer faultinject.Reset()

			r := NewRunner(2)
			intg := workloads.Integer()
			opts := Options{Budget: 50_000}
			cctx, cancel := context.WithCancel(context.Background())

			var wg sync.WaitGroup
			for g := 0; g < 16; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx := context.Background()
					if g%4 == 3 {
						ctx = cctx // this quarter races the cancellation below
					}
					_, err := k.run(ctx, r, core.Baseline(), intg[g%3], opts)
					if err == nil {
						t.Error("armed site produced a fault-free run")
						return
					}
					var f *simfault.Fault
					if !errors.As(err, &f) && !canceled(err) {
						t.Errorf("unexpected error type %T: %v", err, err)
					}
				}()
			}
			cancel()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("concurrent callers deadlocked")
			}

			// The semaphore must be fully released: a healthy job still runs.
			faultinject.Reset()
			ok, err := k.run(context.Background(), r, core.Baseline(), intg[0], Options{Budget: 60_000})
			if err != nil || !ok {
				t.Fatalf("runner unusable after the race: %v", err)
			}
		})
	}
}
