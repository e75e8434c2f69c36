package aurora

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"aurora/internal/harness"
)

// Direct tests of the public API surface (the integration tests exercise it
// end to end; these pin the contract details).

func TestModelByName(t *testing.T) {
	for name, icache := range map[string]int{
		"small": 1024, "baseline": 2048, "base": 2048,
		"large": 4096, "pointE": 4096, "e": 4096,
	} {
		cfg, err := ModelByName(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if cfg.ICacheBytes != icache {
			t.Errorf("%s: icache %d want %d", name, cfg.ICacheBytes, icache)
		}
	}
	if _, err := ModelByName("huge"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestWorkloadAccessors(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 15 {
		t.Fatalf("%d workloads", len(names))
	}
	for _, n := range names {
		w, err := GetWorkload(n)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != n {
			t.Errorf("name mismatch %q vs %q", w.Name, n)
		}
	}
	if len(IntegerSuite()) != 6 || len(FPSuite()) != 9 {
		t.Error("suite sizes wrong")
	}
	if IntegerSuite()[0].Name != "espresso" || FPSuite()[0].Name != "alvinn" {
		t.Error("paper table ordering broken")
	}
}

func TestCostAPI(t *testing.T) {
	b, err := Cost(Baseline())
	if err != nil || b != 73084 {
		t.Errorf("baseline cost %d, %v", b, err)
	}
	bad := Baseline()
	bad.ICacheBytes = 999
	if _, err := Cost(bad); err == nil {
		t.Error("invalid icache size accepted")
	}
	if c := FPUCost(DefaultFPU()); c != 14613 {
		t.Errorf("recommended FPU cost %d want 14613", c)
	}
}

func TestDefaultConfigs(t *testing.T) {
	f := DefaultFPU()
	if f.InstrQueue != 5 || f.LoadQueue != 2 || f.ReorderBuffer != 6 ||
		f.AddLatency != 3 || f.MulLatency != 5 || f.DivLatency != 19 {
		t.Errorf("§5.11 FPU defaults wrong: %+v", f)
	}
	m := DefaultMMU()
	if m.TLBEntries != 64 || m.L2Bytes != 512<<10 {
		t.Errorf("MMU defaults wrong: %+v", m)
	}
}

func TestRunScheduledSmoke(t *testing.T) {
	w, err := GetWorkload("sc")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(Baseline(), w, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := RunScheduled(Baseline(), w, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Instructions != base.Instructions {
		t.Errorf("scheduling changed instruction count: %d vs %d",
			sched.Instructions, base.Instructions)
	}
	if float64(sched.Cycles) > 1.05*float64(base.Cycles) {
		t.Errorf("scheduling slowed sc down: %d vs %d cycles", sched.Cycles, base.Cycles)
	}
}

func TestRunUnknownWorkloadPath(t *testing.T) {
	if _, err := GetWorkload("no-such-kernel"); err == nil ||
		!strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("error %v", err)
	}
}

func TestReportExtras(t *testing.T) {
	w, _ := GetWorkload("espresso")
	rep, err := Run(Baseline(), w, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	// §2.3 write validation: the micro-TLB should validate the vast
	// majority of stores for free (hot pages stay resident).
	if rep.WriteValidationRate() < 0.5 {
		t.Errorf("write validation rate %.2f too low", rep.WriteValidationRate())
	}
	if rep.DualIssueRate() <= 0 || rep.DualIssueRate() > 1 {
		t.Errorf("dual issue rate %f", rep.DualIssueRate())
	}
}

// TestRootAPIMatchesRunner pins the one job path: the root API's Run*Context
// functions and the experiment Runner share the trace adapter and the fault
// boundaries, so each returns exactly the other's result — exact, scheduled
// and sampled, on kernels from both suites and on two models.
func TestRootAPIMatchesRunner(t *testing.T) {
	ctx := context.Background()
	const budget = 60_000
	p := SampleParams{WarmUp: 20_000, Interval: 10_000, Window: 2_000}
	r := NewRunner(2)
	for _, name := range []string{"espresso", "compress", "alvinn"} {
		w, err := GetWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{Small(), Baseline()} {
			direct, err := RunContext(ctx, cfg, w, budget)
			if err != nil {
				t.Fatal(err)
			}
			viaRunner, err := r.Run(ctx, cfg, w, harness.Options{Budget: budget})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, viaRunner) {
				t.Errorf("%s/%s: RunContext and Runner.Run differ", name, cfg.Name)
			}

			direct, err = RunScheduledContext(ctx, cfg, w, budget)
			if err != nil {
				t.Fatal(err)
			}
			viaRunner, err = r.Run(ctx, cfg, w, harness.Options{Budget: budget, Scheduled: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(direct, viaRunner) {
				t.Errorf("%s/%s: RunScheduledContext and scheduled Runner.Run differ", name, cfg.Name)
			}

			est, err := RunSampledContext(ctx, cfg, w, budget, p)
			if err != nil {
				t.Fatal(err)
			}
			estRunner, err := r.RunSampled(ctx, cfg, w, harness.Options{Budget: budget}, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(est, estRunner) {
				t.Errorf("%s/%s: RunSampledContext and Runner.RunSampled differ", name, cfg.Name)
			}
		}
	}
}
