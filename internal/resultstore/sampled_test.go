package resultstore

import (
	"strings"
	"testing"

	"aurora/internal/core"
	"aurora/internal/sample"
)

func testSampledReport() *sample.Report {
	p := sample.Params{WarmUp: 20_000, Interval: 10_000, Window: 2_000}.Normalize()
	return &sample.Report{
		Workload:             "espresso",
		Config:               "baseline",
		SampleKey:            p.Key(),
		Params:               p,
		Budget:               250_000,
		Instructions:         250_000,
		DetailedInstructions: 46_000,
		DetailedCycles:       52_000,
		MeasuredInstructions: 23_000,
		MeasuredCycles:       26_000,
		Windows:              23,
		WindowCPI:            []float64{1.1, 1.2, 1.15},
		CPI:                  1.15,
		CPIError:             0.12,
		Confidence:           0.99,
		EstimatedCycles:      287_500,
	}
}

func TestSampledRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v-test")
	want := testSampledReport()
	fp := core.Baseline().Fingerprint()

	if _, _, ok := s.LookupSampled(fp, "espresso", 250_000, want.SampleKey); ok {
		t.Fatal("empty store reported a sampled hit")
	}
	if err := s.SaveSampled(fp, "espresso", 250_000, want.SampleKey, want, nil); err != nil {
		t.Fatal(err)
	}

	got, f, ok := mustOpen(t, dir, "v-test").LookupSampled(fp, "espresso", 250_000, want.SampleKey)
	if !ok || f != nil {
		t.Fatalf("LookupSampled after SaveSampled: ok=%v fault=%v", ok, f)
	}
	if got.CPI != want.CPI || got.CPIError != want.CPIError || got.Windows != want.Windows ||
		got.SampleKey != want.SampleKey || len(got.WindowCPI) != len(want.WindowCPI) {
		t.Errorf("round-tripped sampled report differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSampledNeverAliasesExact is the key-separation contract: the same
// (config, workload, budget) stored both exactly and sampled stays two
// distinct entries, and each read path only ever returns its own kind.
func TestSampledNeverAliasesExact(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v-test")
	fp := core.Baseline().Fingerprint()
	exactKey := Key{Fingerprint: fp, Workload: "espresso", Budget: 250_000, CodeVersion: "v-test"}
	srep := testSampledReport()

	// Only the sampled entry exists: the exact lookup must miss.
	if err := s.SaveSampled(fp, "espresso", 250_000, srep.SampleKey, srep, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.get(exactKey); ok {
		t.Fatal("exact Get returned a sampled entry")
	}

	// Both exist: each lookup returns its own kind.
	if err := s.put(exactKey, testReport(), nil, nil); err != nil {
		t.Fatal(err)
	}
	e, ok := s.get(exactKey)
	if !ok || e.Report == nil || e.Report.Instructions != testReport().Instructions {
		t.Fatalf("exact get after both writes: ok=%v entry=%+v", ok, e)
	}
	got, _, ok := s.LookupSampled(fp, "espresso", 250_000, srep.SampleKey)
	if !ok || got.CPI != srep.CPI {
		t.Fatalf("sampled lookup after both writes: ok=%v rep=%+v", ok, got)
	}

	// Distinct sampling parameters are distinct entries too.
	other := sample.Params{WarmUp: 30_000, Interval: 10_000, Window: 2_000}.Normalize()
	if _, _, ok := s.LookupSampled(fp, "espresso", 250_000, other.Key()); ok {
		t.Fatal("different sampling parameters hit the same entry")
	}
}

// TestSampledKeyRequiredOnBothPaths: the write path refuses a result of the
// wrong kind for its key — an exact report under a sampled key, a sampled
// estimate under an exact one — and a payload that is not exactly one
// result or one fault, so a coding mistake cannot cross the streams
// silently.
func TestSampledKeyRequiredOnBothPaths(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "v-test")
	srep := testSampledReport()

	sampledKey := Key{
		Fingerprint: "fp", Workload: "espresso", Budget: 1,
		Sample: srep.SampleKey, CodeVersion: "v-test",
	}
	if err := s.put(sampledKey, testReport(), nil, nil); err == nil {
		t.Error("put accepted an exact report under a key with a Sample discriminator")
	} else if !strings.Contains(err.Error(), srep.SampleKey) {
		t.Errorf("put error %q does not name the key's kind", err)
	}

	exactKey := Key{Fingerprint: "fp", Workload: "espresso", Budget: 1, CodeVersion: "v-test"}
	if err := s.put(exactKey, nil, srep, nil); err == nil {
		t.Error("put accepted a sampled estimate under a key without a Sample discriminator")
	}
	if err := s.put(sampledKey, nil, srep, panicFault()); err == nil {
		t.Error("put accepted both an estimate and a fault")
	}
	if err := s.put(sampledKey, nil, nil, nil); err == nil {
		t.Error("put accepted neither estimate nor fault")
	}
	if err := s.SaveSampled("fp", "espresso", 1, "", srep, nil); err == nil {
		t.Error("SaveSampled accepted an empty sample key")
	}
	if st := s.Stats(); st.Puts != 0 || st.PutErrors != 5 {
		t.Errorf("stats %+v, want 0 puts / 5 put errors", st)
	}
}

// TestSampledFaultRoundTrip: persistable faults store and return under
// sampled keys like exact ones.
func TestSampledFaultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, "v-test")
	f := panicFault()
	key := testSampledReport().SampleKey

	if err := s.SaveSampled("fp", "espresso", 1_000, key, nil, f); err != nil {
		t.Fatal(err)
	}
	rep, got, ok := mustOpen(t, dir, "v-test").LookupSampled("fp", "espresso", 1_000, key)
	if !ok || rep != nil || got == nil {
		t.Fatalf("fault lookup: ok=%v rep=%v fault=%v", ok, rep, got)
	}
	if got.Subsystem != f.Subsystem || got.Cycle != f.Cycle {
		t.Errorf("round-tripped fault differs: %+v vs %+v", got, f)
	}
}

// TestSampledCodeVersionInvalidates: sampled entries are keyed by code
// version like exact ones — a new simulator build re-estimates.
func TestSampledCodeVersionInvalidates(t *testing.T) {
	dir := t.TempDir()
	old := mustOpen(t, dir, "v-old")
	srep := testSampledReport()
	if err := old.SaveSampled("fp", "espresso", 1_000, srep.SampleKey, srep, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := mustOpen(t, dir, "v-new").LookupSampled("fp", "espresso", 1_000, srep.SampleKey); ok {
		t.Fatal("sampled entry survived a code-version change")
	}
}
