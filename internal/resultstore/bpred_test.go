package resultstore

import (
	"testing"

	"aurora/internal/bpred"
	"aurora/internal/core"
)

// bpredKey builds an exact-result key for the baseline machine carrying the
// given predictor spec.
func bpredKey(t *testing.T, spec, version string) Key {
	t.Helper()
	bp, err := bpred.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return Key{
		Fingerprint: core.Baseline().WithBPred(bp).Fingerprint(),
		Workload:    "espresso",
		Budget:      250_000,
		CodeVersion: version,
	}
}

// TestBPredAddressSeparation: configurations differing only in the branch
// predictor must land at distinct content addresses — for exact and for
// sampled entries — and must never answer each other's lookups.
func TestBPredAddressSeparation(t *testing.T) {
	specs := []string{"folding", "static", "bimodal", "bimodal:entries=512",
		"gshare", "gshare:penalty=3", "tage"}
	seen := map[string]string{}
	for _, spec := range specs {
		k := bpredKey(t, spec, "v")
		if prev, dup := seen[k.hash()]; dup {
			t.Errorf("predictors %q and %q share a content address", prev, spec)
		}
		seen[k.hash()] = spec

		// The sampled twin of the same key is a further distinct address.
		sk := k
		sk.Sample = "w1000/k10/s1"
		if _, dup := seen[sk.hash()]; dup {
			t.Errorf("sampled key for %q collides with an exact address", spec)
		}
		seen[sk.hash()] = spec + "+sampled"
	}

	// No crosstalk through the store: a predictor entry must not answer the
	// default key, nor the reverse.
	s := mustOpen(t, t.TempDir(), "v")
	def, gs := bpredKey(t, "folding", "v"), bpredKey(t, "gshare", "v")
	if err := s.put(gs, testReport(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.get(def); ok {
		t.Error("default-config lookup served a gshare entry")
	}
	if err := s.put(def, testReport(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if e, ok := s.get(gs); !ok || e.Report == nil {
		t.Error("gshare entry lost after writing the default entry")
	}
}

// TestBPredDefaultKeysUnchanged: a store populated before the predictor axis
// existed keeps serving. The pre-axis writer is modelled by a handle whose
// keys carry the pinned v1 fingerprint (what Fingerprint returned before the
// axis: no bpred suffix); today's default Baseline must read those entries
// back verbatim.
func TestBPredDefaultKeysUnchanged(t *testing.T) {
	dir := t.TempDir()
	old := mustOpen(t, dir, "v-test")

	// The old writer never knew about BPred: its fingerprint is today's
	// default fingerprint only if the default truly kept its identity.
	oldKey := testKey("v-test")
	if err := old.put(oldKey, testReport(), nil, nil); err != nil {
		t.Fatal(err)
	}

	cur := mustOpen(t, dir, "v-test")
	k := bpredKey(t, "folding", "v-test")
	k.Budget = oldKey.Budget
	if k != oldKey {
		t.Fatalf("default-predictor key drifted from the pre-axis key:\nnew %+v\nold %+v", k, oldKey)
	}
	e, ok := cur.get(k)
	if !ok || e.Report == nil {
		t.Fatalf("pre-axis entry not served to the default config: ok=%v", ok)
	}
	if got := e.Report; *got != *testReport() {
		t.Errorf("pre-axis entry corrupted on readback:\ngot  %+v\nwant %+v", got, testReport())
	}
}
