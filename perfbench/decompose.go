package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"aurora"
	"aurora/internal/core"
	"aurora/internal/harness"
	"aurora/internal/resultstore"
	"aurora/internal/sample"
	"aurora/internal/trace"
)

// The decomposition step of the traced run. A Runner-driven pass runs the
// VM and the timing core interleaved (core pulls records from the VM
// through NextBatch), so its spans cannot separate the two. Here every
// layer is run on its own over the same 60 cells, one call at a time on one
// OS thread, and charged that thread's CPU time:
//
//   - vm: each kernel captured once with Workload.NewMachine + Machine.Run;
//   - core: each cell replayed from the capture with aurora.RunTrace over a
//     batch slice stream, so the core takes the same NextBatch path it takes
//     behind the VM, and must reproduce the exact-sweep cycles bit for bit;
//   - harness: each cell through a fresh Runner and directly through
//     aurora.RunContext, in alternating order; the difference is the
//     Runner's overhead;
//   - sample: each kernel's checkpoint capture and each cell's window replay
//     at sampledBudget;
//   - resultstore: the cells' reports put into fresh stores and read back.

// storeRounds is how many fresh stores the round trip fills and reads, so
// the Get/Put percentiles rest on storeRounds × 60 calls each.
const storeRounds = 20

// batchSlice replays a captured trace through trace.BatchStream.
type batchSlice struct {
	recs []trace.Record
	pos  int
}

func (s *batchSlice) Next() (trace.Record, bool) {
	if s.pos >= len(s.recs) {
		return trace.Record{}, false
	}
	s.pos++
	return s.recs[s.pos-1], true
}

func (s *batchSlice) NextBatch(buf []trace.Record) int {
	n := copy(buf, s.recs[s.pos:])
	s.pos += n
	return n
}

func (s *batchSlice) Err() error { return nil }

// decomp is the decomposition's measurements.
type decomp struct {
	attempted, failed int

	vmCPU   time.Duration
	vmInstr uint64

	coreCPU     time.Duration
	coreInstr   uint64
	cycles      uint64
	modelCPU    map[string]time.Duration
	modelCycles map[string]uint64
	stalls      [core.NumStallCauses]uint64
	icMiss      uint64
	dcMiss      uint64
	wcHits      uint64

	overheadUS []float64 // Runner.Run minus direct run, per cell

	capCPU, replayCPU     time.Duration
	detailed, sampleInstr uint64
	windows               int
	cpiErrPct             []float64
	boundMiss             int

	gets, puts []float64 // µs
	entryBytes float64
	store      resultstore.Stats
}

// measure runs fn and returns the calling thread's CPU time for it.
func measure(fn func()) time.Duration {
	t0 := threadCPU()
	fn()
	return threadCPU() - t0
}

func (b *bench) decompose(tr *tracer) (*decomp, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	root := tr.begin("decompose", "bench", 0, -1)
	defer tr.end(root)
	d := &decomp{modelCPU: map[string]time.Duration{}, modelCycles: map[string]uint64{}}
	check := func(ok bool) {
		d.attempted++
		if !ok {
			d.failed++
		}
	}
	const track = 1
	exact := map[string]*core.Report{}
	for _, name := range aurora.WorkloadNames() {
		w, err := aurora.GetWorkload(name)
		if err != nil {
			return nil, err
		}
		recs := make([]trace.Record, 0, exactBudget)
		var n uint64
		id := tr.begin("vm.capture "+name, "vm", track, root)
		d.vmCPU += measure(func() {
			m, merr := w.NewMachine()
			if merr != nil {
				err = merr
				return
			}
			n, err = m.Run(exactBudget, func(r trace.Record) { recs = append(recs, r) })
		})
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("capture %s: %w", name, err)
		}
		d.vmInstr += n
		for i, c := range b.cells {
			if c.w != w {
				continue
			}
			ref := b.refs.Exact[c.key]
			var rep *core.Report
			id := tr.begin("core.replay "+c.key, "core", track, root)
			cpu := measure(func() { rep, err = aurora.RunTraceContext(b.ctx, c.cfg, &batchSlice{recs: recs}) })
			tr.end(id)
			check(err == nil && rep.Instructions == ref.Instructions && rep.Cycles == ref.Cycles)
			if err != nil {
				continue
			}
			exact[c.key] = rep
			d.coreCPU += cpu
			d.coreInstr += rep.Instructions
			d.cycles += rep.Cycles
			d.modelCPU[c.model] += cpu
			d.modelCycles[c.model] += rep.Cycles
			for s, v := range rep.Stalls {
				d.stalls[s] += v
			}
			d.icMiss += rep.ICacheMisses
			d.dcMiss += rep.DCacheMisses
			d.wcHits += rep.WCHits

			viaRunner, direct := b.runnerCell(tr, root, track, c, i%2 == 0, check)
			d.overheadUS = append(d.overheadUS, float64(viaRunner-direct)/1e3)
		}
	}
	if err := b.decomposeSampled(tr, root, track, d, check); err != nil {
		return nil, err
	}
	if err := b.storeRoundTrip(tr, root, track, d, exact, check); err != nil {
		return nil, err
	}
	return d, nil
}

// runnerCell runs one cell through a fresh single-worker Runner and
// directly, in the order runnerFirst gives, and returns each one's CPU time.
func (b *bench) runnerCell(tr *tracer, root, track int, c cell, runnerFirst bool, check func(bool)) (viaRunner, direct time.Duration) {
	ref := b.refs.Exact[c.key]
	viaR := func() {
		r := harness.NewRunner(1)
		h := newHooks(tr, nil, root)
		h.attach(r)
		key := jobKey(c.cfg.Fingerprint(), c.w.Name, exactBudget)
		id := tr.begin("harness.Runner.Run "+c.key, "harness", track, root)
		h.enter(key, id, track)
		var rep *core.Report
		var err error
		viaRunner = measure(func() { rep, err = r.Run(b.ctx, c.cfg, c.w, harness.Options{Budget: exactBudget}) })
		h.leave(key)
		tr.end(id)
		check(err == nil && rep.Instructions == ref.Instructions && rep.Cycles == ref.Cycles)
	}
	dir := func() {
		id := tr.begin("aurora.RunContext "+c.key, "sim", track, root)
		var rep *core.Report
		var err error
		direct = measure(func() { rep, err = aurora.RunContext(b.ctx, c.cfg, c.w, exactBudget) })
		tr.end(id)
		check(err == nil && rep.Instructions == ref.Instructions && rep.Cycles == ref.Cycles)
	}
	if runnerFirst {
		viaR()
		dir()
	} else {
		dir()
		viaR()
	}
	return viaRunner, direct
}

func (b *bench) decomposeSampled(tr *tracer, root, track int, d *decomp, check func(bool)) error {
	p := sample.Params{}.Normalize()
	for _, name := range aurora.WorkloadNames() {
		w, err := aurora.GetWorkload(name)
		if err != nil {
			return err
		}
		var cp *sample.Checkpoint
		id := tr.begin("sample.capture "+name, "sample", track, root)
		d.capCPU += measure(func() { cp, err = sample.NewCheckpoint(b.ctx, w, sampledBudget, p) })
		tr.end(id)
		if err != nil {
			return fmt.Errorf("checkpoint %s: %w", name, err)
		}
		for _, c := range b.cells {
			if c.w != w {
				continue
			}
			var rep *sample.Report
			id := tr.begin("sample.replay "+c.key, "sample", track, root)
			d.replayCPU += measure(func() { rep, err = cp.Run(b.ctx, c.cfg, sampledBudget, p) })
			tr.end(id)
			if err != nil {
				check(false)
				continue
			}
			check(sampledRef{CPI: rep.CPI, CPIError: rep.CPIError, Windows: rep.Windows} == b.refs.Sampled[c.key])
			d.detailed += rep.DetailedInstructions
			d.sampleInstr += rep.Instructions
			d.windows += rep.Windows
			truth := b.refs.ExactAtSampled[c.key]
			exactCPI := float64(truth.Cycles) / float64(truth.Instructions)
			diff := math.Abs(rep.CPI - exactCPI)
			d.cpiErrPct = append(d.cpiErrPct, 100*diff/exactCPI)
			if diff > rep.CPIError {
				d.boundMiss++
			}
		}
	}
	return nil
}

func (b *bench) storeRoundTrip(tr *tracer, root, track int, d *decomp, exact map[string]*core.Report, check func(bool)) error {
	for round := 0; round < storeRounds; round++ {
		dir := filepath.Join(b.work, fmt.Sprintf("roundtrip-%d", round))
		st, err := resultstore.Open(dir)
		if err != nil {
			return err
		}
		for _, c := range b.cells {
			rep := exact[c.key]
			if rep == nil {
				continue
			}
			id := tr.begin("resultstore.Put "+c.key, "resultstore", track, root)
			t0 := time.Now()
			err := st.Save(c.cfg.Fingerprint(), c.w.Name, exactBudget, false, rep, nil)
			d.puts = append(d.puts, float64(time.Since(t0))/1e3)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("store put: %w", err)
			}
		}
		for _, c := range b.cells {
			want := exact[c.key]
			if want == nil {
				continue
			}
			id := tr.begin("resultstore.Get "+c.key, "resultstore", track, root)
			t0 := time.Now()
			got, _, ok := st.Lookup(c.cfg.Fingerprint(), c.w.Name, exactBudget, false)
			d.gets = append(d.gets, float64(time.Since(t0))/1e3)
			tr.end(id)
			check(ok && reflect.DeepEqual(got, want))
		}
		if round == 0 {
			size, files, err := dirSize(dir)
			if err != nil {
				return err
			}
			if files > 0 {
				d.entryBytes = float64(size) / float64(files)
			}
		}
		s := st.Stats()
		d.store.Hits += s.Hits
		d.store.Misses += s.Misses
		d.store.Puts += s.Puts
		d.store.Corrupt += s.Corrupt
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (size int64, files int, err error) {
	err = filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		size += info.Size()
		files++
		return nil
	})
	return size, files, err
}
