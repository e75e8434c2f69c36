package main

import (
	"strconv"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/harness"
	"aurora/internal/obs"
	"aurora/internal/resultstore"
	"aurora/internal/sample"
	"aurora/internal/simfault"
)

// hooks watches Runners through the two seams the harness offers: it is the
// Runner's Store (wrapping a resultstore.Store, or answering every lookup
// with a miss when there is none) and its Observe factory, which the runner
// calls once a job holds a worker-pool slot. From these it opens the
// "core.simulate" span of a job (admission to answer) and times each
// Store.Get and Store.Put. For the Explorer, whose calls into the Runner are
// not the benchmark's own, it also yields a cell's service time: from
// admission to the answer handed to Store.Put.
type hooks struct {
	tr   *tracer
	st   *resultstore.Store
	root int // parent for spans of calls the benchmark did not make itself

	mu     sync.Mutex
	calls  map[string]callSpan // caller-side Runner.Run spans, by job key
	sims   map[string]simSpan  // open core.simulate spans, by job key
	free   []int               // free hook tracks
	tracks int
	lat    []float64 // service times, ms
	gets   []float64 // Store.Get latencies, µs
	puts   []float64 // Store.Put latencies, µs
}

type callSpan struct{ span, track int }

type simSpan struct {
	span, track int
	owned       bool // the track was taken from the hook pool
	start       time.Time
}

// firstHookTrack numbers hook tracks after the callers' tracks.
const firstHookTrack = 100

func newHooks(tr *tracer, st *resultstore.Store, root int) *hooks {
	return &hooks{
		tr: tr, st: st, root: root,
		calls: map[string]callSpan{},
		sims:  map[string]simSpan{},
	}
}

// attach makes h the runner's Store (when it wraps one) and Observe hook.
func (h *hooks) attach(r *harness.Runner) {
	if h.st != nil {
		r.Store = h
	}
	r.Observe = h.observe
}

func jobKey(fingerprint, workload string, budget uint64) string {
	return fingerprint + "\x00" + workload + "\x00" + strconv.FormatUint(budget, 10)
}

// enter registers the caller's open Runner.Run span for a job so the
// runner-side spans of that job nest under it; leave undoes it and closes
// the job's simulate span if no Store.Put closed it first.
func (h *hooks) enter(key string, span, track int) {
	h.mu.Lock()
	h.calls[key] = callSpan{span, track}
	h.mu.Unlock()
}

func (h *hooks) leave(key string) {
	h.mu.Lock()
	delete(h.calls, key)
	h.mu.Unlock()
	if s, ok := h.close(key); ok {
		h.release(s.track, s.owned)
	}
}

// place returns where a span of job key goes: under the caller's span on
// its track, or under root on a track of the hook pool (owned=true).
func (h *hooks) place(key string) (parent, track int, owned bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c, ok := h.calls[key]; ok {
		return c.span, c.track, false
	}
	if n := len(h.free); n > 0 {
		track = h.free[n-1]
		h.free = h.free[:n-1]
	} else {
		track = firstHookTrack + h.tracks
		h.tracks++
	}
	return h.root, track, true
}

func (h *hooks) release(track int, owned bool) {
	if owned {
		h.mu.Lock()
		h.free = append(h.free, track)
		h.mu.Unlock()
	}
}

func (h *hooks) observe(j harness.JobInfo) obs.Sink {
	h.open(jobKey(j.Fingerprint, j.Workload, j.Budget), "core.simulate "+j.Workload+"/"+j.ConfigName, "sim")
	return nil // no sink: the job runs on the zero-cost unobserved path
}

// open starts the runner-side span of job key.
func (h *hooks) open(key, name, layer string) {
	parent, track, owned := h.place(key)
	s := simSpan{track: track, owned: owned, start: time.Now()}
	s.span = h.tr.begin(name, layer, track, parent)
	h.mu.Lock()
	h.sims[key] = s
	h.mu.Unlock()
}

// close ends the runner-side span of job key, if one is open.
func (h *hooks) close(key string) (simSpan, bool) {
	h.mu.Lock()
	s, ok := h.sims[key]
	delete(h.sims, key)
	h.mu.Unlock()
	if ok {
		h.tr.end(s.span)
	}
	return s, ok
}

// Lookup implements harness.Store around the wrapped store.
func (h *hooks) Lookup(fingerprint, workload string, budget uint64, scheduled bool) (*core.Report, *simfault.Fault, bool) {
	parent, track, owned := h.place(jobKey(fingerprint, workload, budget))
	id := h.tr.begin("resultstore.Get "+workload, "resultstore", track, parent)
	t0 := time.Now()
	rep, f, ok := h.st.Lookup(fingerprint, workload, budget, scheduled)
	d := time.Since(t0)
	h.tr.end(id)
	h.release(track, owned)
	h.mu.Lock()
	h.gets = append(h.gets, float64(d)/1e3)
	h.mu.Unlock()
	return rep, f, ok
}

// Save implements harness.Store. The Runner persists right after the job's
// simulation returns, so the simulate span and the service time end here,
// before the timed Put.
func (h *hooks) Save(fingerprint, workload string, budget uint64, scheduled bool, rep *core.Report, f *simfault.Fault) error {
	key := jobKey(fingerprint, workload, budget)
	s, ok := h.close(key)
	if ok {
		h.mu.Lock()
		h.lat = append(h.lat, ms(time.Since(s.start)))
		h.mu.Unlock()
	}
	parent, track := h.root, firstHookTrack
	if c, caller := h.callSpan(key); caller {
		parent, track = c.span, c.track
	} else if ok {
		track = s.track
	}
	id := h.tr.begin("resultstore.Put "+workload, "resultstore", track, parent)
	t0 := time.Now()
	err := h.st.Save(fingerprint, workload, budget, scheduled, rep, f)
	d := time.Since(t0)
	h.tr.end(id)
	h.mu.Lock()
	h.puts = append(h.puts, float64(d)/1e3)
	h.mu.Unlock()
	if ok {
		h.release(s.track, s.owned)
	}
	return err
}

func (h *hooks) callSpan(key string) (callSpan, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.calls[key]
	return c, ok
}

// sampledSeam stands in for a store on a traced sampled pass. It stores
// nothing: every lookup misses and every save is dropped. It exists because
// a sampled job's store calls are the only seam around its checkpoint
// capture and window replay, so its "sample.estimate" span runs from the
// lookup's miss to the save.
type sampledSeam struct{ h *hooks }

func (sampledSeam) Lookup(string, string, uint64, bool) (*core.Report, *simfault.Fault, bool) {
	return nil, nil, false
}

func (sampledSeam) Save(string, string, uint64, bool, *core.Report, *simfault.Fault) error {
	return nil
}

func (s sampledSeam) LookupSampled(fingerprint, workload string, budget uint64, _ string) (*sample.Report, *simfault.Fault, bool) {
	s.h.open(jobKey(fingerprint, workload, budget), "sample.estimate "+workload, "sample")
	return nil, nil, false
}

func (s sampledSeam) SaveSampled(fingerprint, workload string, budget uint64, _ string, _ *sample.Report, _ *simfault.Fault) error {
	s.h.close(jobKey(fingerprint, workload, budget))
	return nil
}
