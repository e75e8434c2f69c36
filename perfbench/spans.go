package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The span recorder of the traced pass. Spans are recorded only by this
// benchmark, around its calls into the program's layers and at the hooks the
// program offers (Runner.Observe, Runner.Store); the program itself is not
// instrumented. Spans stay in memory and are written once, at the end, as
// Chrome-trace JSON that Perfetto (ui.perfetto.dev) and chrome://tracing load.

// span is one timed call into a layer. Parent is the index of the enclosing
// span, or -1 for a root.
type span struct {
	Name   string
	Layer  string
	Track  int
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Parent int
}

// tracer records spans. A nil *tracer records nothing, so untraced passes
// call the same code at the cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, track, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Track: track, Start: now, End: -1, Parent: parent})
	return len(t.spans) - 1
}

// end closes span id; closing an already closed span or id -1 is a no-op.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.spans[id].End < 0 {
		t.spans[id].End = now
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// covered returns the total length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			cur, open = iv, true
		case iv.lo <= cur.hi:
			cur.hi = max(cur.hi, iv.hi)
		default:
			total += cur.hi - cur.lo
			cur = iv
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children that ran concurrently
// (the two callers, or the Explorer's fan-out) are merged, so overlapping
// children are not subtracted twice.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start - covered(kids[i], s.Start, s.End)
	}
	return self
}

// layerSelf sums self time by layer over the spans whose root keep
// accepts. A parent always begins, and so is recorded, before its children.
func layerSelf(spans []span, keep func(root span) bool) map[string]time.Duration {
	root := make([]int, len(spans))
	out := map[string]time.Duration{}
	for i, d := range selfTimes(spans) {
		root[i] = i
		if p := spans[i].Parent; p >= 0 {
			root[i] = root[p]
		}
		if keep(spans[root[i]]) {
			out[spans[i].Layer] += d
		}
	}
	return out
}

// coverage returns the share of the roots' wall time that their direct
// children cover — how much of the traced run the layer spans account for.
func coverage(spans []span) float64 {
	kids := make([][]interval, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	var wall, cov time.Duration
	for i, s := range spans {
		if s.Parent < 0 {
			wall += s.End - s.Start
			cov += covered(kids[i], s.Start, s.End)
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(cov) / float64(wall)
}

// writeChromeTrace writes spans as complete ("X") Chrome-trace events, one
// thread track per caller or hook slot, layer as the category.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: s.Track,
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
