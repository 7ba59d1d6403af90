package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's public function. Times are nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the span that caused this one, -1 for an op's root
	Op     int    `json:"op"`     // spans of one op share this identifier
}

// tracer collects spans in memory; they are written out when the run ends.
// A nil tracer records nothing, so the untraced replay runs the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its index, or -1 on a nil tracer.
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover. Children may overlap each other (concurrent
// calls) and are clipped to the parent.
func selfTimes(spans []span) []int64 {
	type iv struct{ lo, hi int64 }
	children := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := children[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, edge := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.lo, edge), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// selfByName reduces a trace to one self time per span name: for each op
// the self times of equally named spans are summed, and the fastest op
// gives the figure. Seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	perOp := make(map[string]map[int]int64)
	for i, s := range spans {
		if perOp[s.Name] == nil {
			perOp[s.Name] = make(map[int]int64)
		}
		perOp[s.Name][s.Op] += self[i]
	}
	out := make(map[string]float64, len(perOp))
	for name, ops := range perOp {
		xs := make([]float64, 0, len(ops))
		for _, ns := range ops {
			xs = append(xs, float64(ns)/1e9)
		}
		out[name] = floor(xs)
	}
	return out
}

// durations returns the duration, in seconds, of every span of that name.
func durations(spans []span, name string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.End-s.Start)/1e9)
		}
	}
	return xs
}

// coverage is the share of the root spans' time that their descendants'
// spans account for: 1 − Σ root self / Σ root duration.
func coverage(spans []span) float64 {
	self := selfTimes(spans)
	var rootSelf, rootDur int64
	for i, s := range spans {
		if s.Parent < 0 {
			rootSelf += self[i]
			rootDur += s.End - s.Start
		}
	}
	if rootDur == 0 {
		return 0
	}
	return 1 - float64(rootSelf)/float64(rootDur)
}
