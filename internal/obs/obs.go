// Package obs is the planner observability layer: a declared table of
// instruments (counters, gauges, histograms and derived values), a registry
// that holds one of each with a JSON-snapshot export, and a ring-buffered
// trace of hierarchical spans (plan → expand → check → eval).
//
// The hot-path entry point is Recorder, whose generic Add, Set and Observe
// take an Instrument ID from the table (recorder.go). Planners carry a
// *Recorder (usually nil); when observability is off the per-event cost is
// a single nil check, so the search kernel pays nothing for the
// instrumentation it does not use. Updates are atomic, so concurrent plans
// and a live snapshot reader never race one another.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind is what an instrument records, and the Snapshot map it appears in.
type Kind uint8

const (
	// KindCounter is a monotone total, moved by Add.
	KindCounter Kind = iota
	// KindGauge is a last value and its high-water mark, moved by Set or Add.
	KindGauge
	// KindHistogram is a latency distribution, fed by Observe.
	KindHistogram
	// KindDerived is a float computed at snapshot time, or the last value
	// given to Set.
	KindDerived
)

func (k Kind) String() string {
	return [...]string{"counter", "gauge", "histogram", "derived"}[k]
}

// histogram is a fixed-bucket cumulative-free histogram: observation i
// lands in the first bucket whose upper bound is ≥ i, or in the overflow
// bucket. Bounds are set at creation and never change, so observe is a
// binary search plus one atomic add.
type histogram struct {
	bounds []float64 // ascending upper bounds; overflow bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// timeBuckets is the latency bucket layout: 1µs to 10s in a 1-2.5-5
// progression, in seconds.
var timeBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// observe records one sample.
func (h *histogram) observe(v float64) {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// quantile estimates the q-quantile (q in [0, 1]) as the upper bound of
// the bucket where the cumulative count crosses q·N. Overflow observations
// report the largest finite bound. Returns 0 with no observations.
func (h *histogram) quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := max(int64(math.Ceil(q*float64(n))), 1)
	cum := int64(0)
	for i := range h.bounds {
		cum += h.counts[i].Load()
		if cum >= target {
			return h.bounds[i]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// BucketCount is one histogram bucket in a snapshot.
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is the JSON-friendly state of a histogram. Overflow is
// the count above the largest finite bound (JSON has no +Inf).
type HistogramSnapshot struct {
	Count    int64         `json:"count"`
	Sum      float64       `json:"sum"`
	P50      float64       `json:"p50"`
	P90      float64       `json:"p90"`
	P99      float64       `json:"p99"`
	Buckets  []BucketCount `json:"buckets,omitempty"`
	Overflow int64         `json:"overflow,omitempty"`
}

func (h *histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sum.Load()),
		P50:   h.quantile(0.50),
		P90:   h.quantile(0.90),
		P99:   h.quantile(0.99),
	}
	for i, b := range h.bounds {
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, BucketCount{LE: b, Count: c})
		}
	}
	s.Overflow = h.counts[len(h.bounds)].Load()
	return s
}

// cell is one declared instrument's storage in a registry.
type cell struct {
	v   atomic.Int64 // counter total, gauge value, or a set derived value's float64 bits
	max atomic.Int64 // gauge high-water mark
	h   *histogram
}

func (c *cell) raiseMax(n int64) {
	for {
		m := c.max.Load()
		if n <= m || c.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Registry holds one cell for every declared instrument, so every
// recorder on it shares them, and the named trace streams. Snapshot walks
// the table.
type Registry struct {
	cells [NumInstruments]cell

	mu     sync.Mutex
	traces map[string]*Trace
}

// NewRegistry returns a registry with every declared instrument at zero.
func NewRegistry() *Registry {
	r := &Registry{traces: make(map[string]*Trace)}
	for id, d := range table {
		if d.kind == KindHistogram {
			r.cells[id].h = newHistogram(d.bounds)
		}
	}
	return r
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the CLI's -stats-out export
// writes.
func Default() *Registry { return defaultRegistry }

// Trace returns the named trace stream, creating it with the given ring
// capacity if needed (capacity ≤ 0 selects 4096). A nil registry returns a
// nil trace, whose spans no-op.
func (r *Registry) Trace(name string, capacity int) *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.traces[name]
	if !ok {
		t = NewTrace(capacity)
		r.traces[name] = t
	}
	return t
}

// Snapshot is a point-in-time JSON-marshalable export of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Derived    map[string]float64           `json:"derived,omitempty"`
	Spans      map[string]SpanStat          `json:"spans,omitempty"`
}

// GaugeSnapshot is the last value and high-water mark of a gauge.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot captures every declared instrument under its kind, and every
// trace's span aggregates. Safe on a nil receiver (returns the zero
// snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.Counters = make(map[string]int64)
	s.Gauges = make(map[string]GaugeSnapshot)
	s.Histograms = make(map[string]HistogramSnapshot)
	s.Derived = make(map[string]float64)
	for id, d := range table {
		c := &r.cells[id]
		switch d.kind {
		case KindCounter:
			s.Counters[d.name] = c.v.Load()
		case KindGauge:
			s.Gauges[d.name] = GaugeSnapshot{Value: c.v.Load(), Max: c.max.Load()}
		case KindHistogram:
			s.Histograms[d.name] = c.h.snapshot()
		case KindDerived:
			v := math.Float64frombits(uint64(c.v.Load()))
			if d.derive != nil {
				v = d.derive(r)
			}
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				s.Derived[d.name] = v
			}
		}
	}
	s.Spans = make(map[string]SpanStat)
	r.mu.Lock()
	defer r.mu.Unlock()
	for tname, t := range r.traces {
		for sname, st := range t.SpanStats() {
			s.Spans[tname+"."+sname] = st
		}
	}
	return s
}

// WriteJSON writes an indented JSON snapshot of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r.Snapshot()); err != nil {
		return fmt.Errorf("obs: encoding snapshot: %w", err)
	}
	return nil
}
