// Package obs is the planner observability layer: allocation-conscious
// typed instruments (counters, gauges, histograms), a process-wide registry
// with JSON-snapshot and expvar export, and a ring-buffered trace of
// hierarchical spans (plan → expand → check → eval).
//
// The hot-path entry point is Recorder: a typed façade over pre-resolved
// instruments whose every method is safe on a nil receiver. Planners carry
// a *Recorder (usually nil); when observability is off the per-event cost
// is a single nil check, so the search kernel pays nothing for the
// instrumentation it does not use. All instruments are safe for concurrent
// use — updates are atomic, so concurrent plans and a live /debug/vars
// reader never race one another.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (e.g. open-list size).
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set records the current value, tracking the high-water mark. Safe on a
// nil receiver (no-op).
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
	g.raiseMax(n)
}

// Add moves the value by delta, tracking the high-water mark. Concurrent
// Adds never lose one another, as a Set computed from a stale read would.
// Safe on a nil receiver (no-op).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.raiseMax(g.v.Add(delta))
}

func (g *Gauge) raiseMax(n int64) {
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Value returns the last set value; 0 on a nil receiver.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the high-water mark; 0 on a nil receiver.
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// Histogram is a fixed-bucket cumulative-free histogram: observation i
// lands in the first bucket whose upper bound is ≥ i, or in the overflow
// bucket. Bounds are set at creation and never change, so Observe is a
// binary search plus one atomic add.
type Histogram struct {
	bounds []float64 // ascending upper bounds; overflow bucket is implicit
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// TimeBuckets is the default latency bucket layout: 1µs to 10s in a
// 1-2.5-5 progression, in seconds.
var TimeBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
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

// ObserveDuration records a duration sample in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations; 0 on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations; 0 on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (q in [0, 1]) as the upper bound of
// the bucket where the cumulative count crosses q·N. Overflow observations
// report the largest finite bound. Returns 0 with no observations or on a
// nil receiver.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1]
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

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
	for i, b := range h.bounds {
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, BucketCount{LE: b, Count: c})
		}
	}
	s.Overflow = h.counts[len(h.bounds)].Load()
	return s
}

// Registry is a process-wide namespace of instruments. Get-or-create
// accessors make registration idempotent: two subsystems asking for the
// same name share the instrument. The zero-value methods are safe on a nil
// receiver and return nil instruments, which in turn no-op — so an
// entirely unconfigured observability stack costs only nil checks.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	derived  map[string]func() float64
	traces   map[string]*Trace
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		derived:  make(map[string]func() float64),
		traces:   make(map[string]*Trace),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by the CLI's -stats-out
// and -debug-addr exports.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds if needed (nil bounds selects TimeBuckets). Bounds of an existing
// histogram are not changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		if bounds == nil {
			bounds = TimeBuckets
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Derived registers a named value computed at snapshot time — ratios and
// rates over other instruments (e.g. cache hit rate). Re-registering a
// name replaces the function.
func (r *Registry) Derived(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.derived[name] = fn
}

// Trace returns the named trace stream, creating it with the given ring
// capacity if needed (capacity ≤ 0 selects 4096).
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

// Snapshot captures every instrument. Safe on a nil receiver (returns the
// zero snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Counters = make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	s.Gauges = make(map[string]GaugeSnapshot, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	s.Derived = make(map[string]float64, len(r.derived))
	for name, fn := range r.derived {
		if v := fn(); !math.IsNaN(v) && !math.IsInf(v, 0) {
			s.Derived[name] = v
		}
	}
	s.Spans = make(map[string]SpanStat)
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
