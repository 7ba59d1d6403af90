package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if reg.Counter("c") != c {
		t.Error("Counter is not get-or-create")
	}
	g := reg.Gauge("g")
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 7 {
		t.Errorf("gauge value/max = %d/%d, want 3/7", g.Value(), g.Max())
	}
}

func TestNilInstrumentsNoOp(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Trace
	var rec *Recorder
	var reg *Registry
	c.Inc()
	c.Add(2)
	g.Set(1)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	tr.StartSpan("x").End()
	rec.StateCreated()
	rec.StateExpanded()
	rec.CacheHit()
	rec.CacheMiss()
	rec.CheckObserved(time.Millisecond)
	rec.OpenList(9)
	rec.PlanCompleted()
	rec.PlanInterrupted()
	rec.Retry()
	rec.Replan()
	rec.BoundaryViolation()
	rec.Span("x").End()
	if rec.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	if reg.Counter("x") != nil || reg.Gauge("x") != nil || reg.Histogram("x", nil) != nil || reg.Trace("x", 0) != nil {
		t.Error("nil registry should hand out nil instruments")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil instruments should read zero")
	}
	if s := reg.Snapshot(); s.Counters != nil {
		t.Error("nil registry snapshot should be zero")
	}
}

func TestHistogram(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 2, 3, 50, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 1055.5 {
		t.Errorf("sum = %v", got)
	}
	s := h.snapshot()
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.Overflow)
	}
	wantBuckets := map[float64]int64{1: 1, 10: 2, 100: 1}
	for _, b := range s.Buckets {
		if wantBuckets[b.LE] != b.Count {
			t.Errorf("bucket le=%v count=%d, want %d", b.LE, b.Count, wantBuckets[b.LE])
		}
	}
	// Median of {0.5, 2, 3, 50, 1000} falls in the (1,10] bucket.
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("p50 = %v, want 10", got)
	}
	// p99 lands in overflow, reported as the largest finite bound.
	if got := h.Quantile(0.99); got != 100 {
		t.Errorf("p99 = %v, want 100", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if got := h.Sum(); got != 12000 {
		t.Errorf("sum = %v, want 12000", got)
	}
}

func TestTraceRingEviction(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 6; i++ {
		tr.StartSpan("s").End()
	}
	if got := len(tr.Events()); got != 4 {
		t.Errorf("ring retains %d events, want 4", got)
	}
	st := tr.SpanStats()["s"]
	if st.Count != 6 {
		t.Errorf("aggregate count = %d, want 6 (must survive eviction)", st.Count)
	}
	if st.Total < st.Max {
		t.Errorf("total %v < max %v", st.Total, st.Max)
	}
}

func TestRecorderAndSnapshot(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg)
	rec.StateCreated()
	rec.StateCreated()
	rec.StateExpanded()
	rec.CacheHit()
	rec.CacheHit()
	rec.CacheHit()
	rec.CacheMiss()
	rec.CheckObserved(2 * time.Millisecond)
	rec.OpenList(42)
	sp := rec.Span("astar.run")
	rec.Span("check").End()
	sp.End()

	s := reg.Snapshot()
	if s.Counters[MetricStatesCreated] != 2 || s.Counters[MetricStatesExpanded] != 1 {
		t.Errorf("state counters: %+v", s.Counters)
	}
	if s.Counters[MetricChecks] != 1 {
		t.Errorf("checks = %d, want 1", s.Counters[MetricChecks])
	}
	if s.Counters[MetricCacheHits] != 3 || s.Counters[MetricCacheMisses] != 1 {
		t.Errorf("cache counters: %+v", s.Counters)
	}
	if got := s.Derived[MetricCacheHitRate]; got != 0.75 {
		t.Errorf("cache hit rate = %v, want 0.75", got)
	}
	if s.Gauges[MetricOpenListSize].Value != 42 {
		t.Errorf("open list gauge: %+v", s.Gauges[MetricOpenListSize])
	}
	if h := s.Histograms[MetricCheckLatency]; h.Count != 1 || len(h.Buckets) == 0 {
		t.Errorf("check latency histogram: %+v", h)
	}
	if s.Spans[TraceName+".astar.run"].Count != 1 || s.Spans[TraceName+".check"].Count != 1 {
		t.Errorf("spans: %+v", s.Spans)
	}

	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if round.Counters[MetricCacheHits] != 3 {
		t.Errorf("round-tripped snapshot: %+v", round.Counters)
	}
}

func TestDebugHandler(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg)
	rec.StateCreated()
	reg.PublishExpvar("klotski-test")
	reg.PublishExpvar("klotski-test") // duplicate publish must not panic

	srv := httptest.NewServer(reg.DebugHandler())
	defer srv.Close()

	for path, want := range map[string]string{
		"/debug/vars":   "klotski-test",
		"/":             MetricStatesCreated,
		"/debug/pprof/": "goroutine",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(body.String(), want) {
			t.Errorf("GET %s: body missing %q", path, want)
		}
	}
}

func TestDefaultRegistryIsProcessWide(t *testing.T) {
	if Default() == nil || Default() != Default() {
		t.Fatal("Default must return a stable process-wide registry")
	}
	rec := NewRecorder(nil)
	if rec.Registry() != Default() {
		t.Error("NewRecorder(nil) must publish into the default registry")
	}
}
