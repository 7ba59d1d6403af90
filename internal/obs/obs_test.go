package obs

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	rec := NewRecorder(reg)
	rec.Add(StatesCreated, 1)
	rec.Add(StatesCreated, 4)
	if got := reg.Snapshot().Counters[MetricStatesCreated]; got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	gauge := func() GaugeSnapshot { return reg.Snapshot().Gauges[MetricOpenListSize] }
	rec.Set(OpenListSize, 7)
	rec.Set(OpenListSize, 3)
	if g := gauge(); g.Value != 3 || g.Max != 7 {
		t.Errorf("gauge value/max = %d/%d, want 3/7", g.Value, g.Max)
	}
	rec.Add(OpenListSize, 6)
	rec.Add(OpenListSize, -2)
	if g := gauge(); g.Value != 7 || g.Max != 9 {
		t.Errorf("gauge value/max after Add = %d/%d, want 7/9", g.Value, g.Max)
	}
}

func TestNilInstrumentsNoOp(t *testing.T) {
	var tr *Trace
	var rec *Recorder
	var reg *Registry
	tr.StartSpan("x").End()
	for id := Instrument(0); id < NumInstruments; id++ {
		rec.Add(id, 1)
		rec.Set(id, 1)
		rec.Observe(id, time.Millisecond)
	}
	rec.Span("x").End()
	if rec.Enabled() {
		t.Error("nil recorder reports enabled")
	}
	if reg.Trace("x", 0) != nil {
		t.Error("nil registry should hand out a nil trace")
	}
	if s := reg.Snapshot(); s.Counters != nil {
		t.Error("nil registry snapshot should be zero")
	}
}

func TestHistogram(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 2, 3, 50, 1000} {
		h.observe(v)
	}
	s := h.snapshot()
	if s.Count != 5 {
		t.Errorf("count = %d", s.Count)
	}
	if s.Sum != 1055.5 {
		t.Errorf("sum = %v", s.Sum)
	}
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
	if s.P50 != 10 {
		t.Errorf("p50 = %v, want 10", s.P50)
	}
	// p99 lands in overflow, reported as the largest finite bound.
	if s.P99 != 100 {
		t.Errorf("p99 = %v, want 100", s.P99)
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
				h.observe(1.5)
			}
		}()
	}
	wg.Wait()
	if s := h.snapshot(); s.Count != 8000 || s.Sum != 12000 {
		t.Errorf("count/sum = %d/%v, want 8000/12000", s.Count, s.Sum)
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
	rec.Add(StatesCreated, 2)
	rec.Add(StatesExpanded, 1)
	rec.Add(CacheHits, 3)
	rec.Add(CacheMisses, 1)
	rec.Add(Checks, 1)
	rec.Observe(CheckLatency, 2*time.Millisecond)
	rec.Set(OpenListSize, 42)
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

// TestTwoRecordersShareOptimalityGap holds the gap at registry level: a
// second recorder on the registry must not hide the gap the first set.
func TestTwoRecordersShareOptimalityGap(t *testing.T) {
	reg := NewRegistry()
	a := NewRecorder(reg)
	b := NewRecorder(reg)
	a.Set(OptimalityGap, 0.25)
	if got := reg.Snapshot().Derived[MetricOptimalityGap]; got != 0.25 {
		t.Errorf("gap = %v after a second recorder, want 0.25", got)
	}
	b.Set(OptimalityGap, 0.5)
	if got := reg.Snapshot().Derived[MetricOptimalityGap]; got != 0.5 {
		t.Errorf("gap = %v, want the last one set, 0.5", got)
	}
}

// TestInstrumentTable holds every instrument to one declaration: names are
// unique, every exported Metric* name but the deprecated ones is declared,
// and each instrument appears in a snapshot under its declared kind only.
func TestInstrumentTable(t *testing.T) {
	declared := map[string]Instrument{}
	for id := Instrument(0); id < NumInstruments; id++ {
		if id.Name() == "" {
			t.Errorf("instrument %d has no declaration", id)
		}
		if prev, dup := declared[id.Name()]; dup {
			t.Errorf("instruments %d and %d are both named %q", prev, id, id.Name())
		}
		declared[id.Name()] = id
	}

	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	for _, f := range pkgs["obs"].Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST || strings.Contains(gd.Doc.Text(), "Deprecated:") {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, n := range vs.Names {
					if !strings.HasPrefix(n.Name, "Metric") {
						continue
					}
					name, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
					if err != nil {
						t.Fatal(err)
					}
					exported[name] = true
					if _, ok := declared[name]; !ok {
						t.Errorf("%s = %q is exported but not declared", n.Name, name)
					}
				}
			}
		}
	}
	for name := range declared {
		if !exported[name] {
			t.Errorf("instrument %q has no exported Metric* name", name)
		}
	}

	s := NewRegistry().Snapshot()
	for id := Instrument(0); id < NumInstruments; id++ {
		_, c := s.Counters[id.Name()]
		_, g := s.Gauges[id.Name()]
		_, h := s.Histograms[id.Name()]
		_, d := s.Derived[id.Name()]
		in := map[Kind]bool{KindCounter: c, KindGauge: g, KindHistogram: h, KindDerived: d}
		for k, ok := range in {
			if ok != (k == id.Kind()) {
				t.Errorf("%s (%v) in the snapshot's %v map: %v", id.Name(), id.Kind(), k, ok)
			}
		}
	}
	if n := len(s.Counters) + len(s.Gauges) + len(s.Histograms) + len(s.Derived); n != int(NumInstruments) {
		t.Errorf("snapshot has %d instruments, table declares %d", n, NumInstruments)
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
