package obs

import (
	"sync"
	"testing"
)

// TestRegistryConcurrentPlans hammers one registry from many concurrent
// "plans" — each with its own Recorder, as fleet planning does — and
// checks the snapshot totals equal the per-plan sums exactly. Run under
// -race this also proves the recorder paths concurrent plans and the
// shared admission pool hit are data-race free.
func TestRegistryConcurrentPlans(t *testing.T) {
	reg := NewRegistry()
	const plans = 8
	const each = 2000

	var wg sync.WaitGroup
	for i := 0; i < plans; i++ {
		rec := NewRecorder(reg)
		wg.Add(1)
		go func(rec *Recorder) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				rec.Add(SchedPreemptions, 1)
				rec.Add(FleetPlansAdmitted, 1)
				rec.Add(BoundCrossHits, 2)
				rec.Add(StatesCreated, 1)
				rec.Add(StatesExpanded, 1)
				rec.Add(CacheHits, 1)
			}
		}(rec)
	}
	wg.Wait()

	s := reg.Snapshot()
	want := map[string]int64{
		MetricSchedPreemptions:   plans * each,
		MetricFleetPlansAdmitted: plans * each,
		MetricBoundCrossHits:     plans * each * 2,
		MetricStatesCreated:      plans * each,
		MetricStatesExpanded:     plans * each,
		MetricCacheHits:          plans * each,
	}
	for name, w := range want {
		if got := s.Counters[name]; got != w {
			t.Errorf("%s = %d, want %d", name, got, w)
		}
	}
}
