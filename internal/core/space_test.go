package core

import (
	"math/rand"
	"testing"
)

// TestIncrementalViewMatchesRebuild cross-checks the incremental
// delta-application view builder against the from-scratch rebuild at the
// verdict level: over a random walk of vectors (so deltas apply and revert
// blocks of both types, under port and space budgets) a lane that keeps its
// view and one that rebuilds it for every check must judge every state
// alike.
func TestIncrementalViewMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		nOld := 2 + rng.Intn(3)
		nNew := 2 + rng.Intn(3)
		task := bridgeTask(t, nOld, nNew, 1, 0.8+rng.Float64(), 0.5+rng.Float64(), 2*nOld+1+rng.Intn(3))
		opts := Options{SpaceBudget: map[int]int{0: nOld + 2 + rng.Intn(nNew)}}
		inc, err := newSpace(task, opts)
		if err != nil {
			t.Fatal(err)
		}
		reb, err := newSpace(task, opts)
		if err != nil {
			t.Fatal(err)
		}
		vec := make([]uint16, inc.nTypes)
		for step := 0; step < 60; step++ {
			ty := rng.Intn(inc.nTypes)
			if rng.Intn(2) == 0 && vec[ty] < inc.totals[ty] {
				vec[ty]++
			} else if vec[ty] > 0 {
				vec[ty]--
			}
			a := inc.ln.check(vec, NoLast, false)
			reb.ln.curVec = nil // force the first-build path
			if b := reb.ln.check(vec, NoLast, false); a != b {
				t.Fatalf("trial %d step %d: vector %v incremental verdict %v != rebuild %v", trial, step, vec, a, b)
			}
		}
	}
}

// TestIncrementalViewExactState drives buildView through a random walk of
// vectors and verifies the materialized view equals a fresh rebuild after
// every move.
func TestIncrementalViewExactState(t *testing.T) {
	task := bridgeTask(t, 3, 4, 1, 1, 0.5, 0)
	sp, err := newSpace(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newSpace(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	vec := make([]uint16, sp.nTypes)
	for step := 0; step < 200; step++ {
		ty := rng.Intn(sp.nTypes)
		if rng.Intn(2) == 0 && vec[ty] < sp.totals[ty] {
			vec[ty]++
		} else if vec[ty] > 0 {
			vec[ty]--
		}
		sp.ln.buildView(vec)
		ref.ln.curVec = nil // force the first-build path
		ref.ln.buildView(vec)
		if !sp.ln.view.Equal(ref.ln.view) {
			t.Fatalf("step %d: incremental view diverged at vector %v", step, vec)
		}
	}
}

// TestPlanDPParallelMatchesSerial pins that Options.Workers never reaches
// the DP search: identical costs, sequences and effort counters on
// randomized tasks at every worker setting, and settings below
// WorkersAdaptive are rejected.
func TestPlanDPParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		task := bridgeTask(t, 2+rng.Intn(3), 2+rng.Intn(3), 1, 0.8+rng.Float64(),
			0.5+rng.Float64(), 0)
		serial, errS := PlanDP(task, Options{})
		for _, workers := range []int{WorkersAdaptive, 2, 4} {
			par, errP := PlanDP(task, Options{Workers: workers})
			if (errS == nil) != (errP == nil) {
				t.Fatalf("trial %d workers %d: error disagreement %v vs %v", trial, workers, errS, errP)
			}
			if errS != nil {
				continue
			}
			samePlan(t, "dp", par, serial)
			sm, pm := serial.Metrics, par.Metrics
			sm.PlanningTime, pm.PlanningTime = 0, 0
			if sm != pm {
				t.Fatalf("trial %d workers %d: metrics %+v vs serial %+v", trial, workers, pm, sm)
			}
		}
	}
}

// TestPlanDPParallelOnFunneling is the same under funneling headroom, where
// verdicts are keyed by (vector, last).
func TestPlanDPParallelOnFunneling(t *testing.T) {
	task := bridgeTask(t, 3, 3, 1, 1, 1.1, 0)
	opts := Options{Theta: 0.8, FunnelFactor: 1.1}
	serial, errS := PlanDP(task, opts)
	opts.Workers = 4
	par, errP := PlanDP(task, opts)
	if (errS == nil) != (errP == nil) {
		t.Fatalf("error disagreement: %v vs %v", errS, errP)
	}
	if errS == nil {
		samePlan(t, "dp", par, serial)
	}
}
