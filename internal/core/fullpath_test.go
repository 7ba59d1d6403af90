package core

import (
	"testing"

	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/routing"
)

// fullPathSearch plans suite E × 0.25 — the benchmark's plan-large search —
// with the lifted check's gate held shut, so that the evaluator routes every
// check the lane does not answer before routing.
func fullPathSearch(t *testing.T, plan func(*migration.Task, Options) (*Plan, error)) (*routing.Evaluator, *Plan) {
	t.Helper()
	setLiftForce(t, liftShut)
	s, err := gen.Suite("E", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ev := routing.NewEvaluator(s.Task.Topo)
	p, err := plan(s.Task, Options{SkipAudit: true, Evaluator: ev})
	if err != nil {
		t.Fatal(err)
	}
	if m := p.Metrics; m.LiftedChecks+m.LiftedFallbacks != 0 {
		t.Fatalf("the gate is shut, yet %d checks were lifted", m.LiftedChecks+m.LiftedFallbacks)
	}
	return ev, p
}

// TestHopSetsFollowRepairsFullPath holds the full evaluator's next-hop masks to
// where they belong on the plan-large A* search. The planner makes 1014
// checks and its lane answers 522 of them on the port budgets and 92 on the
// capacity cuts before routing. The evaluator sees the other 400, so its up
// state and fields move only between routed states: it traversed 756 fields
// and rebuilt 26 896 switches when it saw all 1014. The sweeps classify under
// 2.0 M arcs where the pull sweep scanned 10.63 M, and four (group, switch)
// visits in five read their mask back.
func TestHopSetsFollowRepairsFullPath(t *testing.T) {
	ev, p := fullPathSearch(t, PlanAStar)
	m := p.Metrics
	if got, want := [3]int{m.Checks, m.PortRejects, m.CutRejects}, [3]int{1014, 522, 92}; got != want {
		t.Errorf("suite E: checks, port rejections, cut rejections = %v, want %v", got, want)
	}
	got := [6]int{ev.Checks, ev.BFSes, ev.FieldRepairs, ev.FieldEntriesRepaired, ev.ArcVisits, ev.UpRebuilds}
	if want := [6]int{400, 546, 5054, 79980, 2366280, 11868}; got != want {
		t.Errorf("suite E: checks, fields traversed, fields repaired, entries repaired, arc visits, switches rebuilt = %v, want %v", got, want)
	}
	share := float64(ev.HopSetsReused) / float64(ev.HopSetsReused+ev.HopSetsBuilt)
	t.Logf("suite E: %d arcs classified, %d masks built, %d read back (%.4f)", ev.SweepArcTests, ev.HopSetsBuilt, ev.HopSetsReused, share)
	if ev.SweepArcTests > 2_000_000 || share < 0.80 {
		t.Errorf("suite E: %d arcs classified and %.4f of visits read back, want at most 2.0 M and at least 0.80", ev.SweepArcTests, share)
	}
}

// TestRoutedChecksPinnedFullPath pins what the full evaluator's sweeps do on
// the plan-large A* search when they route every check the lane does not
// answer before routing: 400 of the 1014, each with a sweep per destination
// group that builds the next-hop masks it finds outdated and reads the
// others back.
func TestRoutedChecksPinnedFullPath(t *testing.T) {
	ev, p := fullPathSearch(t, PlanAStar)
	got := [5]int{ev.Checks, ev.SweepArcTests, ev.HopSetsBuilt, ev.HopSetsReused, p.Metrics.Checks}
	if want := [5]int{400, 1575590, 147232, 879435, 1014}; got != want {
		t.Errorf("suite E astar: routed checks, arcs classified, masks built, masks read back, checks = %v, want %v", got, want)
	}
}
