package core

import (
	"fmt"
	"testing"

	"klotski/internal/demand"
	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// setLiftForce overrides the lifted check's gate for the rest of the test.
func setLiftForce(t *testing.T, force int) {
	t.Helper()
	liftForce = force
	t.Cleanup(func() { liftForce = liftShipped })
}

// liftAudit holds every verdict the lifted check is sure of to the full
// check's while it is installed as liftedHook, on one fresh evaluator per
// topology that follows the views it is handed by content. The hook runs on
// the planner's goroutine, and the test plans one task at a time.
type liftAudit struct {
	evals    map[*topo.Topology]*routing.Evaluator
	lifted   int
	rejected int
	disagree []string
}

func (a *liftAudit) install(t *testing.T) {
	a.evals = map[*topo.Topology]*routing.Evaluator{}
	liftedHook = a.check
	t.Cleanup(func() { liftedHook = nil })
}

func (a *liftAudit) check(ln *lane, copts routing.CheckOpts, ok bool) {
	tp := ln.view.Topology()
	ev := a.evals[tp]
	if ev == nil {
		ev = routing.NewEvaluator(tp)
		a.evals[tp] = ev
	}
	a.lifted++
	if !ok {
		a.rejected++
	}
	if want := ev.Check(ln.view, ln.sp.demands, copts); want.OK() != ok {
		a.disagree = append(a.disagree, fmt.Sprintf("%s at %v: lifted %v, the full check %v", tp.Name, ln.curVec, ok, want))
	}
}

// outageReplan is the replan the control loop makes after an outage outside
// every block, as ctrl's withOutages builds it: the task over a clone of its
// topology with the first up circuit no block operates, and whose ends no
// block operates, taken down, resumed after the first half of plan's
// sequence.
func outageReplan(t *testing.T, task *migration.Task, plan *Plan) (*migration.Task, Options) {
	t.Helper()
	tp := task.Topo
	operatedSw := make([]bool, tp.NumSwitches())
	operatedCk := make([]bool, tp.NumCircuits())
	for _, b := range task.Blocks {
		for _, s := range b.Switches {
			operatedSw[s] = true
		}
		for _, c := range b.Circuits {
			operatedCk[c] = true
		}
	}
	down := topo.NoCircuit
	for c := 0; c < tp.NumCircuits() && down == topo.NoCircuit; c++ {
		ck := tp.Circuit(topo.CircuitID(c))
		if tp.CircuitUp(ck.ID) && !operatedCk[c] && !operatedSw[ck.A] && !operatedSw[ck.B] {
			down = ck.ID
		}
	}
	if down == topo.NoCircuit {
		t.Fatalf("%s: every circuit touches a block", task.Name)
	}
	clone := tp.Clone()
	clone.SetCircuitActive(down, false)
	replan := task.WithTopology(clone)
	return replan, Options{Executed: plan.Sequence[:len(plan.Sequence)/2]}
}

// TestLiftedChecksAgreeWithChecker holds every verdict the lifted check is
// sure of to a fresh full evaluator's: over every suite fabric at ×0.25 with
// the gate held open, under both planners and under ECMP, WCMP, funneling
// headroom and a demand growth forecast, plus the replan after an outage
// outside every block; and at paper scale with the gate as shipped, on every
// plan it opens on: C, E, E-DMAG and E-SSW under A* and DP. Every
// configuration must see a lifted verdict, and the run a lifted rejection: a
// seam that sees nothing checks nothing.
func TestLiftedChecksAgreeWithChecker(t *testing.T) {
	var a liftAudit
	a.install(t)
	type variant struct {
		name string
		opts Options
		grow float64
	}
	variants := []variant{
		{"ecmp", Options{}, 0},
		{"wcmp", Options{Split: routing.SplitCapacityWeighted}, 0},
		{"funnel2", Options{FunnelFactor: 2}, 0},
		{"forecast", Options{}, 0.004},
	}
	planners := []struct {
		name string
		run  func(*migration.Task, Options) (*Plan, error)
	}{{"astar", PlanAStar}, {"dp", PlanDP}}
	run := func(label string, task *migration.Task, opts Options, plan func(*migration.Task, Options) (*Plan, error)) *Plan {
		t.Helper()
		opts.SkipAudit = true
		opts.MaxStates = 200_000
		before, rejected := a.lifted, a.rejected
		p, err := plan(task, opts)
		var m Metrics
		if p != nil {
			m = p.Metrics
		}
		t.Logf("%s: %v; %d checks, %d lifted (%d rejections), %d fallbacks", label, err, m.Checks, a.lifted-before, a.rejected-rejected, m.LiftedFallbacks)
		switch {
		case a.lifted == before:
			t.Errorf("%s: no lifted verdict", label)
		case p != nil && m.LiftedChecks != a.lifted-before:
			t.Errorf("%s: metrics count %d lifted checks, the hook saw %d", label, m.LiftedChecks, a.lifted-before)
		}
		return p
	}

	setLiftForce(t, liftOpen)
	for _, name := range gen.SuiteNames() {
		s, err := gen.Suite(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants {
			task := s.Task
			if v.grow != 0 {
				task = task.WithForecast(demand.Forecast{GrowthPerStep: v.grow})
			}
			for _, pl := range planners {
				p := run(fmt.Sprintf("%s×0.25 %s %s", name, v.name, pl.name), task, v.opts, pl.run)
				if v.name == "ecmp" && pl.name == "astar" && p != nil {
					replan, opts := outageReplan(t, task, p)
					run(fmt.Sprintf("%s×0.25 outage replan astar", name), replan, opts, PlanAStar)
				}
			}
		}
	}

	if !testing.Short() {
		// Paper scale with the gate as shipped: every plan the gate opens on.
		liftForce = liftShipped
		for _, fabric := range []string{"C", "E", "E-DMAG", "E-SSW"} {
			s, err := gen.Suite(fabric, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, pl := range planners {
				run(fmt.Sprintf("%s×1 ecmp %s, gate as shipped", fabric, pl.name), s.Task, Options{}, pl.run)
			}
		}
	}
	for _, d := range a.disagree {
		t.Error(d)
	}
	if a.rejected == 0 {
		t.Fatalf("%d lifted verdicts and no rejection among them", a.lifted)
	}
	t.Logf("%d lifted verdicts, %d rejections, %d disagreements", a.lifted, a.rejected, len(a.disagree))
}

// TestLiftedFieldsFollowRepairs holds the lane's quotient to what it keeps
// between checks, in its own counts over the plan-large A* search (suite E ×
// 0.25, the gate as shipped, so the quotient answers all 400 routed checks).
// Its fields come from the evaluator's engine under the evaluator's repair
// policy: 41 checks traverse the 14 destination fields — the first, 39 whose
// step rebuilt more than a sixteenth of the 429 classes, and one whose repair
// gave up — and the other 359 repair them around the classes their block
// rebuilt and read most of their next-hop lists back. The plan's metrics carry
// the repairs (planner.lifted_field_repairs).
func TestLiftedFieldsFollowRepairs(t *testing.T) {
	var q *routing.Quotient
	liftedHook = func(ln *lane, _ routing.CheckOpts, _ bool) { q = ln.lift.q }
	t.Cleanup(func() { liftedHook = nil })
	s, err := gen.Suite("E", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PlanAStar(s.Task, Options{SkipAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	if q == nil {
		t.Fatal("suite E: no lifted check")
	}
	got := [6]int{q.Checks, q.BFSes, q.FieldRepairs, q.ArcVisits, q.HopListsBuilt, q.HopListsReused}
	t.Logf("suite E: checks, fields traversed, fields repaired, arc visits, next-hop lists built, read back = %v", got)
	if want := [6]int{400, 574, 5026, 580284, 103448, 561142}; got != want {
		t.Errorf("suite E: checks, fields traversed, fields repaired, arc visits, next-hop lists built, read back = %v, want %v", got, want)
	}
	if m := p.Metrics; m.LiftedFieldRepairs != q.FieldRepairs {
		t.Errorf("suite E: the plan's metrics count %d lifted field repairs, the quotient %d", m.LiftedFieldRepairs, q.FieldRepairs)
	}
}

// TestLaneEvaluatorOnFirstUse holds a lane to building its evaluator at the
// first routed check the quotient does not answer, and not before: after A*
// and DP on every suite fabric × 0.25, the lanes on E, E-SSW and E-DMAG, whose
// quotient answers every routed check, hold none, and the lanes on A–D, whose
// gate declines, hold one.
func TestLaneEvaluatorOnFirstUse(t *testing.T) {
	var ln *lane
	planHook = func(sp *space) { ln = sp.ln }
	t.Cleanup(func() { planHook = nil })
	lifts := map[string]bool{"E": true, "E-SSW": true, "E-DMAG": true}
	for _, name := range gen.SuiteNames() {
		s, err := gen.Suite(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range []struct {
			name string
			run  func(*migration.Task, Options) (*Plan, error)
		}{{"astar", PlanAStar}, {"dp", PlanDP}} {
			ln = nil
			p, err := pl.run(s.Task, Options{SkipAudit: true})
			if err != nil {
				t.Fatalf("%s %s: %v", name, pl.name, err)
			}
			m := p.Metrics
			t.Logf("%s %s: %d checks, %d lifted, %d fallbacks, evaluator built %v", name, pl.name, m.Checks, m.LiftedChecks, m.LiftedFallbacks, ln.eval != nil)
			if built := ln.eval != nil; built == lifts[name] {
				t.Errorf("%s %s: the lane's evaluator built %v, want %v", name, pl.name, built, !lifts[name])
			}
		}
	}
}
