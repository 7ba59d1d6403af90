package routing_test

import (
	"fmt"
	"math"
	"testing"

	"klotski/internal/core"
	"klotski/internal/demand"
	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// TestRoutedChecksAgreeWithFreshEvaluator holds every check a planner routes
// to a fresh evaluator's answer for the same view, demands and options: the
// violation, and every directional load bit for bit. The planner's evaluator
// follows its lane from one routed state to the next, repairing its fields
// and reading its next-hop masks back; the fresh one traverses, builds and
// sweeps. Both planners, under ECMP, WCMP and a demand growth forecast, on
// E-SSW, E-DMAG and E, and on C, which never keeps a field. The quotients of
// the first three are small enough for the lane to route them instead of the
// fabric, so the test gives each circuit a capacity of its own, larger by a
// relative 2^-40 per circuit index: every circuit is then a class of its own,
// the lane's gate stays shut and the evaluator routes every check the lane
// does not answer before routing. The run must repair fields: a seam that
// never sees a repaired field checks nothing.
//
// A second column asks every routed state of the quotient of the task, built
// with no quota (core.LiftedQuotient): with a capacity per circuit it is the
// discrete partition, and one quotient follows the run, keeping its fields as
// the lane's would. Every verdict it is sure of must equal the evaluator's,
// so both clients of the one distance-field engine answer the same states;
// the test reports how many it was not sure of, and requires some it was.
func TestRoutedChecksAgreeWithFreshEvaluator(t *testing.T) {
	variants := []struct {
		name string
		opts core.Options
		grow float64
	}{
		{"ecmp", core.Options{}, 0},
		{"wcmp", core.Options{Split: routing.SplitCapacityWeighted}, 0},
		{"forecast", core.Options{}, 0.004},
	}
	planners := []struct {
		name string
		run  func(*migration.Task, core.Options) (*core.Plan, error)
	}{{"astar", core.PlanAStar}, {"dp", core.PlanDP}}
	t.Cleanup(func() { routing.SetCheckHook(nil) })
	repaired, lifted := 0, 0
	for _, fabric := range []string{"E-SSW", "E-DMAG", "E", "C"} {
		s, err := gen.Suite(fabric, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		tp := s.Task.Topo.Clone()
		for c := 0; c < tp.NumCircuits(); c++ {
			id := topo.CircuitID(c)
			tp.SetCapacity(id, tp.Circuit(id).Capacity*(1+0x1p-40*float64(c)))
		}
		base := s.Task.WithTopology(tp)
		root := routing.NewEvaluator(tp)
		for _, v := range variants {
			for _, pl := range planners {
				task := base
				if v.grow != 0 {
					task = task.WithForecast(demand.Forecast{GrowthPerStep: v.grow})
				}
				q, ok := core.LiftedQuotient(task, tp.NumCircuits())
				if !ok {
					t.Fatalf("%s %s %s: the quotient build declined with no quota", fabric, v.name, pl.name)
				}
				ev := routing.NewEvaluator(tp)
				checks, unsure := 0, 0
				var disagree []string
				routing.SetCheckHook(func(e *routing.Evaluator, view *topo.View, ds *demand.Set, opts routing.CheckOpts, viol routing.Violation) {
					if e != ev {
						return // the fresh evaluator's own check
					}
					checks++
					fresh := root.Fork()
					if want := fresh.Check(view, ds, opts); viol != want {
						disagree = append(disagree, fmt.Sprintf("check %d: %v, a fresh evaluator %v", checks, viol, want))
						return
					}
					var funnel []int32
					whole := true
					if opts.FunnelFactor > 1 {
						funnel, whole = q.CircuitClasses(opts.FunnelCircuits)
					}
					if ok, sure := q.Check(view, ds, opts, funnel); !whole || !sure {
						unsure++
					} else if ok != viol.OK() {
						disagree = append(disagree, fmt.Sprintf("check %d: the quotient says %v, the evaluator %v", checks, ok, viol))
					}
					for c := 0; c < tp.NumCircuits(); c++ {
						ab, ba := ev.CircuitLoad(topo.CircuitID(c))
						wab, wba := fresh.CircuitLoad(topo.CircuitID(c))
						if math.Float64bits(ab) != math.Float64bits(wab) || math.Float64bits(ba) != math.Float64bits(wba) {
							disagree = append(disagree, fmt.Sprintf("check %d: circuit %d carries (%v, %v), a fresh evaluator (%v, %v)", checks, c, ab, ba, wab, wba))
							return
						}
					}
				})
				opts := v.opts
				opts.SkipAudit, opts.Evaluator = true, ev
				p, err := pl.run(task, opts)
				routing.SetCheckHook(nil)
				if err != nil {
					t.Fatalf("%s %s %s: %v", fabric, v.name, pl.name, err)
				}
				t.Logf("%s %s %s: %d routed checks, %d fields repaired; the quotient unsure of %d, %d fields repaired", fabric, v.name, pl.name, checks, ev.FieldRepairs, unsure, q.FieldRepairs)
				if checks == 0 || p.Metrics.LiftedChecks+p.Metrics.LiftedFallbacks != 0 {
					t.Errorf("%s %s %s: %d routed checks, %d lifted; want some and none", fabric, v.name, pl.name, checks, p.Metrics.LiftedChecks+p.Metrics.LiftedFallbacks)
				}
				for _, d := range disagree {
					t.Errorf("%s %s %s, %s", fabric, v.name, pl.name, d)
				}
				repaired += ev.FieldRepairs
				lifted += checks - unsure
			}
		}
	}
	if repaired == 0 {
		t.Fatal("no routed check repaired its fields: the seam held nothing of them")
	}
	if lifted == 0 {
		t.Fatal("the quotient was sure of no routed state: its column held nothing")
	}
}
