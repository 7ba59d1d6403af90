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
// follows its lane from one routed state to the next, repairing its fields,
// reading its next-hop masks back and answering from its retained placement;
// the fresh one traverses, builds and sweeps. Both planners, on the fabrics
// where placements are retained (E-SSW, E-DMAG) and where they are not (E,
// whose gate stays closed, and C, which never keeps a field), under ECMP,
// WCMP and a demand growth forecast. The run must answer checks from the
// retained placement: a seam that never sees one checks nothing.
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
	retained := 0
	for _, fabric := range []string{"E-SSW", "E-DMAG", "E", "C"} {
		s, err := gen.Suite(fabric, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		tp := s.Task.Topo
		root := routing.NewEvaluator(tp)
		for _, v := range variants {
			for _, pl := range planners {
				ev := routing.NewEvaluator(tp)
				checks := 0
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
					for c := 0; c < tp.NumCircuits(); c++ {
						ab, ba := ev.CircuitLoad(topo.CircuitID(c))
						wab, wba := fresh.CircuitLoad(topo.CircuitID(c))
						if math.Float64bits(ab) != math.Float64bits(wab) || math.Float64bits(ba) != math.Float64bits(wba) {
							disagree = append(disagree, fmt.Sprintf("check %d: circuit %d carries (%v, %v), a fresh evaluator (%v, %v)", checks, c, ab, ba, wab, wba))
							return
						}
					}
				})
				task := s.Task
				if v.grow != 0 {
					task = task.WithForecast(demand.Forecast{GrowthPerStep: v.grow})
				}
				opts := v.opts
				opts.SkipAudit, opts.Evaluator = true, ev
				_, err := pl.run(task, opts)
				routing.SetCheckHook(nil)
				if err != nil {
					t.Fatalf("%s %s %s: %v", fabric, v.name, pl.name, err)
				}
				t.Logf("%s %s %s: %d routed checks, %d answered from the retained placement, %d fell back",
					fabric, v.name, pl.name, checks, ev.PlacementRepairs, ev.PlacementFallbacks)
				for _, d := range disagree {
					t.Errorf("%s %s %s, %s", fabric, v.name, pl.name, d)
				}
				retained += ev.PlacementRepairs
			}
		}
	}
	if retained == 0 {
		t.Fatal("no routed check was answered from the retained placement: the seam held nothing of it")
	}
}
