package klotski_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"klotski"
)

// scaledTask returns the task over a clone of its topology with every circuit
// capacity, and every demand rate, multiplied by k.
func scaledTask(task *klotski.Task, k float64) *klotski.Task {
	return widerTask(task, k).WithDemands(task.Demands.Scaled(k))
}

// widerTask returns the task over a clone of its topology with every circuit
// capacity multiplied by k and its demands unchanged.
func widerTask(task *klotski.Task, k float64) *klotski.Task {
	tp := task.Topo.Clone()
	for c := 0; c < tp.NumCircuits(); c++ {
		id := klotski.CircuitID(c)
		tp.SetCapacity(id, tp.Circuit(id).Capacity*k)
	}
	return task.WithTopology(tp)
}

// metamorphicPlanners are the optimal planners the properties hold for.
var metamorphicPlanners = []struct {
	name string
	run  func(*klotski.Task, klotski.Options) (*klotski.Plan, error)
}{{"astar", klotski.PlanAStar}, {"dp", klotski.PlanDP}}

// TestScalingPreservesPlans is a metamorphic property of the planners:
// multiplying every circuit capacity and every demand rate by one factor
// leaves every utilization where it was, so it must leave the plan where it
// was. The factors are powers of two, under which every product, load and
// utilization is exact, so the property holds bit for bit: over A* and DP on
// every suite fabric × 0.25, each scaled plan must have the unscaled plan's
// sequence and cost, make as many checks, lifted checks and lifted fallbacks,
// and its audit must read the same utilization at every step. The lifted
// check's load ceilings, θ(1+margin)·cap/scale per circuit class, must scale
// with the capacities for the checks to stay where they were. Plan documents
// are not compared: they carry the absolute capacities.
func TestScalingPreservesPlans(t *testing.T) {
	for _, name := range klotski.SuiteNames() {
		s, err := klotski.Suite(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range metamorphicPlanners {
			want, err := pl.run(s.Task, klotski.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", name, pl.name, err)
			}
			for _, k := range []float64{2, 0.5, 1024} {
				got, err := pl.run(scaledTask(s.Task, k), klotski.Options{})
				if err != nil {
					t.Fatalf("%s %s × %v: %v", name, pl.name, k, err)
				}
				if !slices.Equal(got.Sequence, want.Sequence) || got.Cost != want.Cost {
					t.Errorf("%s %s × %v: sequence %v at cost %v, unscaled %v at cost %v", name, pl.name, k, got.Sequence, got.Cost, want.Sequence, want.Cost)
				}
				gm, wm := got.Metrics, want.Metrics
				if g, w := [3]int{gm.Checks, gm.LiftedChecks, gm.LiftedFallbacks}, [3]int{wm.Checks, wm.LiftedChecks, wm.LiftedFallbacks}; g != w {
					t.Errorf("%s %s × %v: checks, lifted, lifted fallbacks = %v, unscaled %v", name, pl.name, k, g, w)
				}
				gs, ws := got.Audit.Steps, want.Audit.Steps
				if len(gs) != len(ws) {
					t.Fatalf("%s %s × %v: the audit checked %d steps, unscaled %d", name, pl.name, k, len(gs), len(ws))
				}
				for i := range gs {
					if math.Float64bits(gs[i].MaxUtil) != math.Float64bits(ws[i].MaxUtil) {
						t.Errorf("%s %s × %v: audit step %d reads utilization %v, unscaled %v", name, pl.name, k, i, gs[i].MaxUtil, ws[i].MaxUtil)
						break
					}
				}
			}
		}
	}
}

// TestTighterThetaNeverCheaper is a metamorphic property of the optimal
// planners: every plan safe under a utilization bound θ is safe under any
// looser one, so tightening θ can only remove plans. Over A* and DP on every
// suite fabric × 0.25, the optimal cost at each tighter θ must be at least
// the cost at the default 0.75, or the tighter task must be infeasible.
// Some tighter θ must raise a cost or leave no plan, or nothing was tested.
func TestTighterThetaNeverCheaper(t *testing.T) {
	moved := 0
	for _, name := range klotski.SuiteNames() {
		s, err := klotski.Suite(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range metamorphicPlanners {
			base, err := pl.run(s.Task, klotski.Options{Theta: 0.75})
			if err != nil {
				t.Fatalf("%s %s: %v", name, pl.name, err)
			}
			for _, theta := range []float64{0.7, 0.6, 0.5} {
				got, err := pl.run(s.Task, klotski.Options{Theta: theta})
				if errors.Is(err, klotski.ErrInfeasible) {
					moved++
					continue
				}
				if err != nil {
					t.Fatalf("%s %s θ=%v: %v", name, pl.name, theta, err)
				}
				if got.Cost < base.Cost {
					t.Errorf("%s %s: θ=%v plans at cost %v, below θ=0.75's %v", name, pl.name, theta, got.Cost, base.Cost)
				}
				if got.Cost > base.Cost {
					moved++
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no tighter θ raised a cost or left no plan")
	}
}

// TestMoreCapacityNeverCostlier is a metamorphic property of the optimal
// planners: with demands unchanged, multiplying every circuit capacity by
// k > 1 lowers every utilization, so every plan safe before stays safe and
// the optimal cost cannot rise. Over A* and DP on every suite fabric × 0.25;
// some wider fabric must plan cheaper, or nothing was tested.
func TestMoreCapacityNeverCostlier(t *testing.T) {
	moved := 0
	for _, name := range klotski.SuiteNames() {
		s, err := klotski.Suite(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for _, pl := range metamorphicPlanners {
			base, err := pl.run(s.Task, klotski.Options{})
			if err != nil {
				t.Fatalf("%s %s: %v", name, pl.name, err)
			}
			for _, k := range []float64{1.5, 2} {
				got, err := pl.run(widerTask(s.Task, k), klotski.Options{})
				if err != nil {
					t.Fatalf("%s %s capacity × %v: %v", name, pl.name, k, err)
				}
				if got.Cost > base.Cost {
					t.Errorf("%s %s: capacity × %v plans at cost %v, above the unscaled %v", name, pl.name, k, got.Cost, base.Cost)
				}
				if got.Cost < base.Cost {
					moved++
				}
			}
		}
	}
	if moved == 0 {
		t.Error("no wider fabric planned cheaper")
	}
}
