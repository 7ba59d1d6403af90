package sim

import (
	"math"
	"testing"

	"klotski/internal/core"
	"klotski/internal/demand"
	"klotski/internal/gen"
)

func planScenario(t *testing.T) (*gen.Scenario, *core.Plan) {
	t.Helper()
	s, err := gen.TopologyA(0.25)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func TestExecuteValidPlanCompletesSafely(t *testing.T) {
	s, p := planScenario(t)
	rep, err := NewExecutor(s.Task).Execute(p.Sequence, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed {
		t.Fatal("execution should complete")
	}
	if rep.BoundaryViolations != 0 {
		t.Fatalf("planner-produced plan had %d boundary violations: %s",
			rep.BoundaryViolations, rep)
	}
	if len(rep.Steps) != len(p.Runs) {
		t.Fatalf("steps = %d, runs = %d", len(rep.Steps), len(p.Runs))
	}
	if rep.PeakUtil <= 0 || rep.PeakUtil > 0.75+1e-9 {
		t.Fatalf("peak util %v outside (0, θ] at run granularity", rep.PeakUtil)
	}
}

func TestExecuteRejectsInvalidSequence(t *testing.T) {
	s, p := planScenario(t)
	bad := append([]int(nil), p.Sequence...)
	bad[0], bad[1] = bad[1], bad[0] // break canonical order (maybe)
	if err := core.ValidateSequence(s.Task, bad, nil); err == nil {
		t.Skip("swap preserved canonical order")
	}
	if _, err := NewExecutor(s.Task).Execute(bad, Options{}); err == nil {
		t.Fatal("invalid sequence should be rejected")
	}
}

func TestAsynchronyExposesFunneling(t *testing.T) {
	s, p := planScenario(t)
	ex := NewExecutor(s.Task)
	atomic, err := ex.Execute(p.Sequence, Options{Granularity: GranularityRun})
	if err != nil {
		t.Fatal(err)
	}
	async, err := ex.Execute(p.Sequence, Options{Granularity: GranularityCircuit, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if async.PeakUtil < atomic.PeakUtil-1e-9 {
		t.Fatalf("asynchronous execution cannot reduce peak util: %v vs %v",
			async.PeakUtil, atomic.PeakUtil)
	}
	// Boundary states are identical regardless of intra-run order.
	if async.BoundaryViolations != atomic.BoundaryViolations {
		t.Fatalf("boundary violations differ: %d vs %d",
			async.BoundaryViolations, atomic.BoundaryViolations)
	}
	t.Logf("atomic peak %.3f, async peak %.3f, transient violations %d",
		atomic.PeakUtil, async.PeakUtil, async.TransientViolations)
}

func TestFunnelingHeadroomReducesTransients(t *testing.T) {
	s, err := gen.TopologyA(0.25)
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := core.PlanAStar(s.Task, core.Options{FunnelFactor: 1.15})
	if err != nil {
		t.Skip("funneling headroom makes this scale infeasible")
	}
	ex := NewExecutor(s.Task)
	baseRep, err := ex.Execute(base.Sequence, Options{Granularity: GranularityCircuit, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	guardRep, err := ex.Execute(guarded.Sequence, Options{Granularity: GranularityCircuit, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if guardRep.TransientViolations > baseRep.TransientViolations {
		t.Errorf("headroom-planned execution has more transients: %d vs %d",
			guardRep.TransientViolations, baseRep.TransientViolations)
	}
}

// TestForecastGrowthInSim: the replay checks every boundary at the demand
// the task forecasts for the state's own finished-action count, as the
// audit does — a grown boundary is the base boundary scaled by exactly
// that horizon's factor.
func TestForecastGrowthInSim(t *testing.T) {
	s, p := planScenario(t)
	f := demand.Forecast{GrowthPerStep: 0.001}
	rep, err := NewExecutor(s.Task.WithForecast(f)).Execute(p.Sequence, Options{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewExecutor(s.Task).Execute(p.Sequence, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PeakUtil <= base.PeakUtil {
		t.Errorf("growth should raise peak util: %v vs %v", rep.PeakUtil, base.PeakUtil)
	}
	applied := 0
	for i, st := range rep.Steps {
		applied += st.Blocks
		want := base.Steps[i].BoundaryUtil * f.ScaleAt(applied)
		if math.Abs(st.BoundaryUtil-want) > 1e-9*want {
			t.Fatalf("run %d boundary util %v, want %v (base %v at horizon %d)",
				st.Run, st.BoundaryUtil, want, base.Steps[i].BoundaryUtil, applied)
		}
	}
}

func TestReportString(t *testing.T) {
	s, p := planScenario(t)
	rep, err := NewExecutor(s.Task).Execute(p.Sequence, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() == "" {
		t.Error("report should render")
	}
}

func TestCampaignAggregates(t *testing.T) {
	s, p := planScenario(t)
	rep, err := NewExecutor(s.Task).Campaign(p.Sequence, Options{}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seeds != 12 {
		t.Fatalf("seeds = %d", rep.Seeds)
	}
	if !(rep.PeakMin <= rep.PeakMean+1e-9 && rep.PeakMean <= rep.PeakMax+1e-9) {
		t.Fatalf("peak stats disordered: %+v", rep)
	}
	if rep.PeakMin <= 0 {
		t.Fatal("peaks should be positive")
	}
	// The worst seed must reproduce the reported max exactly.
	worst, err := NewExecutor(s.Task).Execute(p.Sequence, Options{
		Granularity: GranularityCircuit, Seed: rep.WorstSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if worst.PeakUtil != rep.PeakMax {
		t.Fatalf("worst seed replay peak %v != campaign max %v", worst.PeakUtil, rep.PeakMax)
	}
	if rep.String() == "" {
		t.Error("campaign report should render")
	}
}

func TestCampaignDeterministic(t *testing.T) {
	s, p := planScenario(t)
	a, err := NewExecutor(s.Task).Campaign(p.Sequence, Options{Seed: 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewExecutor(s.Task).Campaign(p.Sequence, Options{Seed: 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakMax != b.PeakMax || a.PeakMean != b.PeakMean || a.WorstSeed != b.WorstSeed {
		t.Fatalf("campaigns differ: %+v vs %+v", a, b)
	}
}

func TestCampaignRejectsUnsafePlan(t *testing.T) {
	s, p := planScenario(t)
	// Triple the demand after planning: the boundaries break, and the
	// campaign must call that a plan defect.
	s.Task.Demands = s.Task.Demands.Scaled(3)
	if _, err := NewExecutor(s.Task).Campaign(p.Sequence, Options{}, 4); err == nil {
		t.Fatal("unsafe plan should fail the campaign")
	}
}

func TestBlockGranularityBetweenRunAndCircuit(t *testing.T) {
	s, p := planScenario(t)
	ex := NewExecutor(s.Task)
	run, err := ex.Execute(p.Sequence, Options{Granularity: GranularityRun})
	if err != nil {
		t.Fatal(err)
	}
	block, err := ex.Execute(p.Sequence, Options{Granularity: GranularityBlock, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	circuit, err := ex.Execute(p.Sequence, Options{Granularity: GranularityCircuit, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if block.PeakUtil < run.PeakUtil-1e-9 {
		t.Errorf("block asynchrony cannot lower the peak: %v vs %v", block.PeakUtil, run.PeakUtil)
	}
	if circuit.PeakUtil < block.PeakUtil-1e-9 {
		t.Errorf("circuit asynchrony cannot lower the peak: %v vs %v", circuit.PeakUtil, block.PeakUtil)
	}
}
