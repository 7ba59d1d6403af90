package klotski_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"klotski"
	"klotski/internal/core"
	"klotski/internal/gen"
)

// Differential planner testing: the A* (§4.4) and DP (§4.3) planners are
// independently derived optimizers over the same search space, so on every
// input they must agree — same plan cost, and every run-boundary prefix of
// either plan must satisfy the safety checker. Disagreement means one of
// them is wrong; this is the cross-validation harness that catches it.

// boundaryPrefixesSafe asserts that every observable state of the plan —
// the initial state, each run boundary, and the final state (paper
// Eq. 4–6) — passes the satisfiability checker.
func boundaryPrefixesSafe(t *testing.T, task *klotski.Task, plan *klotski.Plan, opts klotski.Options) {
	t.Helper()
	counts := make([]int, task.NumTypes())
	if err := core.CheckState(task, counts, opts); err != nil {
		t.Errorf("initial state unsafe: %v", err)
	}
	for i, run := range plan.Runs {
		for _, b := range run.Blocks {
			counts[task.Blocks[b].Type]++
		}
		if err := core.CheckState(task, counts, opts); err != nil {
			t.Errorf("state after run %d/%d unsafe: %v", i+1, len(plan.Runs), err)
		}
	}
}

// assertPlannersAgree plans the task with A* and DP and cross-validates:
// identical feasibility verdicts, equal optimal cost, both plans pass the
// independent audit, and all observable prefixes are safe.
func assertPlannersAgree(t *testing.T, task *klotski.Task, opts klotski.Options) {
	t.Helper()
	astar, errA := klotski.PlanAStar(task, opts)
	dp, errD := klotski.PlanDP(task, opts)
	if (errA == nil) != (errD == nil) {
		t.Fatalf("planners disagree on feasibility: astar=%v dp=%v", errA, errD)
	}
	if errA != nil {
		if !errors.Is(errA, klotski.ErrInfeasible) || !errors.Is(errD, klotski.ErrInfeasible) {
			t.Fatalf("unexpected planner errors: astar=%v dp=%v", errA, errD)
		}
		return
	}
	if math.Abs(astar.Cost-dp.Cost) > 1e-9 {
		t.Fatalf("cost disagreement: astar=%v dp=%v\nastar: %s\ndp: %s",
			astar.Cost, dp.Cost, astar, dp)
	}
	for name, plan := range map[string]*klotski.Plan{"astar": astar, "dp": dp} {
		if err := klotski.VerifyPlan(task, plan.Sequence, opts); err != nil {
			t.Errorf("%s plan failed audit: %v", name, err)
		}
		boundaryPrefixesSafe(t, task, plan, opts)
	}
}

// planBytes encodes the plan document an operator would receive.
func planBytes(t *testing.T, task *klotski.Task, plan *klotski.Plan, opts klotski.Options) []byte {
	t.Helper()
	doc, err := klotski.BuildPlanDocument(task, plan, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertIncrementalMatchesFull plans with A* and DP at Workers 1 and 2, each
// on a fresh evaluator ("full") and then twice on ONE caller-supplied
// Options.Evaluator that all of the runs share ("incremental"): every shared
// run but the first starts from the up state and distance fields another
// search left behind, with an evaluation of an unrelated view in between. The
// evaluator follows whatever view it is handed by content, so the plan bytes
// must not depend on what it checked before.
func assertIncrementalMatchesFull(t *testing.T, task *klotski.Task, opts klotski.Options) {
	t.Helper()
	shared := klotski.NewEvaluator(task.Topo)
	other := task.Topo.NewView()
	task.Apply(other, len(task.Blocks)-1)
	planners := []struct {
		name string
		plan func(*klotski.Task, klotski.Options) (*klotski.Plan, error)
	}{{"astar", klotski.PlanAStar}, {"dp", klotski.PlanDP}}
	for _, p := range planners {
		for _, workers := range []int{1, 2} {
			fullOpts := opts
			fullOpts.Workers = workers
			full, errF := p.plan(task, fullOpts)
			var want []byte
			if errF == nil {
				want = planBytes(t, task, full, opts)
			}
			for run := 0; run < 2; run++ {
				incOpts := fullOpts
				incOpts.Evaluator = shared
				inc, errI := p.plan(task, incOpts)
				label := fmt.Sprintf("%s workers=%d shared run %d", p.name, workers, run)
				if errF != nil {
					if !errors.Is(errF, klotski.ErrInfeasible) || !errors.Is(errI, klotski.ErrInfeasible) {
						t.Fatalf("%s: fresh evaluator: %v, shared: %v", label, errF, errI)
					}
					continue
				}
				if errI != nil {
					t.Fatalf("%s: %v, a fresh evaluator plans fine", label, errI)
				}
				if got := planBytes(t, task, inc, opts); !bytes.Equal(got, want) {
					t.Fatalf("%s: plan differs from a fresh evaluator's:\n%s\nwant:\n%s", label, got, want)
				}
				shared.Evaluate(other, &task.Demands, klotski.CheckOpts{})
			}
		}
	}
	if shared.FieldRepairs+shared.BFSes == 0 {
		t.Fatal("the shared evaluator never routed a check")
	}
}

func TestDifferentialPlannersTiny(t *testing.T) {
	assertPlannersAgree(t, buildTinyTask(t), klotski.Options{})
}

func TestIncrementalVsFullTiny(t *testing.T) {
	assertIncrementalMatchesFull(t, buildTinyTask(t), klotski.Options{})
}

func TestIncrementalVsFullSuites(t *testing.T) {
	for _, name := range []string{"A", "B", "C"} {
		t.Run(name, func(t *testing.T) {
			s, err := klotski.Suite(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			assertIncrementalMatchesFull(t, s.Task, klotski.Options{})
		})
	}
}

// TestIncrementalVsFullRandomFabrics draws seeded random HGRID fabrics and
// requires a shared, already-used evaluator and a fresh one to produce
// byte-identical plans on each.
func TestIncrementalVsFullRandomFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("property test over generated fabrics")
	}
	rng := rand.New(rand.NewSource(20260806))
	const cases = 6
	for i := 0; i < cases; i++ {
		p := gen.HGRIDScenarioParams{
			Region: klotski.RegionParams{
				Name: fmt.Sprintf("incprop-%d", i),
				DCs: []gen.FabricParams{{
					Pods:        1 + rng.Intn(2),
					RSWPerPod:   2,
					Planes:      4,
					SSWPerPlane: 1 + rng.Intn(2),
					FSWUplinks:  1,
				}},
				HGRID: gen.HGRIDParams{
					Grids:        2 + rng.Intn(3),
					FADUPerGrid:  1 + rng.Intn(2),
					FAUUPerGrid:  1,
					SSWDownlinks: 1,
				},
				EBs: 2, DRs: 1, EBBs: 1,
			},
			Demand:            gen.DemandSpec{BaseUtil: 0.30 + 0.15*rng.Float64()},
			V2GridFactor:      1 + rng.Intn(2),
			V2CapFactor:       0.5 + 0.5*rng.Float64(),
			PortHeadroomGrids: 1,
		}
		theta := 0.65 + 0.2*rng.Float64()
		t.Run(fmt.Sprintf("case=%d", i), func(t *testing.T) {
			s, err := gen.HGRIDScenario(p.Region.Name, p)
			if err != nil {
				t.Fatalf("generating fabric: %v", err)
			}
			assertIncrementalMatchesFull(t, s.Task, klotski.Options{Theta: theta, MaxStates: 500_000})
		})
	}
}

func TestDifferentialPlannersSuites(t *testing.T) {
	for _, name := range []string{"A", "B"} {
		t.Run(name, func(t *testing.T) {
			s, err := klotski.Suite(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			assertPlannersAgree(t, s.Task, klotski.Options{})
		})
	}
}

// TestDifferentialPlannersRunCap exercises the MaxRunLength extension of
// both planners, where the DP tail dimension and the A* forced-split logic
// were derived independently.
func TestDifferentialPlannersRunCap(t *testing.T) {
	task := buildTinyTask(t)
	for _, maxRun := range []int{1, 2} {
		t.Run(fmt.Sprintf("maxrun=%d", maxRun), func(t *testing.T) {
			assertPlannersAgree(t, task, klotski.Options{MaxRunLength: maxRun, Alpha: 0.1})
		})
	}
}

// TestDifferentialPlannersRandomFabrics is the seeded property test: draw
// random HGRID V1→V2 fabrics — varying grid counts, node counts, capacity
// ratios, port headroom, and utilization bounds — and require planner
// agreement on every one. The seed is fixed, so a failure reproduces.
func TestDifferentialPlannersRandomFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("property test over generated fabrics")
	}
	rng := rand.New(rand.NewSource(20260805))
	const cases = 8
	for i := 0; i < cases; i++ {
		p := gen.HGRIDScenarioParams{
			Region: klotski.RegionParams{
				Name: fmt.Sprintf("prop-%d", i),
				DCs: []gen.FabricParams{{
					Pods:        1 + rng.Intn(2),
					RSWPerPod:   2,
					Planes:      4,
					SSWPerPlane: 1 + rng.Intn(2),
					FSWUplinks:  1,
				}},
				HGRID: gen.HGRIDParams{
					Grids:        2 + rng.Intn(3),
					FADUPerGrid:  1 + rng.Intn(2),
					FAUUPerGrid:  1,
					SSWDownlinks: 1,
				},
				EBs: 2, DRs: 1, EBBs: 1,
			},
			Demand:            gen.DemandSpec{BaseUtil: 0.30 + 0.15*rng.Float64()},
			V2GridFactor:      1 + rng.Intn(2),
			V2CapFactor:       0.5 + 0.5*rng.Float64(),
			PortHeadroomGrids: 1,
		}
		theta := 0.65 + 0.2*rng.Float64()
		t.Run(fmt.Sprintf("case=%d", i), func(t *testing.T) {
			s, err := gen.HGRIDScenario(p.Region.Name, p)
			if err != nil {
				t.Fatalf("generating fabric: %v", err)
			}
			assertPlannersAgree(t, s.Task, klotski.Options{Theta: theta, MaxStates: 500_000})
		})
	}
}
