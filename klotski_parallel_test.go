package klotski_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"klotski"
)

// Worker-invariance testing: both planners and their audits are serial,
// and the deprecated Options.Workers is ignored. So at every worker setting
// a plan must be the same plan document byte for byte — the same
// floating-point operations in the same order — found with the same
// effort: every Metrics field but the wall clock. These tests go with the
// Workers field.

func parallelWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		counts = append(counts, n)
	}
	return counts
}

// assertWorkerInvariant plans the task with both planners at Workers 0,
// then at each worker setting, requiring identical plan-document bytes and
// identical Metrics apart from PlanningTime.
func assertWorkerInvariant(t *testing.T, task *klotski.Task, opts klotski.Options, workers []int) {
	t.Helper()
	planners := []struct {
		name string
		plan func(*klotski.Task, klotski.Options) (*klotski.Plan, error)
	}{{"astar", klotski.PlanAStar}, {"dp", klotski.PlanDP}}
	for _, p := range planners {
		ref, errR := p.plan(task, opts)
		var want []byte
		if errR == nil {
			want = planBytes(t, task, ref, opts)
			ref.Metrics.PlanningTime = 0
		}
		for _, w := range workers {
			label := fmt.Sprintf("%s workers=%d", p.name, w)
			o := opts
			o.Workers = w
			got, err := p.plan(task, o)
			if errR != nil {
				if !errors.Is(errR, klotski.ErrInfeasible) || !errors.Is(err, klotski.ErrInfeasible) {
					t.Fatalf("%s: %v, at Workers 0: %v", label, err, errR)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v, Workers 0 plans fine", label, err)
			}
			if b := planBytes(t, task, got, opts); !bytes.Equal(b, want) {
				t.Fatalf("%s: plan differs:\n%s\nwant:\n%s", label, b, want)
			}
			got.Metrics.PlanningTime = 0
			if got.Metrics != ref.Metrics {
				t.Fatalf("%s: metrics %+v, at Workers 0 %+v", label, got.Metrics, ref.Metrics)
			}
		}
	}
}

// randomHGRIDFabric draws one random HGRID V1→V2 scenario.
func randomHGRIDFabric(rng *rand.Rand, name string) klotski.HGRIDScenarioParams {
	return klotski.HGRIDScenarioParams{
		Region: klotski.RegionParams{
			Name: name,
			DCs: []klotski.FabricParams{{
				Pods:        1 + rng.Intn(2),
				RSWPerPod:   2,
				Planes:      4,
				SSWPerPlane: 1 + rng.Intn(2),
				FSWUplinks:  1,
			}},
			HGRID: klotski.HGRIDParams{
				Grids:        2 + rng.Intn(3),
				FADUPerGrid:  1 + rng.Intn(2),
				FAUUPerGrid:  1,
				SSWDownlinks: 1,
			},
			EBs: 2, DRs: 1, EBBs: 1,
		},
		Demand:            klotski.DemandSpec{BaseUtil: 0.30 + 0.15*rng.Float64()},
		V2GridFactor:      1 + rng.Intn(2),
		V2CapFactor:       0.5 + 0.5*rng.Float64(),
		PortHeadroomGrids: 1,
	}
}

func TestParallelMatchesSerialTiny(t *testing.T) {
	assertWorkerInvariant(t, buildTinyTask(t), klotski.Options{}, parallelWorkerCounts())
}

func TestParallelMatchesSerialSuites(t *testing.T) {
	for _, name := range []string{"A", "B", "C"} {
		t.Run(name, func(t *testing.T) {
			s, err := klotski.Suite(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			assertWorkerInvariant(t, s.Task, klotski.Options{}, parallelWorkerCounts())
		})
	}
}

// TestParallelMatchesSerialRandomFabrics is the seeded property test: draw
// random HGRID V1→V2 fabrics, a third of them under a run cap, and require
// worker invariance at every worker count. The seed is fixed, so a failure
// reproduces.
func TestParallelMatchesSerialRandomFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("property test over generated fabrics")
	}
	rng := rand.New(rand.NewSource(20260807))
	const cases = 20
	for i := 0; i < cases; i++ {
		p := randomHGRIDFabric(rng, fmt.Sprintf("parprop-%d", i))
		theta := 0.65 + 0.2*rng.Float64()
		maxRun := rng.Intn(3) // exercise the tail dimension in a third of cases
		t.Run(fmt.Sprintf("case=%d", i), func(t *testing.T) {
			s, err := klotski.HGRIDScenario(p.Region.Name, p)
			if err != nil {
				t.Fatalf("generating fabric: %v", err)
			}
			assertWorkerInvariant(t, s.Task,
				klotski.Options{Theta: theta, MaxRunLength: maxRun, MaxStates: 500_000},
				parallelWorkerCounts())
		})
	}
}

// TestMetricsWorkerInvariant covers every kind of Options.Workers value
// (default, one, several, the lowest accepted) on the tiny task, suites A–C
// and six seeded random fabrics.
func TestMetricsWorkerInvariant(t *testing.T) {
	workers := []int{0, 1, 2, 4, klotski.WorkersAdaptive}
	t.Run("Tiny", func(t *testing.T) {
		assertWorkerInvariant(t, buildTinyTask(t), klotski.Options{}, workers)
	})
	for _, name := range []string{"A", "B", "C"} {
		t.Run(name, func(t *testing.T) {
			s, err := klotski.Suite(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			assertWorkerInvariant(t, s.Task, klotski.Options{}, workers)
		})
	}
	rng := rand.New(rand.NewSource(20261003))
	for i := 0; i < 6; i++ {
		p := randomHGRIDFabric(rng, fmt.Sprintf("workerinv-%d", i))
		theta := 0.65 + 0.2*rng.Float64()
		t.Run(fmt.Sprintf("case=%d", i), func(t *testing.T) {
			s, err := klotski.HGRIDScenario(p.Region.Name, p)
			if err != nil {
				t.Fatalf("generating fabric: %v", err)
			}
			assertWorkerInvariant(t, s.Task, klotski.Options{Theta: theta, MaxStates: 500_000}, workers)
		})
	}
}

// TestCheckpointCrossWorkerResume asserts checkpoint compatibility across
// worker settings: a search interrupted under one Workers value resumes
// under another, producing the exact plan an uninterrupted run produces. It also pins that
// the resumed leg honors the checkpoint's satisfiability cache — the legs
// together run exactly the checks of an uninterrupted search.
func TestCheckpointCrossWorkerResume(t *testing.T) {
	s, err := klotski.Suite("C", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	task := s.Task
	plan := func(name string, o klotski.Options) (*klotski.Plan, error) {
		if name == "astar" {
			return klotski.PlanAStarContext(context.Background(), task, o)
		}
		return klotski.PlanDPContext(context.Background(), task, o)
	}
	for _, name := range []string{"astar", "dp"} {
		ref, err := plan(name, klotski.Options{})
		if err != nil {
			t.Fatalf("%s reference plan: %v", name, err)
		}
		for _, dir := range []struct {
			label         string
			first, second int
		}{
			{"serial-to-parallel", 0, 4},
			{"parallel-to-serial", 4, 0},
		} {
			t.Run(name+"/"+dir.label, func(t *testing.T) {
				_, err := plan(name, klotski.Options{Workers: dir.first, MaxStates: 6})
				var intr *klotski.Interrupted
				if !errors.As(err, &intr) {
					t.Fatalf("want *Interrupted under MaxStates=6, got %v", err)
				}
				got, err := klotski.ResumePlan(context.Background(), intr.Checkpoint,
					klotski.Options{Workers: dir.second})
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				if got.Cost != ref.Cost {
					t.Fatalf("resumed cost %v != serial cost %v", got.Cost, ref.Cost)
				}
				if len(got.Sequence) != len(ref.Sequence) {
					t.Fatalf("resumed sequence length %d != %d", len(got.Sequence), len(ref.Sequence))
				}
				for i := range got.Sequence {
					if got.Sequence[i] != ref.Sequence[i] {
						t.Fatalf("resumed plan diverges at step %d: %v vs %v",
							i, got.Sequence, ref.Sequence)
					}
				}
				if got.Metrics.Checks != ref.Metrics.Checks {
					t.Errorf("interrupted and resumed legs ran %d checks, an uninterrupted search %d",
						got.Metrics.Checks, ref.Metrics.Checks)
				}
			})
		}
	}
}
