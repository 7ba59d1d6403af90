package klotski_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"klotski"
)

// Lower-bound engine integration tests: certified optimality gaps on every
// planner run, byte-identical plans with bound-guided pruning attached
// (across planners, worker counts, and cold/warm engines), brute-force
// admissibility on exhaustively enumerable fabrics, and gap restoration
// across checkpoint/resume.

// assertSameSequence fails unless got matches ref exactly.
func assertSameSequence(t *testing.T, label string, ref, got *klotski.Plan) {
	t.Helper()
	if got.Cost != ref.Cost {
		t.Fatalf("%s: cost %v != reference %v", label, got.Cost, ref.Cost)
	}
	if len(got.Sequence) != len(ref.Sequence) {
		t.Fatalf("%s: sequence length %d != reference %d", label, len(got.Sequence), len(ref.Sequence))
	}
	for i := range got.Sequence {
		if got.Sequence[i] != ref.Sequence[i] {
			t.Fatalf("%s: sequence diverges at step %d: %v vs %v", label, i, got.Sequence, ref.Sequence)
		}
	}
}

// assertCertifiedOptimal requires a successful optimal-planner run to
// carry a closed certificate: incumbent = lower bound = plan cost, gap 0.
func assertCertifiedOptimal(t *testing.T, label string, plan *klotski.Plan) {
	t.Helper()
	m := plan.Metrics
	if m.OptimalityGap != 0 {
		t.Errorf("%s: OptimalityGap = %v, want 0 on a completed optimal run", label, m.OptimalityGap)
	}
	if m.IncumbentCost != plan.Cost {
		t.Errorf("%s: IncumbentCost = %v, want plan cost %v", label, m.IncumbentCost, plan.Cost)
	}
	if m.LowerBound != plan.Cost {
		t.Errorf("%s: LowerBound = %v, want plan cost %v", label, m.LowerBound, plan.Cost)
	}
	if plan.Audit != nil && plan.Audit.Gap != m.OptimalityGap {
		t.Errorf("%s: audit report gap %v != metrics gap %v", label, plan.Audit.Gap, m.OptimalityGap)
	}
}

// TestCertifiedGapOnEveryPlanner verifies all four planners stamp a
// certificate: the optimal planners close it (gap 0), the baselines
// report a zero (absent) certificate rather than a false claim.
func TestCertifiedGapOnEveryPlanner(t *testing.T) {
	task := buildTinyTask(t)
	astar, err := klotski.PlanAStar(task, klotski.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertCertifiedOptimal(t, "astar", astar)
	dp, err := klotski.PlanDP(task, klotski.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertCertifiedOptimal(t, "dp", dp)

	mrc, err := klotski.PlanMRC(task, klotski.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := mrc.Metrics
	if m.IncumbentCost != 0 || m.LowerBound != 0 || m.OptimalityGap != 0 {
		t.Errorf("mrc: baselines must not claim a certificate, got (%v, %v, %v)",
			m.IncumbentCost, m.LowerBound, m.OptimalityGap)
	}
}

func TestCertifiedGapSuites(t *testing.T) {
	for _, name := range []string{"A", "C"} {
		t.Run(name, func(t *testing.T) {
			s, err := klotski.Suite(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{0, 4} {
				astar, err := klotski.PlanAStar(s.Task, klotski.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				assertCertifiedOptimal(t, fmt.Sprintf("astar/w=%d", w), astar)
				dp, err := klotski.PlanDP(s.Task, klotski.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				assertCertifiedOptimal(t, fmt.Sprintf("dp/w=%d", w), dp)
			}
		})
	}
}

// assertBoundedByteIdentical is the pruning differential harness: for each
// planner and worker count, a fresh engine is warmed by one cold serial
// run and the warm run's plan must be byte-identical to the unpruned
// reference. Warm-run prune counters must agree across worker counts —
// pruning decisions are a function of the engine state, not of timing.
func assertBoundedByteIdentical(t *testing.T, task *klotski.Task, opts klotski.Options, wantPrune bool) {
	t.Helper()
	refA, err := klotski.PlanAStar(task, opts)
	if err != nil {
		t.Fatalf("reference astar: %v", err)
	}
	refD, err := klotski.PlanDP(task, opts)
	if err != nil {
		t.Fatalf("reference dp: %v", err)
	}
	assertSameSequence(t, "astar-vs-dp", refA, refD)

	workers := []int{1, 2, 4, runtime.NumCPU()}
	planners := []struct {
		name string
		ref  *klotski.Plan
		plan func(o klotski.Options, w int) (*klotski.Plan, error)
	}{
		{"astar", refA, func(o klotski.Options, w int) (*klotski.Plan, error) {
			return klotski.PlanAStar(task, withWorkers(o, w))
		}},
		{"dp", refD, func(o klotski.Options, w int) (*klotski.Plan, error) {
			return klotski.PlanDP(task, withWorkers(o, w))
		}},
	}
	for _, p := range planners {
		pruned := make([]int, 0, len(workers))
		for _, w := range workers {
			// Fresh engine per worker count so every warm run measures
			// pruning against the identical engine state.
			bopts := opts
			bopts.Bound = klotski.NewBoundEngine(task, opts)
			cold, err := p.plan(bopts, 1)
			if err != nil {
				t.Fatalf("%s cold w=%d: %v", p.name, w, err)
			}
			assertSameSequence(t, fmt.Sprintf("%s/cold/w=%d", p.name, w), p.ref, cold)
			warm, err := p.plan(bopts, w)
			if err != nil {
				t.Fatalf("%s warm w=%d: %v", p.name, w, err)
			}
			assertSameSequence(t, fmt.Sprintf("%s/warm/w=%d", p.name, w), p.ref, warm)
			assertCertifiedOptimal(t, fmt.Sprintf("%s/warm/w=%d", p.name, w), warm)
			pruned = append(pruned, warm.Metrics.BoundStatesPruned)
			if warm.Metrics.BoundCutsLearned < 0 || warm.Metrics.BoundCutHits < 0 {
				t.Fatalf("%s warm w=%d: negative bound counters: %+v", p.name, w, warm.Metrics)
			}
		}
		for i := 1; i < len(pruned); i++ {
			if pruned[i] != pruned[0] {
				t.Errorf("%s: BoundStatesPruned varies with workers: %v (workers %v)", p.name, pruned, workers)
			}
		}
		if wantPrune && pruned[0] == 0 {
			t.Errorf("%s: warm run pruned nothing on a fixture with infeasible walls", p.name)
		}
	}
}

func TestBoundedPlansByteIdenticalTiny(t *testing.T) {
	// The tiny task has no infeasible interior, so this pins the inert
	// case: an attached engine that never fires must change nothing.
	assertBoundedByteIdentical(t, buildTinyTask(t), klotski.Options{}, false)
}

func TestBoundedPlansByteIdenticalSuites(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
	}{{"C", 0.1}, {"E", 0.25}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := klotski.Suite(tc.name, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			assertBoundedByteIdentical(t, s.Task, klotski.Options{}, true)
		})
	}
}

// TestBoundedPlansRandomFabrics is the seeded property sweep: random
// HGRID fabrics must keep bounded plans byte-identical too.
func TestBoundedPlansRandomFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("property test over generated fabrics")
	}
	rng := rand.New(rand.NewSource(20260808))
	const cases = 5
	for i := 0; i < cases; i++ {
		p := klotski.HGRIDScenarioParams{
			Region: klotski.RegionParams{
				Name: fmt.Sprintf("bound-%d", i),
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
		theta := 0.65 + 0.2*rng.Float64()
		t.Run(fmt.Sprintf("case=%d", i), func(t *testing.T) {
			s, err := klotski.HGRIDScenario(p.Region.Name, p)
			if err != nil {
				t.Fatalf("generating fabric: %v", err)
			}
			_, errA := klotski.PlanAStar(s.Task, klotski.Options{Theta: theta, MaxStates: 500_000})
			if errA != nil {
				if errors.Is(errA, klotski.ErrInfeasible) {
					return // nothing to compare on an infeasible draw
				}
				t.Fatalf("reference: %v", errA)
			}
			assertBoundedByteIdentical(t, s.Task, klotski.Options{Theta: theta, MaxStates: 500_000}, false)
		})
	}
}

// bruteForcePaths enumerates every canonical monotone completion of the
// task's count lattice, returning for each feasible full path its cost —
// an independent brute-force optimum the planners and the bound engine
// are checked against. It also records, per visited (counts, last)
// prefix state, the cheapest feasible completion cost observed from it.
type bruteState struct {
	counts string // fmt of per-type counts
	last   klotski.ActionType
}

func bruteForce(t *testing.T, task *klotski.Task, opts klotski.Options) (best float64, completions map[bruteState]float64) {
	t.Helper()
	totals := task.Counts()
	nTypes := task.NumTypes()
	byType := make([][]int, nTypes)
	for a := 0; a < nTypes; a++ {
		byType[a] = task.BlocksOfType(klotski.ActionType(a))
	}
	best = math.Inf(1)
	completions = make(map[bruteState]float64)

	counts := make([]int, nTypes)
	var seq []int
	var walk func()
	walk = func() {
		done := true
		for a := 0; a < nTypes; a++ {
			if counts[a] < totals[a] {
				done = false
				break
			}
		}
		if done {
			if klotski.VerifyPlan(task, seq, opts) != nil {
				return
			}
			total := klotski.SequenceCost(task, seq, opts.Alpha, klotski.NoLast)
			if total < best {
				best = total
			}
			// Credit every prefix state with this completion's suffix cost.
			for k := 0; k <= len(seq); k++ {
				last := klotski.NoLast
				if k > 0 {
					last = task.Blocks[seq[k-1]].Type
				}
				pc := make([]int, nTypes)
				for _, id := range seq[:k] {
					pc[task.Blocks[id].Type]++
				}
				st := bruteState{fmt.Sprint(pc), last}
				suffix := total - klotski.SequenceCost(task, seq[:k], opts.Alpha, klotski.NoLast)
				if cur, ok := completions[st]; !ok || suffix < cur {
					completions[st] = suffix
				}
			}
			return
		}
		for a := 0; a < nTypes; a++ {
			if counts[a] >= totals[a] {
				continue
			}
			seq = append(seq, byType[a][counts[a]])
			counts[a]++
			walk()
			counts[a]--
			seq = seq[:len(seq)-1]
		}
	}
	walk()
	return best, completions
}

// TestBruteForceOptimalAndAdmissible exhaustively enumerates small
// fabrics: the planners must hit the brute-force optimum exactly, and the
// completion lower bound must never exceed the cheapest feasible
// completion from any reachable state.
func TestBruteForceOptimalAndAdmissible(t *testing.T) {
	fabrics := []struct {
		name string
		task *klotski.Task
	}{{"tiny", buildTinyTask(t)}}
	if s, err := klotski.Suite("C", 0.1); err == nil {
		fabrics = append(fabrics, struct {
			name string
			task *klotski.Task
		}{"suiteC", s.Task})
	}
	for _, f := range fabrics {
		t.Run(f.name, func(t *testing.T) {
			opts := klotski.Options{}
			best, completions := bruteForce(t, f.task, opts)
			if math.IsInf(best, 1) {
				t.Fatal("brute force found no feasible plan")
			}
			plan, err := klotski.PlanAStar(f.task, opts)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(plan.Cost-best) > 1e-9 {
				t.Fatalf("planner cost %v != brute-force optimum %v", plan.Cost, best)
			}
			assertCertifiedOptimal(t, "astar", plan)

			// Admissibility: the counting relaxation must lower-bound the
			// cheapest observed feasible completion from every state.
			nTypes := f.task.NumTypes()
			for st, suffix := range completions {
				counts := parseCounts(st.counts, nTypes)
				lb := klotski.CompletionLowerBound(f.task, counts, st.last, opts.Alpha, opts.MaxRunLength)
				if lb > suffix+1e-9 {
					t.Errorf("inadmissible bound at counts=%v last=%d: lb %v > feasible completion %v",
						counts, st.last, lb, suffix)
				}
			}
		})
	}
}

// trimBrackets strips the surrounding [ ] of a fmt.Sprint'ed int slice.
func trimBrackets(s string) string {
	if len(s) >= 2 && s[0] == '[' && s[len(s)-1] == ']' {
		return s[1 : len(s)-1]
	}
	return s
}

// parseCounts recovers a count vector from its fmt.Sprint form.
func parseCounts(s string, n int) []int {
	counts := make([]int, n)
	fields := trimBrackets(s)
	idx := 0
	cur, have := 0, false
	for i := 0; i <= len(fields); i++ {
		if i == len(fields) || fields[i] == ' ' {
			if have && idx < n {
				counts[idx] = cur
				idx++
			}
			cur, have = 0, false
			continue
		}
		cur = cur*10 + int(fields[i]-'0')
		have = true
	}
	return counts
}

// TestCompletionBoundAlongOptimalPlan is the sampled admissibility
// property on fabrics too large to enumerate: walking the optimal plan,
// the bound from every prefix state must not exceed the plan's own
// remaining cost (a feasible completion).
func TestCompletionBoundAlongOptimalPlan(t *testing.T) {
	s, err := klotski.Suite("E", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	task := s.Task
	opts := klotski.Options{}
	plan, err := klotski.PlanDP(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, task.NumTypes())
	for k := 0; k <= len(plan.Sequence); k++ {
		last := klotski.NoLast
		if k > 0 {
			last = task.Blocks[plan.Sequence[k-1]].Type
		}
		remaining := plan.Cost - klotski.SequenceCost(task, plan.Sequence[:k], opts.Alpha, klotski.NoLast)
		lb := klotski.CompletionLowerBound(task, counts, last, opts.Alpha, opts.MaxRunLength)
		if lb > remaining+1e-9 {
			t.Fatalf("inadmissible bound at step %d: lb %v > remaining plan cost %v", k, lb, remaining)
		}
		if k < len(plan.Sequence) {
			counts[task.Blocks[plan.Sequence[k]].Type]++
		}
	}
}

// TestCheckpointGapRestoredAcrossResume verifies the anytime certificate
// travels through interruption: the checkpoint carries the lower bound
// proven so far (gap 1, no incumbent yet), and resuming — across worker
// counts, with a bound engine attached — closes it to gap 0 with the
// byte-identical plan.
func TestCheckpointGapRestoredAcrossResume(t *testing.T) {
	s, err := klotski.Suite("C", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	task := s.Task
	for _, name := range []string{"astar", "dp"} {
		plan := func(o klotski.Options) (*klotski.Plan, error) {
			if name == "astar" {
				return klotski.PlanAStarContext(context.Background(), task, o)
			}
			return klotski.PlanDPContext(context.Background(), task, o)
		}
		ref, err := plan(klotski.Options{})
		if err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		for _, dir := range []struct {
			label         string
			first, second int
		}{
			{"serial-to-parallel", 0, 4},
			{"parallel-to-serial", 4, 0},
		} {
			t.Run(name+"/"+dir.label, func(t *testing.T) {
				eng := klotski.NewBoundEngine(task, klotski.Options{})
				_, err := plan(klotski.Options{Workers: dir.first, MaxStates: 6, Bound: eng})
				var intr *klotski.Interrupted
				if !errors.As(err, &intr) {
					t.Fatalf("want *Interrupted under MaxStates=6, got %v", err)
				}
				inc, lb, gap := intr.Checkpoint.Gap()
				if inc != 0 || gap != 1 {
					t.Fatalf("interrupted certificate should be open: got incumbent %v, gap %v", inc, gap)
				}
				if lb <= 0 {
					t.Fatalf("interrupted run proved no lower bound: %v", lb)
				}
				if lb > ref.Cost+1e-9 {
					t.Fatalf("checkpointed lower bound %v exceeds optimal cost %v", lb, ref.Cost)
				}
				got, err := klotski.ResumePlan(context.Background(), intr.Checkpoint,
					klotski.Options{Workers: dir.second})
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				assertSameSequence(t, "resumed", ref, got)
				assertCertifiedOptimal(t, "resumed", got)
				if got.Metrics.LowerBound < lb-1e-9 {
					t.Errorf("resume loosened the certificate: %v < checkpointed %v", got.Metrics.LowerBound, lb)
				}
			})
		}
	}
}

// TestDPAccountingSerialMatchesParallel pins that the DP planner's effort
// accounting does not depend on Options.Workers, at the benchmark's scale
// too: suite E × 0.25 is the plan-large fabric, whose 1432 states/op the
// bench guard's baseline records.
func TestDPAccountingSerialMatchesParallel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		scale float64
	}{{"C", 0.1}, {"E", 0.25}} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := klotski.Suite(tc.name, tc.scale)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := klotski.PlanDP(s.Task, klotski.Options{})
			if err != nil {
				t.Fatal(err)
			}
			serial.Metrics.PlanningTime = 0
			for _, w := range []int{2, 4} {
				par, err := klotski.PlanDP(s.Task, klotski.Options{Workers: w})
				if err != nil {
					t.Fatal(err)
				}
				assertSameSequence(t, fmt.Sprintf("w=%d", w), serial, par)
				par.Metrics.PlanningTime = 0
				if par.Metrics != serial.Metrics {
					t.Errorf("w=%d: metrics %+v, at Workers 0 %+v", w, par.Metrics, serial.Metrics)
				}
			}
		})
	}
}
