package core

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"klotski/internal/demand"
	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// bridgeTask builds a controllable migration microcosm: nOld active and
// nNew inactive parallel "bridges" between src and dst, one demand of the
// given rate, and an optional port budget on src. Draining an old bridge
// and undraining a new one are the two action types; ECMP splits the demand
// equally across up bridges, so θ, capacities, and ports fully determine
// which plans are safe.
func bridgeTask(t testing.TB, nOld, nNew int, oldCap, newCap, rate float64, srcPorts int) *migration.Task {
	t.Helper()
	tp := topo.New("bridges")
	src := tp.AddSwitch(topo.Switch{Name: "src", Role: topo.RoleRSW})
	dst := tp.AddSwitch(topo.Switch{Name: "dst", Role: topo.RoleEBB})
	task := &migration.Task{Name: "bridges", Topo: tp}
	d := task.AddType(migration.ActionTypeInfo{Name: "drain-old", Op: migration.Drain, Role: topo.RoleFADU})
	u := task.AddType(migration.ActionTypeInfo{Name: "undrain-new", Op: migration.Undrain, Role: topo.RoleFADU})
	for i := 0; i < nOld; i++ {
		s := tp.AddSwitch(topo.Switch{Name: "old" + string(rune('a'+i)), Role: topo.RoleFADU, Generation: 1})
		tp.AddCircuit(src, s, oldCap)
		tp.AddCircuit(s, dst, oldCap)
		task.AddBlock(migration.Block{Type: d, Switches: []topo.SwitchID{s}})
	}
	for i := 0; i < nNew; i++ {
		s := tp.AddSwitch(topo.Switch{Name: "new" + string(rune('a'+i)), Role: topo.RoleFADU, Generation: 2})
		tp.SetSwitchActive(s, false)
		tp.AddCircuit(src, s, newCap)
		tp.AddCircuit(s, dst, newCap)
		task.AddBlock(migration.Block{Type: u, Switches: []topo.SwitchID{s}})
	}
	if srcPorts > 0 {
		tp.SetPorts(src, srcPorts)
	}
	task.Demands.Add(demand.Demand{Name: "d", Src: src, Dst: dst, Rate: rate})
	return task
}

// bruteForceOptimal exhaustively enumerates all type sequences under the
// same boundary-check semantics as the planners and returns the optimal
// cost, or +Inf when no safe plan exists. It is the reference oracle for
// optimality tests.
func bruteForceOptimal(t testing.TB, task *migration.Task, opts Options) float64 {
	t.Helper()
	sp, err := newSpace(task, opts)
	if err != nil {
		t.Fatalf("newSpace: %v", err)
	}
	startIdx, _ := sp.intern(sp.initial)
	if !sp.feasible(startIdx, NoLast) {
		return math.Inf(1)
	}
	targetIdx, _ := sp.intern(sp.totals)
	if !sp.feasible(targetIdx, NoLast) {
		return math.Inf(1)
	}
	best := math.Inf(1)
	vec := append([]uint16(nil), sp.initial...)
	var rec func(last migration.ActionType, tail int, cost float64)
	rec = func(last migration.ActionType, tail int, cost float64) {
		if cost >= best {
			return
		}
		done := true
		for i := range vec {
			if vec[i] != sp.totals[i] {
				done = false
				break
			}
		}
		idx, _ := sp.intern(vec)
		if done {
			if sp.feasible(idx, last) && cost < best {
				best = cost
			}
			return
		}
		for a := 0; a < sp.nTypes; a++ {
			at := migration.ActionType(a)
			if vec[a] >= sp.totals[a] {
				continue
			}
			step, newTail, needsBoundary := sp.step(last, at, tail)
			if needsBoundary && last != NoLast && !sp.feasible(idx, last) {
				continue
			}
			vec[a]++
			rec(at, newTail, cost+step)
			vec[a]--
		}
	}
	rec(sp.startLast, sp.startTail, 0)
	return best
}

// checkPlan asserts the plan is internally consistent: valid sequence,
// advertised cost matches SequenceCost, and VerifyPlan accepts it.
func checkPlan(t *testing.T, task *migration.Task, p *Plan, opts Options) {
	t.Helper()
	if err := ValidateSequence(task, p.Sequence, opts.Executed); err != nil {
		t.Fatalf("plan sequence invalid: %v", err)
	}
	ex := opts.Executed
	whole := append(slices.Clone(ex), p.Sequence...)
	if got := SequenceCostCapped(task, whole, opts.Alpha, NoLast, opts.MaxRunLength, 0) -
		SequenceCostCapped(task, ex, opts.Alpha, NoLast, opts.MaxRunLength, 0); math.Abs(got-p.Cost) > 1e-9 {
		t.Fatalf("plan cost %v, SequenceCost says %v", p.Cost, got)
	}
	if err := VerifyPlan(task, p.Sequence, opts); err != nil {
		t.Fatalf("VerifyPlan rejected planner output: %v", err)
	}
}

// planBoth runs A* and DP, asserting both succeed with equal cost, and
// returns the A* plan.
func planBoth(t *testing.T, task *migration.Task, opts Options) *Plan {
	t.Helper()
	pa, err := PlanAStar(task, opts)
	if err != nil {
		t.Fatalf("PlanAStar: %v", err)
	}
	pd, err := PlanDP(task, opts)
	if err != nil {
		t.Fatalf("PlanDP: %v", err)
	}
	if math.Abs(pa.Cost-pd.Cost) > 1e-9 {
		t.Fatalf("A* cost %v != DP cost %v", pa.Cost, pd.Cost)
	}
	checkPlan(t, task, pa, opts)
	checkPlan(t, task, pd, opts)
	return pa
}

func TestTrivialTwoRunPlan(t *testing.T) {
	// Plenty of capacity, no port budget: undrain everything then drain
	// everything (or vice versa) = cost 2.
	task := bridgeTask(t, 2, 2, 1, 2, 0.5, 0)
	p := planBoth(t, task, Options{})
	if p.Cost != 2 {
		t.Fatalf("cost = %v, want 2 (plan: %s)", p.Cost, p)
	}
	if bf := bruteForceOptimal(t, task, Options{}); bf != 2 {
		t.Fatalf("brute force disagrees: %v", bf)
	}
}

func TestPortBudgetForcesInterleaving(t *testing.T) {
	// src has 2 old + 2 new bridge circuits but ports for 3: at most one
	// new bridge can coexist with both old ones at any run boundary,
	// forcing U/D interleaving.
	task := bridgeTask(t, 2, 2, 1, 2, 1.2, 3)
	p := planBoth(t, task, Options{})
	if p.Cost <= 2 {
		t.Fatalf("port budget should raise cost above 2, got %v (%s)", p.Cost, p)
	}
	if bf := bruteForceOptimal(t, task, Options{}); math.Abs(bf-p.Cost) > 1e-9 {
		t.Fatalf("planner cost %v != brute force %v", p.Cost, bf)
	}
}

func TestCapacityBoundForcesWaves(t *testing.T) {
	// Ports admit only one new bridge at a time, and a single up bridge
	// cannot carry the demand at θ = 0.7, so the single U(1) D(2) U(1)
	// interleaving is unsafe too: the planner must alternate in waves of
	// one.
	task := bridgeTask(t, 2, 2, 1, 1, 1.2, 3)
	opts := Options{Theta: 0.7}
	p := planBoth(t, task, opts)
	if bf := bruteForceOptimal(t, task, opts); math.Abs(bf-p.Cost) > 1e-9 {
		t.Fatalf("planner cost %v != brute force %v", p.Cost, bf)
	}
	if len(p.Runs) < 3 {
		t.Fatalf("expected interleaved plan, got %s", p)
	}
}

func TestThetaMonotonicity(t *testing.T) {
	task := bridgeTask(t, 3, 3, 1, 1, 1.5, 7)
	prev := math.Inf(1)
	for _, theta := range []float64{0.95, 0.85, 0.75, 0.65} {
		p, err := PlanAStar(task, Options{Theta: theta})
		if err != nil {
			if errors.Is(err, ErrInfeasible) {
				prev = math.Inf(1)
				continue
			}
			t.Fatalf("theta %v: %v", theta, err)
		}
		if p.Cost > prev && !math.IsInf(prev, 1) {
			// Looser θ earlier in the loop; cost must be non-decreasing as
			// θ tightens — iterate descending so check inverted.
			t.Fatalf("cost should not decrease as theta tightens: %v then %v", prev, p.Cost)
		}
		_ = theta
		prev = p.Cost
	}
}

func TestAlphaCostModel(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 2, 0.5, 0)
	for _, alpha := range []float64{0, 0.25, 0.5, 1} {
		opts := Options{Alpha: alpha}
		p := planBoth(t, task, opts)
		want := bruteForceOptimal(t, task, opts)
		if math.Abs(p.Cost-want) > 1e-9 {
			t.Fatalf("alpha %v: cost %v, brute force %v", alpha, p.Cost, want)
		}
		// With α=1 every action costs 1 regardless of runs.
		if alpha == 1 && p.Cost != float64(task.NumActions()) {
			t.Fatalf("alpha=1 cost should equal action count, got %v", p.Cost)
		}
	}
}

func TestAlphaCostsIncrease(t *testing.T) {
	task := bridgeTask(t, 3, 3, 1, 2, 0.5, 0)
	prev := -1.0
	for _, alpha := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		p, err := PlanAStar(task, Options{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		if p.Cost < prev {
			t.Fatalf("cost decreased as alpha grew: %v then %v", prev, p.Cost)
		}
		prev = p.Cost
	}
}

func TestUnitCosts(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 2, 0.5, 0)
	task.Types[0].UnitCost = 5 // drains are expensive
	p := planBoth(t, task, Options{})
	// One drain run (5) + one undrain run (1).
	if p.Cost != 6 {
		t.Fatalf("unit-cost plan cost = %v, want 6", p.Cost)
	}
}

func TestInfeasibleRate(t *testing.T) {
	// Even the final state cannot carry the demand.
	task := bridgeTask(t, 2, 2, 1, 1, 10, 0)
	if _, err := PlanAStar(task, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if _, err := PlanDP(task, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("DP: want ErrInfeasible, got %v", err)
	}
}

func TestInfeasibleInitial(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 4, 1.8, 0) // initial util 0.9 > 0.75
	if _, err := PlanAStar(task, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible for unsafe initial state, got %v", err)
	}
}

func TestBudgetExceeded(t *testing.T) {
	task := bridgeTask(t, 4, 4, 1, 2, 0.5, 0)
	if _, err := PlanAStar(task, Options{MaxStates: 2}); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if _, err := PlanDP(task, Options{MaxStates: 2}); !errors.Is(err, ErrBudget) {
		t.Fatalf("DP: want ErrBudget, got %v", err)
	}
}

func TestEmptyTaskRejected(t *testing.T) {
	task := &migration.Task{Name: "empty", Topo: topo.New("t")}
	if _, err := PlanAStar(task, Options{}); err == nil {
		t.Fatal("empty task should error")
	}
}

func TestAblationVariantsStayOptimal(t *testing.T) {
	task := bridgeTask(t, 3, 3, 1, 1, 1.2, 8)
	base := planBoth(t, task, Options{})
	variants := []Options{
		{DisableHeuristic: true},
		{DisableSecondaryPriority: true},
		{DisableCache: true},
		{DisableHeuristic: true, DisableCache: true},
	}
	for i, opts := range variants {
		p, err := PlanAStar(task, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if math.Abs(p.Cost-base.Cost) > 1e-9 {
			t.Fatalf("variant %d cost %v != base %v", i, p.Cost, base.Cost)
		}
	}
}

func TestUniformCostVisitsMoreStates(t *testing.T) {
	task := bridgeTask(t, 4, 4, 1, 1, 1.2, 0)
	astar, err := PlanAStar(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ucs, err := PlanAStar(task, Options{DisableHeuristic: true})
	if err != nil {
		t.Fatal(err)
	}
	if ucs.Metrics.StatesPopped < astar.Metrics.StatesPopped {
		t.Errorf("uniform-cost should expand at least as many states: %d vs %d",
			ucs.Metrics.StatesPopped, astar.Metrics.StatesPopped)
	}
}

func TestCacheReducesChecks(t *testing.T) {
	task := bridgeTask(t, 3, 3, 1, 1, 1.2, 0)
	with, err := PlanDP(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := PlanDP(task, Options{DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if with.Cost != without.Cost {
		t.Fatalf("ESC must not change cost: %v vs %v", with.Cost, without.Cost)
	}
	if without.Metrics.Checks < with.Metrics.Checks {
		t.Errorf("disabling the cache should not reduce checks: %d vs %d",
			without.Metrics.Checks, with.Metrics.Checks)
	}
}

func TestReplanningFromPrefix(t *testing.T) {
	task := bridgeTask(t, 3, 3, 1, 1, 1.2, 7)
	full := planBoth(t, task, Options{})

	// Execute the first run plus one action, then replan the rest.
	k := len(full.Runs[0].Blocks) + 1
	opts := Options{Executed: full.Sequence[:k]}
	re := planBoth(t, task, opts)

	prefixCost := SequenceCost(task, full.Sequence[:k], 0, NoLast)
	if re.Cost > full.Cost-prefixCost+1e-9 {
		t.Fatalf("replanned suffix cost %v worse than original suffix %v",
			re.Cost, full.Cost-prefixCost)
	}
	// The combined plan must verify end to end.
	combined := append(append([]int(nil), full.Sequence[:k]...), re.Sequence...)
	if err := VerifyPlan(task, combined, Options{}); err != nil {
		t.Fatalf("combined plan invalid: %v", err)
	}
}

func TestFunnelingRaisesCostOrKeepsIt(t *testing.T) {
	task := bridgeTask(t, 3, 3, 1, 1, 1.1, 0)
	base, err := PlanAStar(task, Options{Theta: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	fun, err := PlanAStar(task, Options{Theta: 0.8, FunnelFactor: 1.3})
	if err != nil {
		if errors.Is(err, ErrInfeasible) {
			return // tighter headroom may make the task unplannable
		}
		t.Fatal(err)
	}
	if fun.Cost < base.Cost {
		t.Fatalf("funneling headroom should not lower cost: %v vs %v", fun.Cost, base.Cost)
	}
	checkPlan(t, task, fun, Options{Theta: 0.8, FunnelFactor: 1.3})
}

func TestSpaceBudgetConstraint(t *testing.T) {
	// All bridges share DC 0; a budget of 6 means the transient can host
	// at most 6 switches (src+dst+4 bridges), so at most 2 extra new
	// bridges may be up before old ones are decommissioned.
	task := bridgeTask(t, 2, 2, 1, 2, 0.5, 0)
	unconstrained := planBoth(t, task, Options{})
	opts := Options{SpaceBudget: map[int]int{0: 6}}
	p, err := PlanAStar(task, opts)
	if err != nil {
		t.Fatalf("space-constrained plan failed: %v", err)
	}
	checkPlan(t, task, p, opts)
	if p.Cost < unconstrained.Cost {
		t.Fatalf("space budget should not lower cost: %v vs %v", p.Cost, unconstrained.Cost)
	}
	// An impossible budget makes the target itself violate space.
	if _, err := PlanAStar(task, Options{SpaceBudget: map[int]int{0: 1}}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible for impossible space budget, got %v", err)
	}
}

func TestVerifyPlanRejectsUnsafeBoundary(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 1, 1.2, 0)
	opts := Options{Theta: 0.7}
	// D,D,U,U drains everything first: the D→U boundary state has zero
	// capacity and must be rejected.
	bad := []int{0, 1, 2, 3}
	if err := VerifyPlan(task, bad, opts); err == nil {
		t.Fatal("VerifyPlan should reject drain-everything-first plan")
	}
	good, err := PlanAStar(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPlan(task, good.Sequence, opts); err != nil {
		t.Fatalf("VerifyPlan rejected a valid plan: %v", err)
	}
}

func TestVerifyPlanRejectsIncompleteAndDisordered(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 2, 0.5, 0)
	if err := VerifyPlan(task, []int{0, 2, 3}, Options{}); err == nil {
		t.Error("incomplete plan should be rejected")
	}
	if err := VerifyPlan(task, []int{1, 0, 2, 3}, Options{}); err == nil {
		t.Error("non-canonical order should be rejected")
	}
	if err := VerifyPlan(task, []int{0, 0, 2, 3}, Options{}); err == nil {
		t.Error("duplicate block should be rejected")
	}
	resumed := Options{Executed: []int{1}}
	if err := VerifyPlan(task, []int{0, 2, 3}, resumed); err == nil || errors.Is(err, ErrInfeasible) {
		t.Errorf("executed block out of canonical order: want a structural error, got %v", err)
	}
	if err := ValidateSequence(task, []int{0, 2, 3}, resumed.Executed); err == nil {
		t.Error("an executed block out of canonical order should fail the sequence check")
	}
}

func TestSequenceCost(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 2, 0.5, 0)
	// Types: 0 = drain, 1 = undrain. Blocks 0,1 drain; 2,3 undrain.
	cases := []struct {
		seq   []int
		alpha float64
		want  float64
	}{
		{[]int{0, 1, 2, 3}, 0, 2},
		{[]int{0, 2, 1, 3}, 0, 4},
		{[]int{0, 1, 2, 3}, 0.5, 3},
		{[]int{2, 3, 0, 1}, 1, 4},
	}
	for _, c := range cases {
		if got := SequenceCost(task, c.seq, c.alpha, NoLast); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("SequenceCost(%v, α=%v) = %v, want %v", c.seq, c.alpha, got, c.want)
		}
	}
	// Continuing an initial run of the same type saves the first unit.
	if got := SequenceCost(task, []int{0, 1}, 0, migration.ActionType(0)); got != 0 {
		t.Errorf("continuation cost = %v, want 0", got)
	}
}

func TestPlanString(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 2, 0.5, 0)
	p, err := PlanAStar(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := p.String()
	if s == "" || len(p.Runs) == 0 {
		t.Fatal("plan should render runs")
	}
}

// Property: on randomized bridge tasks, A*, DP, and exhaustive search agree
// on the optimal cost (or all agree the task is infeasible).
func TestPlannersMatchBruteForceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		nOld := 1 + rng.Intn(3)
		nNew := 1 + rng.Intn(3)
		oldCap := 0.5 + rng.Float64()
		newCap := 0.5 + 1.5*rng.Float64()
		rate := 0.3 + rng.Float64()
		ports := 0
		if rng.Intn(2) == 0 {
			ports = 2*nOld + 1 + rng.Intn(2*nNew)
		}
		alpha := float64(rng.Intn(3)) * 0.3
		theta := 0.55 + 0.4*rng.Float64()
		task := bridgeTask(t, nOld, nNew, oldCap, newCap, rate, ports)
		opts := Options{Theta: theta, Alpha: alpha}

		want := bruteForceOptimal(t, task, opts)
		pa, errA := PlanAStar(task, opts)
		pd, errD := PlanDP(task, opts)
		if math.IsInf(want, 1) {
			if !errors.Is(errA, ErrInfeasible) || !errors.Is(errD, ErrInfeasible) {
				t.Fatalf("trial %d: brute force infeasible but planners said %v / %v", trial, errA, errD)
			}
			continue
		}
		if errA != nil || errD != nil {
			t.Fatalf("trial %d: planners failed (%v / %v) where brute force found %v", trial, errA, errD, want)
		}
		if math.Abs(pa.Cost-want) > 1e-9 || math.Abs(pd.Cost-want) > 1e-9 {
			t.Fatalf("trial %d: A*=%v DP=%v brute=%v (opts %+v)", trial, pa.Cost, pd.Cost, want, opts)
		}
		checkPlan(t, task, pa, opts)
	}
}

func TestKeyerPacking(t *testing.T) {
	// Small totals fit uint64.
	k := newKeyer([]uint16{3, 7, 255})
	if !k.fits64 {
		t.Fatal("small totals should fit uint64")
	}
	a := k.key64([]uint16{1, 2, 3})
	b := k.key64([]uint16{1, 2, 4})
	c := k.key64([]uint16{2, 2, 3})
	if a == b || a == c || b == c {
		t.Error("distinct vectors must have distinct keys")
	}
	// Huge totals fall back to strings.
	big := make([]uint16, 8)
	for i := range big {
		big[i] = 0xFFFF
	}
	k2 := newKeyer(big)
	if k2.fits64 {
		t.Fatal("8×16 bits must not claim to fit uint64")
	}
	if k2.keyStr([]uint16{1, 2, 3, 4, 5, 6, 7, 8}) == k2.keyStr([]uint16{1, 2, 3, 4, 5, 6, 7, 9}) {
		t.Error("string keys must distinguish vectors")
	}
}

func TestHeuristicAdmissibleAndConsistent(t *testing.T) {
	task := bridgeTask(t, 3, 2, 1, 2, 0.5, 0)
	for _, alpha := range []float64{0, 0.4, 1} {
		sp, err := newSpace(task, Options{Alpha: alpha})
		if err != nil {
			t.Fatal(err)
		}
		// Enumerate all states; verify h(n) ≤ h(n') + c(n,n') for every
		// successor (consistency), which implies admissibility given
		// h(target) = 0.
		var vec []uint16
		var walk func(i int)
		states := [][]uint16{}
		totals := sp.totals
		var gen func(cur []uint16, i int)
		gen = func(cur []uint16, i int) {
			if i == len(totals) {
				states = append(states, append([]uint16(nil), cur...))
				return
			}
			for v := uint16(0); v <= totals[i]; v++ {
				gen(append(cur, v), i+1)
			}
		}
		gen(nil, 0)
		_ = walk
		_ = vec
		for _, st := range states {
			idx, _ := sp.intern(st)
			for last := -1; last < sp.nTypes; last++ {
				lt := migration.ActionType(last)
				h := sp.heuristic(idx, lt, 0)
				if h < 0 {
					t.Fatalf("negative heuristic at %v", st)
				}
				if sp.isTarget(idx) && h != 0 {
					t.Fatalf("h(target) = %v, want 0", h)
				}
				for a := 0; a < sp.nTypes; a++ {
					if st[a] >= totals[a] {
						continue
					}
					at := migration.ActionType(a)
					next := append([]uint16(nil), st...)
					next[a]++
					nIdx, _ := sp.intern(next)
					hNext := sp.heuristic(nIdx, at, 0)
					c := sp.stepCost(lt, at)
					if h > hNext+c+1e-9 {
						t.Fatalf("inconsistent heuristic at %v last=%v: h=%v > h'=%v + c=%v",
							st, lt, h, hNext, c)
					}
				}
			}
		}
	}
}

// TestWCMPUnlocksAsymmetricMigration replays the planner-level consequence
// of the §7.1 outage: mid-migration, small old bridges (capacity 1)
// coexist with a fat new one (capacity 2.5). Plain ECMP sends the old
// bridges an equal share and overloads them — even the *current* network
// state is unsafe, exactly the incident the paper describes — while the
// capacity-weighted policy balances the shares and lets the migration
// continue.
func TestWCMPUnlocksAsymmetricMigration(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 2.5, 2.2, 0)
	// One new bridge is already in service (replanning start).
	opts := Options{Theta: 0.7, Executed: task.BlocksOfType(1)[:1]}
	if _, err := PlanAStar(task, opts); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("plain ECMP should deem the mixed-generation state unsafe, got %v", err)
	}
	opts.Split = routing.SplitCapacityWeighted
	p, err := PlanAStar(task, opts)
	if err != nil {
		t.Fatalf("WCMP planning failed: %v", err)
	}
	checkPlan(t, task, p, opts)
	// DP agrees under the same routing policy.
	pd, err := PlanDP(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pd.Cost-p.Cost) > 1e-9 {
		t.Fatalf("DP cost %v != A* cost %v under WCMP", pd.Cost, p.Cost)
	}
}

// TestMaxRunLength exercises the maintenance-window extension: runs are
// force-split every K actions, each split paying full unit cost and
// requiring a boundary check. A*, DP, and brute force must agree, and
// tighter caps cannot lower cost.
func TestMaxRunLength(t *testing.T) {
	task := bridgeTask(t, 3, 3, 1, 2, 0.8, 0)
	prev := -1.0
	for _, k := range []int{0, 3, 2, 1} {
		opts := Options{MaxRunLength: k}
		p := planBoth(t, task, opts)
		want := bruteForceOptimal(t, task, opts)
		if math.Abs(p.Cost-want) > 1e-9 {
			t.Fatalf("K=%d: planner %v != brute force %v", k, p.Cost, want)
		}
		if k == 1 && p.Cost != float64(task.NumActions()) {
			t.Errorf("K=1 means every action is its own run: cost %v, want %v",
				p.Cost, task.NumActions())
		}
		// Iterating 0 (uncapped), then descending K: cost non-decreasing.
		if prev >= 0 && p.Cost < prev-1e-9 {
			t.Errorf("tighter cap lowered cost: %v after %v", p.Cost, prev)
		}
		prev = p.Cost
		// Runs respect the cap.
		for _, run := range p.Runs {
			if k > 0 && len(run.Blocks) > k {
				t.Errorf("K=%d: run of %d blocks", k, len(run.Blocks))
			}
		}
	}
}

// TestMaxRunLengthWithAlpha combines the cap with the generalized cost
// function.
func TestMaxRunLengthWithAlpha(t *testing.T) {
	task := bridgeTask(t, 3, 2, 1, 2, 0.6, 0)
	for _, alpha := range []float64{0.3, 0.7} {
		opts := Options{MaxRunLength: 2, Alpha: alpha}
		p := planBoth(t, task, opts)
		want := bruteForceOptimal(t, task, opts)
		if math.Abs(p.Cost-want) > 1e-9 {
			t.Fatalf("alpha=%v: planner %v != brute %v", alpha, p.Cost, want)
		}
	}
}

// TestMaxRunLengthEnforcesSplitBoundaries builds a task where the state
// two-thirds of the way through a long drain run is unsafe: uncapped, the
// run glides over it; with K forcing a boundary there, the planner must
// interleave an undrain first.
func TestMaxRunLengthEnforcesSplitBoundaries(t *testing.T) {
	// 3 old bridges, rate such that 1 bridge is overloaded but 2 are fine.
	task := bridgeTask(t, 3, 3, 1, 2, 1.2, 0)
	unc, err := PlanAStar(task, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := PlanAStar(task, Options{MaxRunLength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Cost < unc.Cost {
		t.Fatalf("cap lowered cost: %v vs %v", capped.Cost, unc.Cost)
	}
	// Under K=1 every intermediate state is a boundary: a pure
	// drain-3-first prefix would hit the 1-bridge state (util 1.2 > θ), so
	// the plan must interleave undrains before the last drain.
	if err := VerifyPlan(task, capped.Sequence, Options{MaxRunLength: 1}); err != nil {
		t.Fatal(err)
	}
	// Under K=1 every intermediate state is checked; draining everything
	// first passes through the overloaded 2-bridge and 1-bridge states and
	// must be rejected.
	bad := []int{0, 1, 2, 3, 4, 5}
	if err := VerifyPlan(task, bad, Options{MaxRunLength: 1}); err == nil {
		t.Error("drain-everything-first should fail verification under K=1")
	}
	// Uncapped verification also rejects it, but for a different reason:
	// the single drain→undrain type-change boundary is the all-drained
	// state, which strands the demand entirely.
	if err := VerifyPlan(task, bad, Options{}); err == nil {
		t.Error("drain-everything-first crosses an unreachable boundary even uncapped")
	}
}

// TestRunsOfChunking checks the deterministic chunking helper.
func TestRunsOfChunking(t *testing.T) {
	task := bridgeTask(t, 4, 2, 1, 2, 0.5, 0)
	seq := []int{0, 1, 2, 3, 4, 5} // 4 drains then 2 undrains
	runs := RunsOf(task, seq, 3)
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3 (3+1 drains, 2 undrains)", len(runs))
	}
	if len(runs[0].Blocks) != 3 || len(runs[1].Blocks) != 1 || len(runs[2].Blocks) != 2 {
		t.Fatalf("chunk sizes = %d/%d/%d", len(runs[0].Blocks), len(runs[1].Blocks), len(runs[2].Blocks))
	}
	if got := SequenceCostCapped(task, seq, 0, NoLast, 3, 0); got != 3 {
		t.Fatalf("capped cost = %v, want 3", got)
	}
}

// TestCappedHeuristicConsistent verifies h under MaxRunLength: for every
// state and successor, h(n) ≤ c(n,n') + h(n') — which with h(target)=0
// implies admissibility, hence the exact-optimality results of
// TestMaxRunLength hold by construction rather than luck.
func TestCappedHeuristicConsistent(t *testing.T) {
	task := bridgeTask(t, 3, 2, 1, 2, 0.5, 0)
	for _, k := range []int{1, 2, 3} {
		for _, alpha := range []float64{0, 0.4, 1} {
			sp, err := newSpace(task, Options{Alpha: alpha, MaxRunLength: k})
			if err != nil {
				t.Fatal(err)
			}
			var states [][]uint16
			var gen func(cur []uint16, i int)
			gen = func(cur []uint16, i int) {
				if i == len(sp.totals) {
					states = append(states, append([]uint16(nil), cur...))
					return
				}
				for v := uint16(0); v <= sp.totals[i]; v++ {
					gen(append(cur, v), i+1)
				}
			}
			gen(nil, 0)
			for _, st := range states {
				idx, _ := sp.intern(st)
				for last := -1; last < sp.nTypes; last++ {
					lt := migration.ActionType(last)
					for tail := 1; tail <= k; tail++ {
						h := sp.heuristic(idx, lt, tail)
						if sp.isTarget(idx) && h != 0 {
							t.Fatalf("K=%d α=%v: h(target)=%v", k, alpha, h)
						}
						for a := 0; a < sp.nTypes; a++ {
							if st[a] >= sp.totals[a] {
								continue
							}
							at := migration.ActionType(a)
							c, newTail, _ := sp.step(lt, at, tail)
							next := append([]uint16(nil), st...)
							next[a]++
							nIdx, _ := sp.intern(next)
							hNext := sp.heuristic(nIdx, at, newTail)
							if h > c+hNext+1e-9 {
								t.Fatalf("K=%d α=%v st=%v last=%v tail=%d → %v: h=%v > c=%v + h'=%v",
									k, alpha, st, lt, tail, at, h, c, hNext)
							}
						}
					}
				}
			}
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	task := bridgeTask(t, 1, 1, 1, 2, 0.5, 0)
	bad := []Options{
		{Theta: -0.1},
		{Theta: 1.5},
		{Alpha: -0.2},
		{Alpha: 1.2},
		{MaxStates: -1},
		{MaxRunLength: -2},
		{FunnelFactor: 0.5},
		{Executed: []int{99}},
		{Workers: WorkersAdaptive - 1},
	}
	for i, opts := range bad {
		if _, err := PlanAStar(task, opts); err == nil {
			t.Errorf("case %d (%+v): invalid options accepted", i, opts)
		}
		if _, err := PlanDP(task, opts); err == nil {
			t.Errorf("case %d DP (%+v): invalid options accepted", i, opts)
		}
	}
	// Valid corner values pass.
	for _, opts := range []Options{{Theta: 1}, {Alpha: 1}, {FunnelFactor: 1}} {
		if _, err := PlanAStar(task, opts); err != nil {
			t.Errorf("valid options %+v rejected: %v", opts, err)
		}
	}
}

// TestPortCutSurvivesDemandRebind pins the provenance of learned cuts: a
// state rejected by a switch's port budget is infeasible whatever the
// demands are, so its cut must survive a demand-only rebind of the bound
// engine, while a state rejected on utilization must be forgotten and
// re-proved. The evaluator answers ports first. Checked on the space
// directly, then through both planners: the cuts a plan leaves behind must
// split the same way across the rebind.
func TestPortCutSurvivesDemandRebind(t *testing.T) {
	// Two old bridges up, two new ones down, src budgeted for three ports,
	// θ = 0.7 on unit-capacity bridges carrying 1.2.
	portVec := []uint16{0, 2} // both new bridges undrained first: four circuits on src
	utilVec := []uint16{1, 0} // one old bridge drained: the other carries 1.2 > 0.7
	opts := Options{Theta: 0.7}
	task := bridgeTask(t, 2, 2, 1, 1, 1.2, 3)
	drifted := bridgeTask(t, 2, 2, 1, 1, 1.3, 3) // same structure, drifted demand
	eng := NewBoundEngine(task, opts)
	opts.Bound = eng
	sp, err := newSpace(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range [][]uint16{portVec, utilVec} {
		idx, _ := sp.intern(v)
		if sp.feasible(idx, NoLast) {
			t.Fatalf("state %v should be unsafe", v)
		}
	}
	// Learn doubles as the probe: it reports whether the cut was new.
	if eng.Learn(portVec, false) || eng.Learn(utilVec, false) {
		t.Fatal("failed checks were not learned as cuts")
	}
	// newSpace rebinds the engine.
	if _, err := newSpace(drifted, opts); err != nil {
		t.Fatal(err)
	}
	if eng.Learn(portVec, false) {
		t.Error("port cut was dropped by a demand-only rebind")
	}
	if !eng.Learn(utilVec, false) {
		t.Error("utilization cut survived a demand rebind")
	}

	for _, pl := range []struct {
		name string
		plan func(*migration.Task, Options) (*Plan, error)
	}{{"dp", PlanDP}, {"astar", PlanAStar}} {
		o := Options{Theta: 0.7}
		o.Bound = NewBoundEngine(task, o)
		if _, err := pl.plan(task, o); err != nil {
			t.Fatalf("%s: %v", pl.name, err)
		}
		if _, err := newSpace(drifted, o); err != nil {
			t.Fatal(err)
		}
		// The cuts still known after the rebind, probed over the whole
		// 3 × 3 lattice (the engine is discarded afterwards).
		kept := map[[2]uint16]bool{}
		for d := uint16(0); d <= 2; d++ {
			for u := uint16(0); u <= 2; u++ {
				if !o.Bound.Learn([]uint16{d, u}, false) {
					kept[[2]uint16{d, u}] = true
				}
			}
		}
		if !kept[[2]uint16{0, 2}] || kept[[2]uint16{1, 0}] {
			t.Errorf("%s: cuts surviving the rebind %v: want the port cut %v kept, the utilization cut %v dropped",
				pl.name, kept, portVec, utilVec)
		}
	}
}
