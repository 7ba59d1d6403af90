package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// meshCase builds a random mesh with one destination group per switch (so
// more than one traversal batch), some drains, and both split modes' worth
// of unequal capacities.
func meshCase(rng *rand.Rand) (*topo.Topology, *topo.View, *demand.Set) {
	n := batchWidth + 6 + rng.Intn(10)
	tp, sw := randomMeshTopo(rng, n)
	view := tp.NewView()
	for i := 0; i < 3; i++ {
		view.DrainSwitch(sw[rng.Intn(n)])
		view.DrainCircuit(topo.CircuitID(rng.Intn(tp.NumCircuits())))
	}
	ds := &demand.Set{}
	for _, dst := range sw {
		for k := 0; k < 1+rng.Intn(3); k++ {
			if src := sw[rng.Intn(n)]; src != dst {
				ds.Add(demand.Demand{Name: fmt.Sprintf("d%d", ds.Len()), Src: src, Dst: dst, Rate: 0.5 + 3*rng.Float64()})
			}
		}
	}
	return tp, view, ds
}

// placement is one group's outcome through the primitives: its distance
// field and its sparse contribution, copied out of the evaluator's scratch.
type placement struct {
	dist []int32
	lis  []int32
	vals []float64
}

// placeGroups runs the primitives for the listed destination groups as one
// traversal batch, in the listed order.
func placeGroups(e *Evaluator, v *topo.View, ds *demand.Set, split SplitMode, groups []int) map[int]placement {
	swActive, _ := v.Activity()
	dsts, byDst := ds.DestinationIndex()
	batch := make([]topo.SwitchID, len(groups))
	for i, gi := range groups {
		batch[i] = dsts[gi]
	}
	e.sync(v)
	fields := e.batchDistances(swActive, batch)
	out := make(map[int]placement, len(groups))
	live := 0
	for i, gi := range groups {
		if fields[i] == nil {
			out[gi] = placement{}
			continue
		}
		e.beginGroup()
		for _, di := range byDst[gi] {
			d := ds.Demands[di]
			if swActive[d.Src] && fields[i][d.Src] != 0 {
				e.seed(fields[i], d.Src, d.Rate)
			}
		}
		lis, vals := e.sweep(live, fields[i], dsts[gi], split)
		live++
		out[gi] = placement{
			dist: append([]int32(nil), fields[i]...),
			lis:  append([]int32(nil), lis...),
			vals: append([]float64(nil), vals...),
		}
	}
	return out
}

// TestPlacementIndependentOfBatching is the summation-order contract as a
// property: a group's distance field and its (index, value) contribution —
// order of entries included, since the first over-bound entry is the
// reported violation — are bitwise the same whether the group is computed
// alone, in a full batch, or in a shuffled batch of random companions.
func TestPlacementIndependentOfBatching(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp, view, ds := meshCase(rng)
		dsts, _ := ds.DestinationIndex()
		split := SplitMode(seed % 2)
		e := NewEvaluator(tp)

		alone := make(map[int]placement, len(dsts))
		for gi := range dsts {
			alone[gi] = placeGroups(e, view, ds, split, []int{gi})[gi]
		}
		for round := 0; round < 8; round++ {
			perm := rng.Perm(len(dsts))
			groups := perm[:1+rng.Intn(batchWidth)]
			for gi, got := range placeGroups(e, view, ds, split, groups) {
				if !reflect.DeepEqual(got, alone[gi]) {
					t.Fatalf("seed %d round %d: group %d placed differently in a batch of %d than alone",
						seed, round, gi, len(groups))
				}
			}
		}
	}
}

// TestViolationIsDeterministic pins that the violation Check reports is a
// function of (view, demands, opts) only: a fresh evaluator, a reused one
// and a fork that has checked other states all name the same element with
// the same utilization.
func TestViolationIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tp, view, ds := meshCase(rng)
	opts := CheckOpts{Theta: 0.05} // low enough that many circuits are over
	want := NewEvaluator(tp).Check(view, ds, opts)
	if want.Kind != ViolationUtilization {
		t.Fatalf("fixture should violate utilization, got %v", want)
	}
	used := NewEvaluator(tp)
	other := tp.NewView()
	other.DrainSwitch(0)
	for i := 0; i < 3; i++ {
		used.Check(other, ds, CheckOpts{Theta: 1e9})
		used.Evaluate(view, ds, CheckOpts{Theta: 1e9, Split: SplitCapacityWeighted})
		if got := used.Check(view, ds, opts); got != want {
			t.Fatalf("reused evaluator reports %v, fresh one %v", got, want)
		}
		if got := used.Fork().Check(view, ds, opts); got != want {
			t.Fatalf("fork reports %v, fresh evaluator %v", got, want)
		}
	}

	// Forks share the static adjacency and nothing else: checking from
	// several goroutines at once (under -race in CI) changes no answer.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		f := used.Fork()
		v := view.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				f.Check(other, ds, CheckOpts{Theta: 1e9})
				if got := f.Check(v, ds, opts); got != want {
					t.Errorf("concurrent fork reports %v, fresh evaluator %v", got, want)
				}
			}
		}()
	}
	wg.Wait()
}

// TestEarlyExitLeavesNoMarks covers the exits that leave sweep scratch
// half-built: a Check that returns between seeding a group and sweeping it
// (a later demand of the group has an unreachable source). The next full
// evaluation on the same evaluator must equal a fresh evaluator's, bit for
// bit.
func TestEarlyExitLeavesNoMarks(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp, view, ds := meshCase(rng)
		split := SplitMode(seed % 2)
		clean := tp.NewView()
		exitOpts := CheckOpts{Theta: 1e9, Split: split}

		// Find a demand whose source, once drained, makes Check return
		// with its group seeded but not swept: queued flow levels are the
		// witness.
		var e *Evaluator
		var broken *topo.View
		var victim demand.Demand
		for _, d := range ds.Demands {
			broken = clean.Clone()
			broken.DrainSwitch(d.Src)
			e = NewEvaluator(tp)
			if viol := e.Check(broken, ds, exitOpts); viol.Kind != ViolationUnreachable {
				t.Fatalf("seed %d: draining a source left the state routable: %v", seed, viol)
			}
			if len(e.trav.levels.active) > 0 {
				victim = d
				break
			}
		}
		if victim.Name == "" {
			t.Fatalf("seed %d: no demand makes Check exit between seeding and sweeping", seed)
		}
		compareWithFresh(t, fmt.Sprintf("seed %d after early-exit Check", seed), e, tp, view, ds, CheckOpts{Theta: 0.9, Split: split})
	}
}

// compareWithFresh evaluates the state on e and on a new evaluator and
// requires identical results, violations and per-circuit loads.
func compareWithFresh(t *testing.T, label string, e *Evaluator, tp *topo.Topology, v *topo.View, ds *demand.Set, opts CheckOpts) {
	t.Helper()
	fresh := NewEvaluator(tp)
	wantRes, wantViol := fresh.Evaluate(v, ds, opts)
	gotRes, gotViol := e.Evaluate(v, ds, opts)
	if gotRes != wantRes || gotViol != wantViol {
		t.Fatalf("%s: Evaluate = (%+v, %v), fresh evaluator (%+v, %v)", label, gotRes, gotViol, wantRes, wantViol)
	}
	for c := 0; c < tp.NumCircuits(); c++ {
		ab, ba := e.CircuitLoad(topo.CircuitID(c))
		wab, wba := fresh.CircuitLoad(topo.CircuitID(c))
		if math.Float64bits(ab) != math.Float64bits(wab) || math.Float64bits(ba) != math.Float64bits(wba) {
			t.Fatalf("%s: circuit %d loads (%v,%v), fresh evaluator (%v,%v)", label, c, ab, ba, wab, wba)
		}
	}
}

// TestLevelScratchIgnoresMetricSpread bounds what a traversal leaves behind
// on a large fabric whose metrics are nearly all distinct: a ring of 4000
// switches with chords and metrics drawn from 1..997 keeps close to a
// thousand distance levels in flight at once. The scratch kept afterwards
// must be a few pairs per switch — not a per-switch array per level in
// flight, which here would be tens of megabytes.
func TestLevelScratchIgnoresMetricSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 4000
	tp := topo.New("ring")
	sw := make([]topo.SwitchID, n)
	for i := range sw {
		sw[i] = tp.AddSwitch(topo.Switch{Name: fmt.Sprintf("s%d", i), Role: topo.RoleFSW})
	}
	for i := range sw {
		tp.SetMetric(tp.AddCircuit(sw[i], sw[(i+1)%n], 10), int32(1+rng.Intn(997)))
		tp.SetMetric(tp.AddCircuit(sw[i], sw[(i+2+rng.Intn(n-3))%n], 10), int32(1+rng.Intn(997)))
	}
	ds := &demand.Set{}
	for i := 0; i < 40; i++ {
		if src, dst := sw[rng.Intn(n)], sw[rng.Intn(n)]; src != dst {
			ds.Add(demand.Demand{Name: fmt.Sprintf("d%d", i), Src: src, Dst: dst, Rate: 1})
		}
	}
	view := tp.NewView()
	checkAgainstReference(t, "ring", tp, view, ds, SplitEqual)

	e := NewEvaluator(tp)
	if viol := e.Check(view, ds, CheckOpts{Theta: 1e9}); !viol.OK() {
		t.Fatalf("ring is unsafe: %v", viol)
	}
	q := &e.trav.levels
	if len(q.active) != 0 || len(q.free) > maxPooledLevels {
		t.Fatalf("%d levels still in flight, %d pooled (cap %d)", len(q.active), len(q.free), maxPooledLevels)
	}
	kept := 0
	for _, lv := range q.free {
		kept += 4*cap(lv.sw) + 8*cap(lv.mask)
	}
	if limit := 3 * 12 * n; kept > limit {
		t.Errorf("levels keep %d bytes after a check, more than three pairs per switch (%d)", kept, limit)
	}
}

// TestFlowSetStampWraps puts the 16-bit group number one short of wrapping
// around: the groups of the next check take the numbers the first check's
// groups stamped their flow sets with, and must not find anything in theirs.
func TestFlowSetStampWraps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tp, view, ds := meshCase(rng)
	e := NewEvaluator(tp)
	opts := CheckOpts{Theta: 0.9}
	e.Evaluate(view, ds, opts)
	if e.trav.group < 3 {
		t.Fatalf("the fixture swept %d groups, want several", e.trav.group)
	}
	e.trav.group = math.MaxUint16
	compareWithFresh(t, "after the group number wrapped", e, tp, view, ds, opts)
	if e.trav.group == 0 || e.trav.group > uint16(len(ds.Demands)) {
		t.Fatalf("group number %d after the wrap", e.trav.group)
	}
}
