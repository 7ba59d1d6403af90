package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// The check keeps its distance fields between calls and repairs them around
// the switches syncUp rebuilt, and beside them keeps the next-hop masks its
// sweeps found. These tests drive it through upHarness (upstate_test.go),
// which after every evaluator call holds every retained field against a fresh
// fork's full traversal, entry by entry, every valid retained mask against
// that field and the view, arc by arc, and every answer against a fresh
// evaluator's in both split modes; what they add is the sequences, and
// assertions on which way each check came by its fields.

// ladder is a fabric on which one flipped circuit moves a known part of a
// field: two rails of ladderLen switches, rail a with metric 1 and rail b with
// metric 2, a rung of metric 1 between them at every eighth position, and
// three circuits that start drained — a shortcut along rail a, a spare rung,
// and a third circuit at a switch whose port budget its three others fill.
type ladder struct {
	h        *upHarness
	a, b     []topo.SwitchID
	railA    []topo.CircuitID // railA[i] joins a[i] and a[i+1]
	railB    []topo.CircuitID
	shortcut topo.CircuitID // a[100]–a[120], metric 4
	spare    topo.CircuitID // a[108]–b[108], metric 1
	extra    topo.CircuitID // a[116]–b[117]: puts a[116] over its budget
}

const ladderLen = 128

func newLadder(t testing.TB) *ladder {
	tp := topo.New("ladder")
	l := &ladder{}
	for i := 0; i < ladderLen; i++ {
		l.a = append(l.a, tp.AddSwitch(topo.Switch{Name: fmt.Sprintf("a%d", i), Role: topo.RoleFSW}))
	}
	for i := 0; i < ladderLen; i++ {
		l.b = append(l.b, tp.AddSwitch(topo.Switch{Name: fmt.Sprintf("b%d", i), Role: topo.RoleFSW}))
	}
	wire := func(x, y topo.SwitchID, metric int32) topo.CircuitID {
		c := tp.AddCircuit(x, y, 100)
		tp.SetMetric(c, metric)
		return c
	}
	for i := 0; i+1 < ladderLen; i++ {
		l.railA = append(l.railA, wire(l.a[i], l.a[i+1], 1))
		l.railB = append(l.railB, wire(l.b[i], l.b[i+1], 2))
	}
	for i := 0; i < ladderLen; i += 8 {
		wire(l.a[i], l.b[i], 1)
	}
	wire(l.a[ladderLen-1], l.b[ladderLen-1], 1)
	l.shortcut = wire(l.a[100], l.a[120], 4)
	l.spare = wire(l.a[108], l.b[108], 1)
	l.extra = wire(l.a[116], l.b[117], 1)
	tp.SetPorts(l.a[116], 2)

	// Every destination sits near the left end, so that what happens at the
	// right end moves the far part of each field and not all of it.
	ds := &demand.Set{}
	for i, d := range []struct{ src, dst topo.SwitchID }{
		{l.a[127], l.a[0]}, {l.b[127], l.a[0]}, {l.a[30], l.a[0]},
		{l.a[125], l.b[0]}, {l.b[40], l.b[0]},
		{l.a[126], l.a[20]}, {l.b[5], l.a[20]},
		{l.b[124], l.b[28]}, {l.a[2], l.b[28]},
	} {
		ds.Add(demand.Demand{Name: fmt.Sprintf("d%d", i), Src: d.src, Dst: d.dst, Rate: 0.5 + 0.1*float64(i)})
	}
	sw := append(append([]topo.SwitchID(nil), l.a...), l.b...)
	l.h = newHarnessOn(t, tp, sw, []topo.SwitchID{l.a[0], l.b[0]}, ds, CheckOpts{Theta: 0.9})
	for _, v := range l.h.views {
		v.DrainCircuit(l.shortcut)
		v.DrainCircuit(l.spare)
		v.DrainCircuit(l.extra)
	}
	return l
}

// How a check is expected to come by its fields.
const (
	viaNothing  = "nothing"   // rejected on ports, or nothing changed
	viaRepair   = "repair"    // retained fields repaired
	viaTraverse = "traversal" // full traversal, no repair attempted
	viaGiveUp   = "give-up"   // a repair that ran out of budget, then the traversal
)

// check runs op (one of the checking ones) on the current evaluator and view
// and fails unless the call came by its fields the expected way.
func (l *ladder) check(op byte, want, what string) pathTaken {
	l.h.t.Helper()
	l.h.do(op, 0)
	p := l.h.last
	got := viaNothing
	switch {
	case p.repaired:
		got = viaRepair
	case p.gaveUp:
		got = viaGiveUp
	case p.traversed:
		got = viaTraverse
	}
	l.h.t.Logf("%s: by %s, %d visits, %d entries", what, got, p.visits, p.entries)
	if got != want {
		l.h.t.Fatalf("%s: fields came by %s (visits %d, entries %d), want by %s", what, got, p.visits, p.entries, want)
	}
	return p
}

func (l *ladder) view() *topo.View { return l.h.views[l.h.v] }

// TestFieldsFollowView scripts, on the ladder, each kind of change a repair
// has to get right, then runs seeded random sequences on larger meshes.
func TestFieldsFollowView(t *testing.T) {
	l := newLadder(t)
	e, v := l.h.evals[0], l.view()
	l.check(opEvaluate, viaTraverse, "first check")
	l.check(opCheck, viaNothing, "unchanged view")

	// Distances that increase, through many levels: rail a cut at 119|120
	// sends everything beyond it round by rail b.
	v.DrainCircuit(l.railA[119])
	if p := l.check(opEvaluate, viaRepair, "rail a cut"); p.entries < 4*8 {
		t.Fatalf("rail a cut rewrote %d entries, want a cascade in every field", p.entries)
	}
	// Distances that decrease, through a circuit that comes up …
	v.UndrainCircuit(l.shortcut)
	if p := l.check(opEvaluate, viaRepair, "shortcut up"); p.entries < 20 {
		t.Fatalf("shortcut rewrote %d entries, want the far part of several fields", p.entries)
	}
	v.DrainCircuit(l.shortcut)
	l.check(opCheck, viaRepair, "shortcut down again")
	v.UndrainCircuit(l.railA[119])
	l.check(opCheck, viaRepair, "rail a whole again")
	// … and through a switch that becomes active.
	v.DrainSwitch(l.a[122])
	l.check(opEvaluate, viaRepair, "rail switch drained")
	if d := e.trav.dist[l.a[122]]; d != 0 {
		t.Fatalf("drained switch keeps distance %d in the first field", d)
	}
	v.UndrainSwitch(l.a[122])
	l.check(opEvaluate, viaRepair, "rail switch active again")

	// A region cut off entirely, entries back to unreachable, and re-attached.
	v.DrainCircuit(l.railA[123])
	v.DrainCircuit(l.railB[123])
	l.check(opEvaluate, viaRepair, "right end cut off")
	for k := range e.trav.kept {
		if d := e.trav.dist[k*len(e.ports)+int(l.a[126])]; d != 0 {
			t.Fatalf("field %d still reaches the cut-off region (distance %d)", k, d)
		}
	}
	v.DrainCircuit(l.railA[125]) // a change inside the unreachable region
	l.check(opEvaluate, viaRepair, "change inside the cut-off region")
	v.UndrainCircuit(l.railA[125])
	v.UndrainCircuit(l.railB[123])
	l.check(opEvaluate, viaRepair, "re-attached by rail b")
	v.UndrainCircuit(l.railA[123])
	l.check(opCheck, viaRepair, "re-attached by rail a")

	// A destination drained, then undrained: another destination list each time.
	v.DrainSwitch(l.a[20])
	l.check(opEvaluate, viaTraverse, "destination drained")
	v.DrainCircuit(l.railA[115])
	l.check(opEvaluate, viaRepair, "with one destination fewer")
	v.UndrainSwitch(l.a[20])
	l.check(opEvaluate, viaTraverse, "destination active again")
	v.UndrainCircuit(l.railA[115])
	l.check(opCheck, viaRepair, "rail a whole once more")

	// Every destination drained: nothing to compute, nothing visited, and what
	// is retained waits, marks adding up, for the destinations to come back.
	dsts, _ := l.h.ds.DestinationIndex()
	for _, d := range dsts {
		v.DrainSwitch(d)
	}
	l.check(opEvaluate, viaNothing, "no destination active")
	if len(e.trav.kept) != len(dsts) || e.nMarked == 0 {
		t.Fatalf("with no destination active: %d fields retained, %d switches marked", len(e.trav.kept), e.nMarked)
	}
	for _, d := range dsts {
		v.UndrainSwitch(d)
	}
	if p := l.check(opEvaluate, viaRepair, "destinations back"); p.entries != 0 {
		t.Fatalf("back in the state the fields were computed in, the repair rewrote %d entries", p.entries)
	}

	// Checks rejected on ports between two routed ones: the marks add up, and
	// CircuitLoad is zero, not the loads of the routed check before.
	v.UndrainCircuit(l.extra)
	l.check(opCheck, viaNothing, "over the port budget")
	if ab, ba := e.CircuitLoad(l.railA[10]); ab != 0 || ba != 0 {
		t.Fatalf("CircuitLoad after a port rejection = (%v, %v), want zero", ab, ba)
	}
	v.DrainCircuit(l.railA[109])
	l.check(opCheck, viaNothing, "still over the port budget")
	if e.nMarked != 4 {
		t.Fatalf("%d switches marked after two port rejections, want 4", e.nMarked)
	}
	v.DrainCircuit(l.railA[116]) // a[116] back within budget, one circuit swapped for another
	l.check(opCheck, viaRepair, "within budget again")
	if ab, ba := e.CircuitLoad(l.railA[10]); ab+ba == 0 {
		t.Fatal("CircuitLoad is zero after a routed check")
	}
	v.UndrainCircuit(l.railA[116])
	v.DrainCircuit(l.extra)
	v.UndrainCircuit(l.railA[109])
	l.check(opEvaluate, viaRepair, "back to the initial state")

	// A Trace on the same evaluator moves the up state and leaves the fields
	// alone, the marks saying by how much; a rate that drifts leaves both alone.
	v.DrainCircuit(l.railA[105])
	l.h.do(opTrace, 0)
	v.UndrainCircuit(l.spare)
	l.h.do(opTrace, 5)
	l.check(opEvaluate, viaRepair, "after two traces")
	l.h.do(opDriftRate, 200<<8|3)
	l.check(opDemandDelta, viaNothing, "after a rate drifted")
	v.DrainCircuit(l.spare)
	l.h.do(opTrace, 5)
	v.UndrainCircuit(l.railA[105])
	l.check(opCheckDelta, viaRepair, "after another trace")

	// A fork taken mid-sequence starts from nothing; the original carries on.
	l.h.do(opFork, 0)
	l.h.ev = 1
	v.DrainCircuit(l.railB[12])
	l.check(opCheck, viaTraverse, "fork's first check")
	l.h.ev = 0
	l.check(opCheck, viaRepair, "original after the fork")
	l.h.ev = 1
	v.UndrainCircuit(l.railB[12])
	l.check(opCheck, viaRepair, "fork's second check")
	l.h.ev = 0
	l.check(opCheck, viaRepair, "original again")

	// Jumps just under and just over the cut-over: 256 switches, so sixteen
	// rebuilt ones are repaired around and eighteen are not. Rail b's circuits
	// carry little, so the fields hardly move.
	if n := len(e.ports); n/repairCutover != 16 {
		t.Fatalf("ladder of %d switches puts the cut-over at %d rebuilt, the script assumes 16", n, n/repairCutover)
	}
	under := []int{3, 13, 23, 37, 43, 53, 67, 77}
	for _, i := range under {
		v.DrainCircuit(l.railB[i])
	}
	l.check(opEvaluate, viaRepair, "sixteen switches rebuilt")
	for _, i := range under {
		v.UndrainCircuit(l.railB[i])
	}
	v.DrainCircuit(l.railB[90])
	l.check(opEvaluate, viaTraverse, "eighteen switches rebuilt")
	v.UndrainCircuit(l.railB[90])
	l.check(opCheck, viaRepair, "two switches rebuilt")

	// Few rebuilt switches that move most of every field: rail a cut next to
	// the destinations' end. The repair gives up and the traversal answers.
	v.DrainCircuit(l.railA[3])
	v.DrainCircuit(l.railA[5])
	v.DrainCircuit(l.railB[2])
	l.check(opEvaluate, viaGiveUp, "cut next to the destinations")
	v.UndrainCircuit(l.railB[2])
	l.check(opEvaluate, viaGiveUp, "and half undone")

	// Another view of the same content, a copy, a reset.
	l.h.do(opOtherView, 0)
	v = l.view()
	v.CopyFrom(l.h.views[0])
	l.check(opCheck, viaNothing, "a copy of the view checked last")
	v.UndrainCircuit(l.railA[3])
	l.check(opCheck, viaRepair, "the copy, one circuit on")
	l.h.do(opOtherView, 0)
	l.check(opCheck, viaRepair, "the original again")
	l.h.do(opReset, 0) // rail a whole next to the destinations, and the three spare circuits up
	l.check(opEvaluate, viaGiveUp, "reset, far away in every field")
	l.view().DrainCircuit(l.railB[60])
	l.check(opCheck, viaNothing, "over the port budget after the reset")
	l.view().DrainCircuit(l.extra)
	l.check(opCheck, viaRepair, "near the reset view")
	l.view().Reset()
	l.view().DrainCircuit(l.extra)
	l.check(opEvaluate, viaRepair, "reset, nearby")

	// More destination groups than one batch carries: the second batch
	// overwrites what the first retained, so every check traverses.
	wide := newMeshHarness(t, 5, 96, 400)
	if dsts, _ := wide.ds.DestinationIndex(); len(dsts) <= batchWidth {
		t.Fatalf("%d destination groups, want more than one batch", len(dsts))
	}
	for i := 0; i < 6; i++ {
		wide.do(opToggleCircuit, 17*i)
		wide.do(opEvaluate, 0)
		if wide.last.repaired || !wide.last.traversed {
			t.Fatalf("two batches: check %d repaired=%v traversed=%v", i, wide.last.repaired, wide.last.traversed)
		}
	}

	// Random sequences on meshes large enough for single drains to fall
	// under the cut-over.
	var repaired, traversed, gaveUp, masks int
	for seed := int64(1); seed <= 6; seed++ {
		h := newMeshHarness(t, seed, 96, 20)
		rng := rand.New(rand.NewSource(seed * 104729))
		for i := 0; i < 500; i++ {
			op := byte(rng.Intn(upOps))
			switch rng.Intn(4) {
			case 0: // keep the views from draining away
				op = byte(rng.Intn(opReset))
			case 1:
				op = opCheck + byte(rng.Intn(2))
			case 2:
				op = opToggleCircuit
			}
			h.do(op, rng.Intn(1<<16))
			if op%upOps >= opCheck && op%upOps < opTrace {
				switch {
				case h.last.repaired:
					repaired++
				case h.last.gaveUp:
					gaveUp++
				case h.last.traversed:
					traversed++
				}
			}
		}
		masks += h.masksHeld
	}
	t.Logf("random sequences: %d checks repaired, %d traversed, %d gave up and traversed; %d retained next-hop masks held against the view", repaired, traversed, gaveUp, masks)
	if repaired < 100 || traversed < 100 || masks < 10000 {
		t.Fatalf("random sequences took one way too seldom: %d repaired, %d traversed, %d masks held", repaired, traversed, masks)
	}
}

// FuzzFieldsFollowView feeds arbitrary operation sequences — the script
// format of FuzzUpMaskFollowsView — to the harness on a 96-switch mesh, where
// six rebuilt switches are the cut-over.
func FuzzFieldsFollowView(f *testing.F) {
	// One circuit down and up; a switch down, a port-rejected or routed check,
	// and up; a trace and a drifting rate between two checks; two views
	// alternating; fork, reset, copy.
	f.Add([]byte{opEvaluate, 0, 0, opToggleCircuit, 0, 40, opEvaluate, 0, 0, opToggleCircuit, 0, 40, opCheck, 0, 0})
	f.Add([]byte{opCheck, 0, 0, opToggleSwitch, 0, 30, opCheck, 0, 0, opToggleCircuit, 0, 9, opCheck, 0, 0, opToggleSwitch, 0, 30, opEvaluate, 0, 0})
	f.Add([]byte{opEvaluate, 0, 0, opToggleCircuit, 0, 7, opTrace, 0, 2, opToggleCircuit, 0, 90, opDriftRate, 200, 1, opDemandDelta, 0, 0, opEvaluate, 0, 0})
	f.Add([]byte{opCheck, 0, 0, opOtherView, 0, 0, opToggleCircuit, 0, 3, opCheck, 0, 0, opOtherView, 0, 0, opCheck, 0, 0, opCopyFrom, 0, 0, opCheck, 0, 0})
	f.Add([]byte{opCheck, 0, 0, opFork, 0, 0, opToggleHubCircuit, 0, 6, opCheck, 0, 0, opFork, 0, 1, opCheck, 0, 0, opReset, 0, 0, opEvaluate, 0, 0})
	// Next-hop masks kept from the second check on: read back after a rate
	// drifted, dropped around two repairs, behind a port rejection and a trace,
	// and wholesale by a far jump and by a fork's own first traversal.
	f.Add([]byte{opEvaluate, 0, 0, opEvaluate, 0, 0, opDriftRate, 90, 4, opCheck, 0, 0, opToggleCircuit, 1, 34, opEvaluate, 0, 0, opToggleCircuit, 0, 77, opTrace, 0, 1, opCheck, 0, 0, opToggleCircuit, 1, 34, opEvaluate, 0, 0})
	f.Add([]byte{opCheck, 0, 0, opCheck, 0, 0, opToggleHubCircuit, 0, 3, opCheck, 0, 0, opReset, 0, 0, opToggleSwitch, 0, 50, opToggleSwitch, 0, 60, opToggleSwitch, 0, 70, opEvaluate, 0, 0, opFork, 0, 2, opEvaluate, 0, 0, opToggleCircuit, 0, 12, opEvaluate, 0, 0, opFork, 0, 0, opEvaluate, 0, 0})
	// Kept fields and masks under what a view flip does not move: a rate
	// doubled in place and halved back, a source moved, the bound, the scale,
	// funneling and the split changing, a demand set swapped in and out, and a
	// far jump and back.
	f.Add([]byte{opEvaluate, 0, 0, opToggleCircuit, 0, 3, opEvaluate, 0, 0, opFlipRate, 0, 2, opCheck, 0, 0, opFlipRate, 1, 2, opEvaluate, 0, 0, opMoveSource, 3, 1, opCheck, 0, 0, opTheta, 0, 50, opCheck, 0, 0, opScale, 0, 77, opEvaluate, 0, 0, opFunnel, 0, 9, opCheck, 0, 0, opFunnel, 0, 0, opSplit, 0, 0, opEvaluate, 0, 0})
	f.Add([]byte{opCheck, 0, 0, opToggleCircuit, 0, 12, opCheck, 0, 0, opSwapDemands, 0, 0, opCheck, 0, 0, opCheck, 0, 0, opSwapDemands, 0, 0, opEvaluate, 0, 0, opFarJump, 0, 5, opCheck, 0, 0, opFarJump, 0, 5, opEvaluate, 0, 0, opCheck, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 600 {
			script = script[:600]
		}
		h := newMeshHarness(t, 3, 96, 20)
		for ; len(script) >= 3; script = script[3:] {
			h.do(script[0], int(script[1])<<8|int(script[2]))
		}
	})
}

// refLoads holds the loads of e's most recent call against ReferenceLoads —
// Bellman-Ford and a top-down recursion that share no table with the
// evaluator, the static arc.back numbers included, which every fork the harness
// compares against does share.
func (h *upHarness) refLoads(what string, e *Evaluator, v *topo.View, split SplitMode) {
	h.t.Helper()
	want, _ := ReferenceLoads(h.tp, v, h.ds, split)
	for _, c := range h.allCk {
		ab, ba := e.CircuitLoad(c)
		if got := ab + ba; math.Abs(got-want[c]) > 1e-9*(1+want[c]) {
			h.t.Fatalf("%s, split %v: circuit %d carries %v, the reference places %v", what, split, c, got, want[c])
		}
	}
}

// tail hangs a chain of n switches off switch at, each with a demand to dst of
// its own, so that a fabric of a few switches is large enough for two rebuilt
// ones to fall under the repair's cut-over and for a traversal to visit enough
// arcs to leave the repair a budget.
func tail(tp *topo.Topology, ds *demand.Set, at, dst topo.SwitchID, n int) []topo.SwitchID {
	var sw []topo.SwitchID
	for i := 0; i < n; i++ {
		s := tp.AddSwitch(topo.Switch{Name: fmt.Sprintf("tail%d", i), Role: topo.RoleFSW})
		tp.AddCircuit(at, s, 100)
		ds.Add(demand.Demand{Name: fmt.Sprintf("tail%d", i), Src: s, Dst: dst, Rate: 0.25})
		sw, at = append(sw, s), s
	}
	return sw
}

// TestHopSetsFollowFields scripts the three cases in which a retained next-hop
// mask is the only thing that can go wrong; upHarness holds every valid mask
// and every load after each step, and the scripts add what the harness cannot
// know: that the case is the one meant, and the loads of an implementation
// that shares nothing with the evaluator.
func TestHopSetsFollowFields(t *testing.T) {
	// A repair moves the entry of a neighbour of y while y itself is neither
	// rebuilt nor written: y forwards over x1 and x2, d–a1 goes down two hops
	// beyond x1, x1 is now farther from d than y is, and y keeps its distance
	// by x2. Nothing says so at y but its neighbour's entry.
	t.Run("neighbour", func(t *testing.T) {
		tp := topo.New("kite")
		add := func(name string) topo.SwitchID {
			return tp.AddSwitch(topo.Switch{Name: name, Role: topo.RoleFSW})
		}
		d, a1, b1, x1, x2, y, src := add("d"), add("a1"), add("b1"), add("x1"), add("x2"), add("y"), add("src")
		da1 := tp.AddCircuit(d, a1, 100)
		tp.AddCircuit(d, b1, 100)
		tp.AddCircuit(a1, x1, 100)
		tp.AddCircuit(b1, x2, 100)
		yx1 := tp.AddCircuit(y, x1, 100)
		tp.AddCircuit(y, x2, 100)
		tp.AddCircuit(src, y, 100)
		ds := &demand.Set{}
		ds.Add(demand.Demand{Name: "main", Src: src, Dst: d, Rate: 8})
		sw := append([]topo.SwitchID{d, a1, b1, x1, x2, y, src}, tail(tp, ds, d, d, 40)...)
		spare := tp.AddCircuit(sw[20], sw[21], 100) // a second circuit along the tail, drained at first: it moves no entry
		h := newHarnessOn(t, tp, sw, sw[:2], ds, CheckOpts{Theta: 0.9})
		l := &ladder{h: h}
		e, v := h.evals[0], h.views[0]
		v.DrainCircuit(spare)
		l.check(opEvaluate, viaTraverse, "first check")
		v.UndrainCircuit(spare)
		l.check(opEvaluate, viaRepair, "first repair: the masks are kept from here on")
		n := len(e.ports)
		if e.trav.hopValid == nil || e.trav.hopValid[int(y)] == 0 {
			t.Fatal("no next-hop mask retained at y after a repaired check")
		}
		distY, reused := e.trav.dist[y], e.HopSetsReused
		v.DrainCircuit(da1)
		l.check(opEvaluate, viaRepair, "d–a1 down")
		if e.trav.dist[y] != distY || e.trav.dist[x1] != distY+1 {
			t.Fatalf("y at %d (was %d), x1 at %d: want y unmoved and x1 one beyond it", e.trav.dist[y], distY, e.trav.dist[x1])
		}
		if e.HopSetsReused == reused {
			t.Fatal("the repaired check read no retained mask back")
		}
		h.refLoads("d–a1 down", e, v, SplitCapacityWeighted) // the harness's second call was in the other mode
		if ab, ba := e.CircuitLoad(yx1); ab+ba != 0 {
			t.Fatalf("y still forwards %v over x1, which is farther from d than y", ab+ba)
		}
		v.UndrainCircuit(da1)
		l.check(opCheck, viaRepair, "d–a1 up again")
		if ab, ba := e.CircuitLoad(yx1); ab+ba != 4 {
			t.Fatalf("y forwards %v over x1, want half of 8", ab+ba)
		}
		if len(e.trav.hopValid) != n*len(e.trav.kept) {
			t.Fatalf("%d validity bytes for %d fields of %d switches", len(e.trav.hopValid), len(e.trav.kept), n)
		}
	})

	// Two circuits between the same pair of switches, of unequal capacity:
	// each arc's inflow bit must be the one of its own circuit's reverse arc,
	// not of the first arc that leads back to the same switch.
	t.Run("twins", func(t *testing.T) {
		tp := topo.New("twins")
		add := func(name string) topo.SwitchID {
			return tp.AddSwitch(topo.Switch{Name: name, Role: topo.RoleFSW})
		}
		d, w, u, src := add("d"), add("w"), add("u"), add("src")
		tp.AddCircuit(d, w, 100)
		thin := tp.AddCircuit(u, w, 10)
		tp.AddCircuit(src, u, 100)
		wide := tp.AddCircuit(w, u, 30) // the other way round, and later in both adjacencies
		ds := &demand.Set{}
		ds.Add(demand.Demand{Name: "main", Src: src, Dst: d, Rate: 8})
		sw := append([]topo.SwitchID{d, w, u, src}, tail(tp, ds, d, d, 40)...)
		for _, split := range []SplitMode{SplitEqual, SplitCapacityWeighted} {
			h := newHarnessOn(t, tp, sw, sw[:2], ds, CheckOpts{Theta: 0.95, Split: split})
			l := &ladder{h: h}
			e, v := h.evals[0], h.views[0]
			other := SplitCapacityWeighted - split
			carried := func(what string, thinWant, wideWant float64) {
				t.Helper()
				h.refLoads(what, e, v, other)
				ab, ba := e.CircuitLoad(thin)
				cd, dc := e.CircuitLoad(wide)
				if ab+ba != thinWant || cd+dc != wideWant {
					t.Fatalf("%s, split %v: the twins carry %v and %v, want %v and %v", what, other, ab+ba, cd+dc, thinWant, wideWant)
				}
			}
			both := [2][2]float64{{4, 4}, {2, 6}}[other] // by the mode of the harness's second call
			l.check(opEvaluate, viaTraverse, "both twins up")
			carried("both twins up", both[0], both[1])
			v.DrainCircuit(thin)
			l.check(opEvaluate, viaRepair, "thin twin down")
			carried("thin twin down", 0, 8)
			v.UndrainCircuit(thin)
			v.DrainCircuit(wide)
			l.check(opCheck, viaRepair, "wide twin down instead")
			carried("wide twin down instead", 8, 0)
			v.UndrainCircuit(wide)
			l.check(opEvaluate, viaRepair, "both up again")
			carried("both up again", both[0], both[1])
		}
	})

	// More destination groups than one batch carries, on an evaluator that
	// keeps masks: a narrow demand set gets it to repair, and to allocate the
	// slab, at the width of the wide set's fields; from then on each batch of
	// the wide set overwrites what the other stored, every check traverses, no
	// mask is ever read back, and every load still holds.
	t.Run("second batch", func(t *testing.T) {
		h := newMeshHarness(t, 5, 96, 400)
		wide := h.ds
		if dsts, _ := wide.DestinationIndex(); len(dsts) <= batchWidth {
			t.Fatalf("%d destination groups, want more than one batch", len(dsts))
		}
		narrow := &demand.Set{}
		for _, d := range wide.Demands[:20] {
			narrow.Add(d)
		}
		e := h.evals[0]
		h.do(opEvaluate, 0)
		h.ds = narrow
		h.do(opEvaluate, 0)
		for i := 0; e.trav.hopValid == nil; i++ {
			if i == 20 {
				t.Fatal("twenty single circuit flips and no check repaired")
			}
			h.do(opToggleCircuit, 290+17*i)
			h.do(opEvaluate, 0)
		}
		if got, want := len(e.trav.hopValid), batchWidth*len(e.ports); got != want {
			t.Fatalf("slab allocated for %d (field, switch) pairs, want the batch's %d", got, want)
		}
		held := h.masksHeld
		if held == 0 {
			t.Fatal("no retained mask verified on the narrow set")
		}
		h.ds = wide
		for i := 0; i < 6; i++ {
			h.do(opToggleCircuit, 17*i)
			reused := e.HopSetsReused
			h.do(opEvaluate, 0)
			if h.last.repaired || !h.last.traversed {
				t.Fatalf("two batches: check %d repaired=%v traversed=%v", i, h.last.repaired, h.last.traversed)
			}
			if e.HopSetsReused != reused {
				t.Fatalf("two batches: check %d read %d retained masks back", i, e.HopSetsReused-reused)
			}
		}
		if h.masksHeld == held {
			t.Fatal("no retained mask of the wide set's last batch verified")
		}

		// The other way round: the slab is allocated at the narrow set's width,
		// the wide set's fields outgrow it, and it goes with the fields it was
		// shaped like.
		h = newMeshHarness(t, 5, 96, 400)
		e = h.evals[0]
		h.ds = narrow
		h.do(opEvaluate, 0)
		for i := 0; e.trav.hopValid == nil; i++ {
			if i == 20 {
				t.Fatal("twenty single circuit flips and no check repaired")
			}
			h.do(opToggleCircuit, 290+17*i)
			h.do(opEvaluate, 0)
		}
		h.ds = wide
		h.do(opEvaluate, 0)
		if e.trav.hopValid != nil {
			t.Fatalf("a slab of %d validity bytes outlived the %d-entry fields it was allocated beside", len(e.trav.hopValid), len(e.trav.dist))
		}
	})
}
