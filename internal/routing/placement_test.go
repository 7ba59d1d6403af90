package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"klotski/internal/demand"
)

// The retained placement answers a routed check from what the check before
// it placed, re-placing only what the change reaches. These tests drive it
// through upHarness (upstate_test.go) in one-mode scripts — the split mode
// changes only when a script says so — which after every evaluator call hold
// the answer, every directional load bit for bit and Result against a fresh
// evaluator's, and every retained field and valid next-hop mask against a
// fresh traversal. What they add is scripts that mix everything a retained
// placement has to notice: view flips and far jumps, rates changed in place
// and demand sets swapped, the demand scale, the bound, the split mode and
// funneling changing, Check and Evaluate interleaved.

// newPlacementHarness builds a one-mode harness on a random mesh of 96
// switches with two multi-word hubs, as newMeshHarness does, but loaded so
// that most states pass — only a passing check can answer from the retained
// placement, and only a complete placement leaves one behind — and with no
// port budget, which would end checks before they route (TestPlacementScripted
// has the port rejection between two routed checks).
func newPlacementHarness(t testing.TB, seed int64) *upHarness {
	rng := rand.New(rand.NewSource(seed))
	tp, sw := randomMeshTopo(rng, 96)
	hubs := sw[:2]
	for hi, hub := range hubs {
		for len(tp.Switch(hub).Circuits()) < 70+70*hi {
			c := tp.AddCircuit(hub, sw[2+rng.Intn(len(sw)-2)], 1+7*rng.Float64())
			tp.SetMetric(c, int32(1+rng.Intn(3)))
		}
	}
	ds := &demand.Set{}
	for ds.Len() < 20 {
		if src, dst := sw[rng.Intn(len(sw))], sw[rng.Intn(len(sw))]; src != dst {
			ds.Add(demand.Demand{Name: fmt.Sprintf("d%d", ds.Len()), Src: src, Dst: dst, Rate: 0.05 + 0.3*rng.Float64()})
		}
	}
	h := newHarnessOn(t, tp, sw, hubs, ds, CheckOpts{Theta: 0.9, Split: SplitMode(seed % 2)})
	h.oneMode = true
	return h
}

// placementOp draws one operation of a placement script: mostly single flips
// and checks, the rest of the time anything do understands.
func placementOp(rng *rand.Rand) byte {
	switch r := rng.Intn(20); {
	case r < 6:
		return byte(opToggleCircuit + rng.Intn(2))
	case r < 12:
		return byte(opCheck + rng.Intn(2))
	case r < 14:
		return byte(opDriftRate + (opFlipRate-opDriftRate)*rng.Intn(2))
	default:
		return byte(rng.Intn(allOps))
	}
}

// placementTally counts how the checks of a script came by their answers.
type placementTally struct{ checks, retained, fellBack int }

func (c *placementTally) add(h *upHarness, op byte) {
	if op := op % allOps; op >= opCheck && op < opTrace {
		c.checks++
		if h.last.retained {
			c.retained++
		}
		if h.last.fellBack {
			c.fellBack++
		}
	}
}

// TestPlacementFollowsView runs seeded random placement scripts on meshes
// large enough for single flips to fall under the field repair's cut-over,
// and requires that the retained placement answered a good share of the
// checks and fell back on some: scripts that never reach it check nothing.
func TestPlacementFollowsView(t *testing.T) {
	var c placementTally
	for seed := int64(1); seed <= 8; seed++ {
		h := newPlacementHarness(t, seed)
		rng := rand.New(rand.NewSource(seed * 15485863))
		for i := 0; i < 600; i++ {
			op := placementOp(rng)
			h.do(op, rng.Intn(1<<16))
			c.add(h, op)
		}
	}
	t.Logf("%d checks: %d answered from the retained placement, %d fell back", c.checks, c.retained, c.fellBack)
	if c.retained < c.checks/5 || c.fellBack < 20 {
		t.Fatalf("%d checks: %d answered from the retained placement, %d fell back; the scripts reach it too seldom", c.checks, c.retained, c.fellBack)
	}
}

// TestPlacementScripted walks the cases the random scripts seldom line up,
// each on an evaluator whose last check left a retained placement: a rate
// changed in place and changed back, the bound and the scale moving a circuit
// over and back under, funneling headroom on and off, the split mode
// changing, another demand set, a port rejection and an unreachable demand
// in between, and a change that moves more than the budget allows.
func TestPlacementScripted(t *testing.T) {
	l := newLadder(t)
	h := l.h
	h.oneMode = true
	v := l.view()
	step := func(op byte, arg int, retained bool, what string) {
		t.Helper()
		h.do(op, arg)
		if h.last.retained != retained {
			t.Fatalf("%s: answered from the retained placement = %v, want %v (fell back %v)", what, h.last.retained, retained, h.last.fellBack)
		}
	}
	// settle checks the unchanged view until the retained placement answers:
	// the sweeps place anew, the gate reads them, and a park, if the gate
	// closed twice, runs out.
	settle := func(what string) {
		t.Helper()
		for i := 0; !h.last.retained; i++ {
			if i == 8 {
				t.Fatalf("%s: eight checks and none answered from the retained placement", what)
			}
			h.do(opCheck, 0)
		}
	}
	step(opEvaluate, 0, false, "first check")
	v.DrainCircuit(l.railB[40])
	step(opEvaluate, 0, false, "the first repaired check places into the slab it allocates")
	v.UndrainCircuit(l.railB[40])
	step(opCheck, 0, false, "the gate reads every forwarding switch placed anew")
	v.DrainCircuit(l.railB[40])
	step(opCheck, 0, true, "one circuit down")
	v.UndrainCircuit(l.railB[40])
	step(opCheck, 0, true, "and back up")
	step(opCheck, 0, true, "unchanged view")

	d := &h.ds.Demands[6] // b5 → a20: a short path
	rate := d.Rate
	d.Rate *= 1.5
	step(opEvaluate, 0, true, "a rate changed in place")
	d.Rate = rate
	step(opCheck, 0, true, "and changed back")

	h.opts.Theta = 0.01
	step(opCheck, 0, false, "a bound every loaded circuit exceeds")
	h.expect(ViolationUtilization, "a bound every loaded circuit exceeds")
	h.opts.Theta = 0.9
	step(opEvaluate, 0, false, "the bound back, after a check that exited early")
	step(opCheck, 0, true, "and again")
	h.opts.DemandScale = 100
	step(opEvaluate, 0, false, "a scale that puts circuits over")
	h.expect(ViolationUtilization, "a scale that puts circuits over")
	h.opts.DemandScale = 1.25
	step(opCheck, 0, true, "a scale that does not")

	h.do(opFunnel, 5)
	step(opCheck, 0, true, "funneling headroom on")
	h.do(opFunnel, 0)
	step(opCheck, 0, true, "and off")
	h.opts.FunnelFactor, h.opts.FunnelCircuits = 1000, l.railA[:20]
	step(opEvaluate, 0, false, "headroom that puts a funneled circuit over")
	h.expect(ViolationUtilization, "headroom that puts a funneled circuit over")
	h.opts.FunnelFactor, h.opts.FunnelCircuits = 0, nil
	step(opCheck, 0, true, "no headroom")

	// A rate that only the sweeps place, and that then comes back to a value
	// an earlier placement was seeded with, at the first check that tries the
	// retained placement again; a source moved in place.
	e := h.evals[0]
	d.Rate *= 2
	h.do(opSplit, 0)
	step(opEvaluate, 0, false, "a doubled rate, placed in the other split mode")
	h.do(opSplit, 0)
	step(opCheck, 0, false, "the split mode back, placed anew")
	for i := 0; !gateOpen(e); i++ {
		if i == 8 {
			t.Fatal("eight checks after the split mode came back and the gate is still shut")
		}
		step(opCheck, 0, false, "placed by the sweeps")
	}
	d.Rate /= 2
	step(opCheck, 0, true, "the rate back to its value of two placements ago")
	src := d.Src
	d.Src = l.b[6]
	step(opCheck, 0, true, "a source moved in place")
	d.Src = src
	step(opCheck, 0, true, "and back")

	// The group number wraps in the middle of the sweeps' placement (after a
	// check that exited early, so that the retained placement is not tried
	// first): the placement goes, and the sweeps place again.
	h.opts.Theta = 0.01
	step(opCheck, 0, false, "a bound every loaded circuit exceeds, once more")
	h.opts.Theta = 0.9
	e.trav.group = math.MaxUint16 - 2
	step(opEvaluate, 0, false, "the group number wraps during the sweeps")
	v.DrainCircuit(l.railB[40])
	step(opCheck, 0, false, "nothing retained across the wrap")
	settle("after the wrap")

	h.do(opSplit, 0)
	step(opEvaluate, 0, false, "the other split mode")
	settle("WCMP")
	v.DrainCircuit(l.railB[40])
	step(opEvaluate, 0, true, "WCMP, one circuit down")
	v.UndrainCircuit(l.railB[40])
	step(opCheck, 0, true, "WCMP, back up")

	h.do(opSwapDemands, 0)
	step(opCheck, 0, false, "another demand set")
	settle("the other demand set")
	h.do(opSwapDemands, 0)
	step(opCheck, 0, false, "the first set back")
	settle("the first set back")

	// A port rejection in between routes nothing and keeps the placement.
	v.UndrainCircuit(l.extra)
	step(opCheck, 0, false, "over the port budget")
	h.expect(ViolationPorts, "over the port budget")
	v.DrainCircuit(l.extra)
	step(opEvaluate, 0, true, "within budget again")

	// A cut-off destination region: its demands are unreachable, which the
	// sweeps report.
	v.DrainCircuit(l.railA[123])
	v.DrainCircuit(l.railB[123])
	step(opCheck, 0, false, "sources cut off")
	h.expect(ViolationUnreachable, "sources cut off")
	v.UndrainCircuit(l.railA[123])
	v.UndrainCircuit(l.railB[123])
	step(opEvaluate, 0, false, "reconnected: the check before exited early")
	step(opCheck, 0, true, "and the one after that")

	// Every rate changed in place moves every forwarding switch: the
	// re-placement outgrows its budget, and the sweeps answer.
	for i := range h.ds.Demands {
		h.ds.Demands[i].Rate *= 1.1
	}
	step(opEvaluate, 0, false, "every rate changed")
	if !h.last.fellBack {
		t.Fatal("every rate changed: the re-placement did not try and give up")
	}
}

// gateOpen reports whether e's next routed check will try its retained
// placement, demand set and split mode permitting.
func gateOpen(e *Evaluator) bool {
	pl := &e.trav.pl
	return pl.ok && pl.replaced*placementGate <= pl.carrying
}

// TestPlacementParks holds the parking to its schedule. On the ladder, a
// check whose every rate changed re-places every forwarding switch, so the
// gate reads closed each time: from the second such reading on, the sweeps
// keep nothing, except for one placement that brings the slab up to date and
// one that measures after each park of 1, 2, 4, … checks. Once the rates
// stand still the placement answers again within a park's length.
func TestPlacementParks(t *testing.T) {
	l := newLadder(t)
	h := l.h
	h.oneMode = true
	e := h.evals[0]
	v := l.view()
	h.do(opEvaluate, 0)
	v.DrainCircuit(l.railB[40])
	h.do(opEvaluate, 0) // the first repaired check: the slab is allocated
	var kept []int      // the checks whose sweeps kept a placement
	for i := 0; i < 40; i++ {
		for j := range h.ds.Demands {
			h.ds.Demands[j].Rate *= 1.01
		}
		h.do(opCheck, 0)
		if h.last.retained {
			t.Fatalf("check %d, every rate changed: answered from the retained placement", i)
		}
		if !e.trav.pl.parked {
			kept = append(kept, i)
		}
	}
	// The first check keeps (the reading before it, of the check that
	// allocated the slab, is the first closed one); then parks of 1, 2, 4, 8
	// and 16 checks, each followed by one that refreshes and one that
	// measures.
	want := []int{0, 2, 3, 6, 7, 12, 13, 22, 23}
	if fmt.Sprint(kept) != fmt.Sprint(want) {
		t.Fatalf("sweeps kept a placement at checks %v, want %v", kept, want)
	}
	for i := 0; !h.last.retained; i++ {
		if i == 40 {
			t.Fatal("forty checks at standing rates and none answered from the retained placement")
		}
		v.SetCircuitActive(l.railB[40], !v.CircuitActive(l.railB[40]))
		h.do(opCheck, 0)
	}
	if e.trav.pl.backoff != 0 {
		t.Fatalf("an open reading left a backoff of %d", e.trav.pl.backoff)
	}
}

// FuzzPlacementFollowsView feeds arbitrary operation sequences — the script
// format of FuzzUpMaskFollowsView, every operation do understands — to a
// one-mode harness on a 96-switch mesh.
func FuzzPlacementFollowsView(f *testing.F) {
	// A flip and back with checks between; a rate drifting in place; the
	// bound, the scale, funneling and the split changing under a kept
	// placement; a demand set swapped in and out; a far jump and back.
	f.Add([]byte{opEvaluate, 0, 0, opToggleCircuit, 0, 40, opEvaluate, 0, 0, opToggleCircuit, 0, 40, opCheck, 0, 0, opCheck, 0, 0})
	f.Add([]byte{opCheck, 0, 0, opToggleCircuit, 0, 9, opCheck, 0, 0, opDriftRate, 200, 1, opCheck, 0, 0, opDriftRate, 90, 1, opEvaluate, 0, 0})
	f.Add([]byte{opEvaluate, 0, 0, opToggleCircuit, 0, 3, opEvaluate, 0, 0, opTheta, 0, 50, opCheck, 0, 0, opScale, 0, 77, opEvaluate, 0, 0, opFunnel, 0, 9, opCheck, 0, 0, opFunnel, 0, 0, opSplit, 0, 0, opEvaluate, 0, 0, opToggleCircuit, 0, 3, opCheck, 0, 0})
	f.Add([]byte{opCheck, 0, 0, opToggleCircuit, 0, 12, opCheck, 0, 0, opSwapDemands, 0, 0, opCheck, 0, 0, opCheck, 0, 0, opSwapDemands, 0, 0, opEvaluate, 0, 0, opFarJump, 0, 5, opCheck, 0, 0, opFarJump, 0, 5, opEvaluate, 0, 0, opCheck, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 600 {
			script = script[:600]
		}
		h := newPlacementHarness(t, 3)
		for ; len(script) >= 3; script = script[3:] {
			h.do(script[0], int(script[1])<<8|int(script[2]))
		}
	})
}
