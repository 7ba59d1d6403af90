package routing

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// upHarness drives long-lived evaluators through arbitrary sequences of view
// mutations and evaluator calls, and after every call holds the evaluator's
// up state, its retained distance fields, its retained next-hop masks and its
// answer against things that share none of the state under test: the view's
// own accessors (for the mask, the flags and the counts), a fresh fork's full
// traversal (for the fields, entry by entry), that traversal and the view's
// accessors again (for every next-hop mask the evaluator holds valid, arc by
// arc), and a fresh fork of the root evaluator whose all-up flags have been
// stripped, so that it bit-walks every switch and retains nothing (for
// violations and loads, in both split modes).
type upHarness struct {
	t     testing.TB
	tp    *topo.Topology
	sw    []topo.SwitchID // every switch
	hubs  []topo.SwitchID
	ds    *demand.Set
	opts  CheckOpts
	allCk []topo.CircuitID

	root  *Evaluator
	evals []*Evaluator
	views [2]*topo.View
	saved *topo.View // an earlier state of views[0], to return to
	ev, v int
	step  int
	last  pathTaken // of the most recent check
	viol  Violation // its answer

	masksHeld int // valid retained next-hop masks verified so far

	dsAlt *demand.Set // the demand set opSwapDemands trades h.ds for, built on first use
}

// pathTaken says how a check came by its distance fields.
type pathTaken struct {
	traversed, repaired bool
	gaveUp              bool // traversed after a repair ran out of budget
	visits, entries     int
}

// newUpHarness builds a random mesh of 24 switches — three rebuilt switches
// are already past the field repair's cut-over, so only circuit flips away
// from the hubs' neighbourhoods are repaired — and a dozen demands.
func newUpHarness(t testing.TB, seed int64) *upHarness {
	return newMeshHarness(t, seed, 24, 12)
}

// newMeshHarness builds a random mesh of n switches with two hubs whose up
// masks span two and three words, port budgets that sit right at the
// switches' degrees (so single drains move switches on and off the
// over-budget count), and the given number of demands between random pairs.
func newMeshHarness(t testing.TB, seed int64, n, demands int) *upHarness {
	rng := rand.New(rand.NewSource(seed))
	tp, sw := randomMeshTopo(rng, n)
	hubs := sw[:2]
	for hi, hub := range hubs {
		for len(tp.Switch(hub).Circuits()) < 70+70*hi {
			c := tp.AddCircuit(hub, sw[2+rng.Intn(len(sw)-2)], 1+7*rng.Float64())
			tp.SetMetric(c, int32(1+rng.Intn(3)))
		}
	}
	for _, s := range []topo.SwitchID{sw[0], sw[1], sw[5], sw[9], sw[13]} {
		tp.SetPorts(s, len(tp.Switch(s).Circuits())-rng.Intn(3))
	}
	ds := &demand.Set{}
	for ds.Len() < demands {
		if src, dst := sw[rng.Intn(len(sw))], sw[rng.Intn(len(sw))]; src != dst {
			ds.Add(demand.Demand{Name: fmt.Sprintf("d%d", ds.Len()), Src: src, Dst: dst, Rate: 0.2 + rng.Float64()})
		}
	}
	return newHarnessOn(t, tp, sw, hubs, ds, CheckOpts{Theta: 0.9, Split: SplitMode(seed % 2)})
}

// newHarnessOn wraps a fabric built by the caller.
func newHarnessOn(t testing.TB, tp *topo.Topology, sw, hubs []topo.SwitchID, ds *demand.Set, opts CheckOpts) *upHarness {
	h := &upHarness{t: t, tp: tp, sw: sw, hubs: hubs, ds: ds, opts: opts}
	for c := 0; c < tp.NumCircuits(); c++ {
		h.allCk = append(h.allCk, topo.CircuitID(c))
	}
	h.root = NewEvaluator(tp)
	h.evals = []*Evaluator{h.root.Fork()}
	h.views = [2]*topo.View{tp.NewView(), tp.NewView()}
	h.saved = tp.NewView()
	return h
}

// The operations do understands.
const (
	opToggleSwitch = iota
	opToggleCircuit
	opToggleHubCircuit // one near a word boundary of a hub's mask
	opReset
	opCopyFrom    // the current view becomes a copy of the other
	opOtherView   // the other view is checked next, on the same evaluator
	opSaveRestore // even operand: remember this state; odd: go back to it
	opFork        // even operand: fork; then move to evaluator operand mod n
	opDriftRate   // one demand's rate changes in place, and stays changed
	opCheck
	opEvaluate
	opCheckDelta  // Check through the forward bench/ still calls
	opDemandDelta // likewise, through CheckDemandDelta
	opTrace
	upOps // the operations above: the random walks of the up state draw from them

	opSwapDemands // another demand set is checked from now on, the two taking turns
	opScale       // the demand scale changes: none, or between 0.5 and 1.5
	opTheta       // the bound changes, between 0.3 and 0.93
	opSplit       // ECMP and WCMP trade places
	opFunnel      // funneling headroom on (the operand picks the circuits) or off
	opFarJump     // a dozen circuits flip at once
	opFlipRate    // one demand's rate doubles or halves in place, exactly
	opMoveSource  // one demand's source moves in place, to the source of another
	allOps
)

// do runs one operation. op selects it, arg picks its operand.
func (h *upHarness) do(op byte, arg int) {
	h.step++
	e, v := h.evals[h.ev], h.views[h.v]
	switch op % allOps {
	case opToggleSwitch:
		s := h.sw[arg%len(h.sw)]
		v.SetSwitchActive(s, !v.SwitchActive(s))
	case opToggleCircuit:
		c := h.allCk[arg%len(h.allCk)]
		v.SetCircuitActive(c, !v.CircuitActive(c))
	case opToggleHubCircuit:
		cks := h.tp.Switch(h.hubs[arg%2]).Circuits()
		at := []int{0, 62, 63, 64, 65, 127, 128, len(cks) - 1}[(arg/2)%8]
		if at < len(cks) {
			v.SetCircuitActive(cks[at], !v.CircuitActive(cks[at]))
		}
	case opReset:
		v.Reset()
	case opCopyFrom:
		v.CopyFrom(h.views[1-h.v])
	case opOtherView:
		h.v = 1 - h.v
	case opSaveRestore:
		if arg%2 == 0 {
			h.saved.CopyFrom(v)
		} else {
			v.CopyFrom(h.saved)
		}
	case opFork:
		if len(h.evals) < 3 && arg%2 == 0 {
			h.evals = append(h.evals, e.Fork())
		}
		h.ev = arg % len(h.evals)
	case opDriftRate:
		// Rates enter no distance field: the next check keeps its fields and
		// must still place the new rates, which the fresh evaluator it is held
		// against reads from the same set.
		d := &h.ds.Demands[arg%h.ds.Len()]
		d.Rate *= 0.5 + float64(arg>>8&0xff)/256
	case opCheck:
		before := *e
		viol := e.Check(v, h.ds, h.opts)
		h.verifyAnswer("Check", e, v, viol, nil, &before)
	case opEvaluate:
		before := *e
		res, viol := e.Evaluate(v, h.ds, h.opts)
		h.verifyAnswer("Evaluate", e, v, viol, &res, &before)
	case opCheckDelta:
		before := *e
		viol := e.CheckDelta(v, nil, nil, h.ds, h.opts)
		h.verifyAnswer("CheckDelta", e, v, viol, nil, &before)
	case opDemandDelta:
		before := *e
		viol := e.CheckDemandDelta(v, nil, h.ds, h.opts)
		h.verifyAnswer("CheckDemandDelta", e, v, viol, nil, &before)
	case opTrace:
		d := h.ds.Demands[arg%h.ds.Len()]
		got, gotErr := e.Trace(v, d.Src, d.Dst)
		if v.SwitchActive(d.Src) && v.SwitchActive(d.Dst) {
			h.verifyState("Trace", e, v) // Trace syncs only once both endpoints are active
		}
		want, wantErr := h.bitWalker(v).Trace(v, d.Src, d.Dst)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			h.t.Fatalf("step %d: Trace(%d→%d) = %v, %v; a fresh evaluator gives %v, %v", h.step, d.Src, d.Dst, got, gotErr, want, wantErr)
		}
	case opSwapDemands:
		if h.dsAlt == nil {
			alt := h.ds.Clone()
			alt.Demands = alt.Demands[1:]
			for i := range alt.Demands {
				alt.Demands[i].Rate *= 0.9
			}
			h.dsAlt = &alt
		}
		h.ds, h.dsAlt = h.dsAlt, h.ds
	case opScale:
		h.opts.DemandScale = 0
		if arg%4 != 0 {
			h.opts.DemandScale = 0.5 + float64(arg&0xff)/256
		}
	case opTheta:
		h.opts.Theta = 0.3 + float64(arg%64)/100
	case opSplit:
		h.opts.Split = SplitCapacityWeighted - h.opts.Split
	case opFunnel:
		if h.opts.FunnelFactor > 1 {
			h.opts.FunnelFactor, h.opts.FunnelCircuits = 0, nil
			break
		}
		h.opts.FunnelFactor = 2
		for i := 0; i < 4; i++ {
			h.opts.FunnelCircuits = append(h.opts.FunnelCircuits, h.allCk[(arg+37*i)%len(h.allCk)])
		}
	case opFarJump:
		for i := 0; i < 12; i++ {
			c := h.allCk[(7*arg+131*i)%len(h.allCk)]
			v.SetCircuitActive(c, !v.CircuitActive(c))
		}
	case opFlipRate:
		// Both ways exact, so a rate comes back bit for bit to a value an
		// earlier check placed.
		if d := &h.ds.Demands[arg%h.ds.Len()]; arg&0x100 == 0 {
			d.Rate *= 2
		} else {
			d.Rate /= 2
		}
	case opMoveSource:
		// The destination, and so the demand's group, stays.
		d, o := &h.ds.Demands[arg%h.ds.Len()], h.ds.Demands[(arg>>8)%h.ds.Len()]
		if o.Src != d.Dst {
			d.Src = o.Src
		}
	}
}

// verifyState holds e's up state against the view, element by element,
// through the view's public accessors only, and then the retained distance
// fields against a fresh traversal.
func (h *upHarness) verifyState(call string, e *Evaluator, v *topo.View) {
	h.t.Helper()
	over, first, marked := 0, topo.SwitchID(0), 0
	for _, s := range h.sw {
		words, _ := e.upWords(int32(s))
		cks := h.tp.Switch(s).Circuits()
		up := 0
		for j, c := range cks {
			bit := words[j>>6]>>(j&63)&1 != 0
			if bit != v.CircuitUp(c) {
				h.t.Fatalf("step %d, after %s: switch %d arc %d (circuit %d): mask says up=%v, the view says %v", h.step, call, s, j, c, bit, v.CircuitUp(c))
			}
			if bit {
				up++
			}
		}
		for j := len(cks); j < 64*len(words); j++ {
			if words[j>>6]>>(j&63)&1 != 0 {
				h.t.Fatalf("step %d, after %s: switch %d has bit %d set beyond its %d arcs", h.step, call, s, j, len(cks))
			}
		}
		var want uint8
		if v.SwitchActive(s) {
			want |= swActive
			if up == len(cks) {
				want |= swAllUp
			}
		}
		if p := h.tp.Switch(s).Ports; p > 0 && up > p {
			want |= swOver
			if over++; over == 1 {
				first = s
			}
		}
		if got := e.swFlags[s] &^ swMarked; got != want {
			h.t.Fatalf("step %d, after %s: switch %d flags %04b, want %04b (%d of %d arcs up, budget %d)", h.step, call, s, got, want, up, len(cks), h.tp.Switch(s).Ports)
		}
		if e.swFlags[s]&swMarked != 0 {
			marked++
		}
	}
	if e.nOver != over {
		h.t.Fatalf("step %d, after %s: over-budget count %d, want %d", h.step, call, e.nOver, over)
	}
	if e.nMarked != marked {
		h.t.Fatalf("step %d, after %s: rebuilt-switch count %d, %d switches carry the mark", h.step, call, e.nMarked, marked)
	}
	var want Violation
	if over > 0 {
		want = Violation{Kind: ViolationPorts, Switch: first}
	}
	if got := e.portViolation(); got != want {
		h.t.Fatalf("step %d, after %s: port violation %v, want %v (the lowest-numbered of %d offenders)", h.step, call, got, want, over)
	}
	for i, w := range e.trav.in {
		if w != 0 {
			h.t.Fatalf("step %d, after %s: word %d of the sweep's inflow marks is %#x between two sweeps", h.step, call, i, w)
		}
	}
	h.verifyFields(call, e, v)
}

// verifyFields holds every retained distance field of e against a full
// traversal by a fresh fork on the same view, entry by entry, and every
// next-hop mask e holds valid beside it against the fresh field and the view,
// arc by arc: bit j of (field, switch) is set iff the switch's j-th circuit is
// up and its far end lies the circuit's metric closer. With no switch
// marked as rebuilt the fields claim to be in step with the up state, which
// verifyState has just held against v — whichever call left them so: a check
// that traversed or repaired, or a Trace that was not to touch them. With
// marks pending (a port rejection, a Trace that moved the up state) the
// fields are a step behind by design and the next routed check answers for
// them.
func (h *upHarness) verifyFields(call string, e *Evaluator, v *topo.View) {
	h.t.Helper()
	if e.nMarked != 0 || len(e.trav.kept) == 0 {
		return
	}
	w := h.root.Fork()
	w.sync(v)
	n := len(e.ports)
	want := make([]int32, n)
	for k, dst := range e.trav.kept {
		clear(want)
		w.distances([]topo.SwitchID{dst}, [][]int32{want})
		for s, d := range e.trav.dist[k*n : (k+1)*n] {
			if d != want[s] {
				h.t.Fatalf("step %d, after %s: retained field of destination %d has %d at switch %d, a fresh traversal %d (both +1, 0 = unreachable)", h.step, call, dst, d, s, want[s])
			}
		}
		if e.trav.hopValid == nil {
			continue
		}
		for _, s := range h.sw {
			if e.trav.hopValid[k*n+int(s)] == 0 {
				continue
			}
			h.masksHeld++
			got := e.trav.hopSets[k*len(e.upBits):][e.wordOff[s]:e.wordOff[s+1]]
			cks := h.tp.Switch(s).Circuits()
			for j := 0; j < 64*len(got); j++ {
				hop := false
				if j < len(cks) {
					ck := h.tp.Circuit(cks[j])
					hop = v.CircuitUp(ck.ID) && want[ck.Other(s)] == want[s]-ck.Metric
				}
				if got[j>>6]>>(j&63)&1 != 0 != hop {
					h.t.Fatalf("step %d, after %s: retained next-hop mask of destination %d at switch %d has bit %d = %v, the field and the view say %v", h.step, call, dst, s, j, !hop, hop)
				}
			}
		}
	}
}

// bitWalker returns a fresh evaluator in sync with v that takes the mask walk
// at every switch: its later syncs of the same view find nothing to rebuild,
// so the stripped flags stay stripped.
func (h *upHarness) bitWalker(v *topo.View) *Evaluator {
	w := h.root.Fork()
	w.sync(v)
	for s := range w.swFlags {
		w.swFlags[s] &^= swAllUp
	}
	return w
}

// verifyAnswer holds a check's answer — violation, result, every
// directional load, bit for bit — and the arcs it visited against the
// bit-walking fresh evaluator's. before is a copy of e taken ahead of the
// call, for the counters.
func (h *upHarness) verifyAnswer(call string, e *Evaluator, v *topo.View, viol Violation, res *Result, before *Evaluator) {
	h.t.Helper()
	h.viol = viol
	h.verifyState(call, e, v)
	w := h.bitWalker(v)
	var wantViol Violation
	if res == nil {
		wantViol = w.Check(v, h.ds, h.opts)
	} else {
		var wantRes Result
		wantRes, wantViol = w.Evaluate(v, h.ds, h.opts)
		if !reflect.DeepEqual(*res, wantRes) {
			h.t.Fatalf("step %d: %s result %+v, a fresh evaluator gives %+v", h.step, call, *res, wantRes)
		}
	}
	if viol != wantViol {
		h.t.Fatalf("step %d: %s violation %v, a fresh evaluator gives %v", h.step, call, viol, wantViol)
	}
	// Full traversals still match the bit walk arc for arc. A call that
	// repaired its retained fields instead stayed within the repair's budget,
	// a share of what the traversal it stands in for visited; one that
	// traversed after a repair gave up has spent more than that budget on top.
	visits, budget := e.ArcVisits-before.ArcVisits, before.trav.keptVisits/repairBudget
	traversed := e.BFSes > before.BFSes
	h.last = pathTaken{
		traversed: traversed,
		repaired:  e.FieldRepairs > before.FieldRepairs,
		gaveUp:    traversed && visits != w.ArcVisits,
		visits:    visits,
		entries:   e.FieldEntriesRepaired - before.FieldEntriesRepaired,
	}
	switch excess := visits - w.ArcVisits; {
	case h.last.traversed && h.last.repaired:
		h.t.Fatalf("step %d: %s both traversed and repaired", h.step, call)
	case h.last.traversed && excess != 0 && excess <= budget:
		h.t.Fatalf("step %d: %s traversed and visited %d arcs, the bit walk visits %d and a repair gives up beyond %d", h.step, call, visits, w.ArcVisits, budget)
	case h.last.repaired && visits > budget:
		h.t.Fatalf("step %d: %s repaired and tested %d arcs, beyond its budget of %d", h.step, call, visits, budget)
	case !h.last.traversed && !h.last.repaired && visits != 0:
		h.t.Fatalf("step %d: %s neither traversed nor repaired and yet visited %d arcs", h.step, call, visits)
	}
	if w.ArcVisitsInPlace != 0 {
		h.t.Fatalf("step %d: the reference evaluator ranged over %d arcs in place", h.step, w.ArcVisitsInPlace)
	}
	h.sameLoads(call, e, w)

	// The other split mode on the same evaluator: a check of an unchanged view,
	// so it keeps its fields and whatever next-hop masks it retains, which do
	// not depend on the mode. Left out after a port rejection, which placed
	// nothing and must go on reading zero loads.
	if !e.placed {
		return
	}
	other := h.opts
	other.Split = SplitCapacityWeighted - h.opts.Split
	call += ", then Evaluate in the other split mode"
	res2, viol2 := e.Evaluate(v, h.ds, other)
	wantRes2, wantViol2 := w.Evaluate(v, h.ds, other)
	if viol2 != wantViol2 || !reflect.DeepEqual(res2, wantRes2) {
		h.t.Fatalf("step %d: %s gives %+v, %v; a fresh evaluator %+v, %v", h.step, call, res2, viol2, wantRes2, wantViol2)
	}
	h.verifyState(call, e, v)
	h.sameLoads(call, e, w)
}

// sameLoads holds every directional load of e's most recent call against w's,
// bit for bit.
func (h *upHarness) sameLoads(call string, e, w *Evaluator) {
	h.t.Helper()
	for _, c := range h.allCk {
		ab, ba := e.CircuitLoad(c)
		wab, wba := w.CircuitLoad(c)
		if math.Float64bits(ab) != math.Float64bits(wab) || math.Float64bits(ba) != math.Float64bits(wba) {
			h.t.Fatalf("step %d: %s loads circuit %d with (%v, %v), a fresh evaluator with (%v, %v)", h.step, call, c, ab, ba, wab, wba)
		}
	}
}

// TestUpMaskFollowsView runs seeded random operation sequences: drains and
// undrains of switches and circuits, Reset, CopyFrom, two views alternating
// on up to three evaluators and forks, every evaluator entry point.
func TestUpMaskFollowsView(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		h := newUpHarness(t, seed)
		rng := rand.New(rand.NewSource(seed * 7919))
		for i := 0; i < 400; i++ {
			op := byte(rng.Intn(upOps))
			if rng.Intn(3) == 0 { // keep the views from draining away
				op = byte(rng.Intn(opReset))
			}
			h.do(op, rng.Intn(1<<16))
		}
	}
}

// TestUpMaskFlagsAndEarlierStates scripts the transitions a random walk
// seldom lines up: the last down arc of a three-word hub coming up, a check
// of an unchanged view, and a view going back to an earlier state.
func TestUpMaskFlagsAndEarlierStates(t *testing.T) {
	h := newUpHarness(t, 99)
	e, v, hub := h.evals[0], h.views[0], h.hubs[1]
	cks := h.tp.Switch(hub).Circuits()
	if len(cks) <= 128 {
		t.Fatalf("hub has %d circuits, want a three-word mask", len(cks))
	}
	h.do(opEvaluate, 0)
	if e.swFlags[hub]&swAllUp == 0 {
		t.Fatal("undrained hub is not flagged all-up")
	}
	v.DrainCircuit(cks[64])
	v.DrainCircuit(cks[130])
	h.do(opEvaluate, 0)
	v.UndrainCircuit(cks[64])
	h.do(opEvaluate, 0)
	if e.swFlags[hub]&swAllUp != 0 {
		t.Fatal("hub with one arc still down is flagged all-up")
	}
	v.UndrainCircuit(cks[130]) // the last down arc comes up
	before := e.UpRebuilds
	h.do(opEvaluate, 0)
	if e.swFlags[hub]&swAllUp == 0 {
		t.Fatal("hub whose last down arc came up is not flagged all-up")
	}
	if got := e.UpRebuilds - before; got != 2 {
		t.Fatalf("one circuit flip rebuilt %d switches, want its 2 endpoints", got)
	}
	h.do(opCheck, 0)
	if got := e.UpRebuilds - before; got != 2 {
		t.Fatalf("a check of an unchanged view rebuilt %d switches", got-2)
	}

	// Back to an earlier state, by CopyFrom and by Reset.
	h.do(opSaveRestore, 0)
	v.DrainSwitch(h.sw[7])
	v.DrainCircuit(cks[3])
	h.do(opCheck, 0)
	h.do(opSaveRestore, 1)
	h.do(opEvaluate, 0)
	v.DrainSwitch(hub)
	h.do(opCheckDelta, 0)
	h.do(opReset, 0)
	h.do(opEvaluate, 0)
}

// newTierHarness puts the harness on one of randomFabric's small three-tier
// fabrics: sparse tier-to-tier wiring, mixed metrics and capacities, a few
// port budgets, a handful of demands, a random bound, and capacity-weighted
// splitting on every third seed. One flipped switch of such a fabric is past
// the field repair's cut-over, so every routed check of a changed view
// traverses.
func newTierHarness(t testing.TB, rng *rand.Rand, seed int64) *upHarness {
	tp, sw := randomFabric(rng)
	ds := randomDemands(rng, sw)
	split := SplitEqual
	if seed%3 == 0 {
		split = SplitCapacityWeighted
	}
	return newHarnessOn(t, tp, sw, sw[:2], &ds, CheckOpts{Theta: 0.5 + rng.Float64()*0.4, Split: split})
}

// TestCheckDeltaMatchesCheckRandomWalk walks a view of a tier fabric through
// random small batches of switch and circuit flips and checks it after each,
// through CheckDelta and through Evaluate in turn, on one long-lived evaluator.
func TestCheckDeltaMatchesCheckRandomWalk(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := newTierHarness(t, rng, seed)
			for step := 0; step < 60; step++ {
				for k := 0; k < 1+rng.Intn(3); k++ {
					h.do(byte(opToggleSwitch+rng.Intn(2)), rng.Intn(1<<16))
				}
				h.do([]byte{opCheckDelta, opEvaluate}[step%2], 0)
			}
		})
	}
}

// TestCheckDemandDeltaMatchesCheckRandomWalk walks the demand rates of a tier
// fabric instead, in place, with the forecast scale moving now and then and a
// circuit flip every fifth step. A check of an unchanged view at other rates
// must place those rates — and, rates entering no distance field, must not
// walk the fabric to do it.
func TestCheckDemandDeltaMatchesCheckRandomWalk(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := newTierHarness(t, rng, seed)
			h.do(opCheckDelta, 0) // the evaluator's first check traverses
			for step := 0; step < 60; step++ {
				if step%17 == 8 {
					h.opts.DemandScale = 1 + rng.Float64()*0.5
				}
				if step%5 == 4 {
					h.do(opToggleCircuit, rng.Intn(1<<16))
					h.do(opCheckDelta, 0)
					continue
				}
				for k := 0; k < 1+rng.Intn(3); k++ {
					h.do(opDriftRate, rng.Intn(1<<16))
				}
				h.do(opDemandDelta, 0)
				if h.last.visits != 0 {
					t.Fatalf("step %d: a check after a rate change alone visited %d arcs", step, h.last.visits)
				}
				if step%2 == 1 {
					h.do(opEvaluate, 0)
				}
			}
		})
	}
}

// expect fails unless the harness's most recent check answered with a
// violation of the given kind.
func (h *upHarness) expect(kind ViolationKind, what string) {
	h.t.Helper()
	if h.viol.Kind != kind {
		h.t.Fatalf("%s: %v, want %v", what, h.viol, kind)
	}
}

// TestCheckDeltaDstDrainUndrain drains and undrains the one destination: the
// destination list changes both times, and the verdict flips both ways.
func TestCheckDeltaDstDrainUndrain(t *testing.T) {
	tp, sw, _ := diamond()
	ds := oneDemand(sw[0], sw[3], 8)
	h := newHarnessOn(t, tp, sw, sw[:2], &ds, CheckOpts{Theta: 0.9})
	v := h.views[0]
	h.do(opCheckDelta, 0)
	h.expect(ViolationNone, "initial")
	v.DrainSwitch(sw[3])
	h.do(opCheckDelta, 0)
	h.expect(ViolationUnreachable, "destination drained")
	v.UndrainSwitch(sw[3])
	h.do(opCheckDelta, 0)
	h.expect(ViolationNone, "destination undrained")
}

// TestCheckDeltaPortFlip moves a switch over its port budget and back under
// it by another way, which cuts the source off.
func TestCheckDeltaPortFlip(t *testing.T) {
	tp := topo.New("ports")
	a := tp.AddSwitch(topo.Switch{Name: "a", Role: topo.RoleRSW})
	b := tp.AddSwitch(topo.Switch{Name: "b", Role: topo.RoleFSW, Ports: 1})
	c := tp.AddSwitch(topo.Switch{Name: "c", Role: topo.RoleSSW})
	c0 := tp.AddCircuit(a, b, 10)
	tp.AddCircuit(b, c, 10)
	c2 := tp.AddCircuit(a, c, 10)
	ds := oneDemand(a, c, 1)
	sw := []topo.SwitchID{a, b, c}
	h := newHarnessOn(t, tp, sw, sw[:2], &ds, CheckOpts{Theta: 0.9})
	v := h.views[0]
	v.DrainCircuit(c0) // b starts with one up circuit against its budget of one
	h.do(opCheckDelta, 0)
	h.expect(ViolationNone, "initial")
	v.UndrainCircuit(c0)
	h.do(opCheckDelta, 0)
	h.expect(ViolationPorts, "b over its budget")
	v.DrainCircuit(c2)
	v.DrainCircuit(c0)
	h.do(opCheckDelta, 0)
	h.expect(ViolationUnreachable, "a cut off")
}

// FuzzUpMaskFollowsView feeds arbitrary operation sequences — three bytes a
// step: operation, operand high, operand low — to the same harness.
func FuzzUpMaskFollowsView(f *testing.F) {
	// Drain and undrain one switch; a hub circuit at bit 63 down and up; two
	// views alternating with a rate drifting in between; back to an earlier
	// state and Reset; fork mid-way, CopyFrom, Trace.
	f.Add([]byte{opEvaluate, 0, 0, opToggleSwitch, 0, 5, opEvaluate, 0, 0, opToggleSwitch, 0, 5, opEvaluate, 0, 0})
	f.Add([]byte{opToggleHubCircuit, 0, 4, opCheck, 0, 0, opToggleHubCircuit, 0, 4, opCheck, 0, 0})
	f.Add([]byte{opCheckDelta, 0, 0, opToggleCircuit, 0, 9, opOtherView, 0, 0, opToggleSwitch, 0, 3, opCheck, 0, 0, opOtherView, 0, 0, opDriftRate, 200, 2, opDemandDelta, 0, 0})
	f.Add([]byte{opSaveRestore, 0, 0, opToggleSwitch, 0, 1, opToggleCircuit, 0, 7, opEvaluate, 0, 0, opSaveRestore, 0, 1, opEvaluate, 0, 0, opReset, 0, 0, opEvaluate, 0, 0})
	f.Add([]byte{opFork, 0, 0, opToggleSwitch, 0, 2, opEvaluate, 0, 0, opFork, 0, 1, opEvaluate, 0, 0, opCopyFrom, 0, 0, opTrace, 0, 3, opEvaluate, 0, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 600 {
			script = script[:600]
		}
		h := newUpHarness(t, 1)
		for ; len(script) >= 3; script = script[3:] {
			h.do(script[0], int(script[1])<<8|int(script[2]))
		}
	})
}
