package core

import (
	"math"

	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// The lifted check behind the lane's routed branch. At its first routed check
// a lane decides, once, whether to route the quotient of the task's fabric
// instead of the fabric (routing.Quotient): it builds the quotient under a
// quota of 1/liftArcShare of the fabric's circuits as circuit classes, and
// lifts if and only if the build succeeds. The quotient's size alone decides,
// because a routed check costs about the arcs it scans: a quotient with more
// than a quarter of the fabric's saves too little per check to pay for its
// build, and a build the quota refuses stops at the refinement round whose
// circuit classes pass the quota, so a small fabric pays microseconds for
// asking. From then on a routed check asks the quotient first and the full
// evaluator only when the quotient is not sure. The search reads nothing of a routed check but its
// verdict, which the quotient's equals; the audit, plan documents and every
// reported utilization stay on the full evaluator. DESIGN.md, "Lifted
// satisfiability check", has the argument and the readings the gate is
// fitted on.

// liftArcShare: the quotient may have at most 1/liftArcShare of the fabric's
// circuits as circuit classes, and so of its directed arcs as quotient arcs,
// for a lifted check to pay.
const liftArcShare = 4

// Gate overrides for tests (liftForce). liftShipped is the gate as described
// above; liftOpen lifts from a lane's first routed check whenever the
// quotient builds, at any size; liftShut never lifts.
const (
	liftShipped = iota
	liftOpen
	liftShut
)

// liftForce overrides the gate; tests set it, and it is liftShipped otherwise.
var liftForce = liftShipped

// liftedHook, when set, is called with every verdict the lifted check is sure
// of, with the options the full evaluator would have checked the state under.
// Tests set it to hold each such verdict to the full check's; it is nil
// otherwise.
var liftedHook func(ln *lane, copts routing.CheckOpts, ok bool)

// lifted is a lane's quotient, and per drain block the circuit classes its
// funnel set makes up.
type lifted struct {
	q         *routing.Quotient
	funnel    [][]int32
	funnelFit []int8 // per block: 0 not yet asked, 1 a union of circuit classes, 2 not
}

// liftedCheck answers a routed check from the quotient when the gate is open
// and the quotient is sure; sure is false otherwise, and the caller routes the
// state on the full evaluator. funnelBlock is the in-flight block whose
// funnel set copts holds to θ/F, or -1.
func (ln *lane) liftedCheck(copts routing.CheckOpts, funnelBlock int) (ok, sure bool) {
	if !ln.liftDecided {
		ln.liftDecided = true
		ln.lift = ln.openLift()
	}
	lf := ln.lift
	if lf == nil {
		return false, false
	}
	sp := ln.sp
	var funnel []int32
	fits := true
	if funnelBlock >= 0 {
		funnel, fits = lf.funnelClasses(sp, funnelBlock)
	}
	if fits {
		repaired := lf.q.FieldRepairs
		ok, sure = lf.q.Check(ln.view, sp.demands, copts, funnel)
		if n := lf.q.FieldRepairs - repaired; n > 0 {
			sp.metrics.LiftedFieldRepairs += n
			sp.rec.Add(obs.LiftedFieldRepairs, n)
		}
	}
	if !sure {
		sp.metrics.LiftedFallbacks++
		sp.rec.Add(obs.LiftedFallbacks, 1)
		return false, false
	}
	sp.metrics.LiftedChecks++
	sp.rec.Add(obs.LiftedChecks, 1)
	if liftedHook != nil {
		liftedHook(ln, copts, ok)
	}
	return ok, true
}

// openLift reads the gate: the quotient when the build succeeds under the
// gate's quota, nil when the lane stays on the full evaluator.
func (ln *lane) openLift() *lifted {
	quota := ln.sp.task.Topo.NumCircuits()
	switch liftForce {
	case liftShut:
		return nil
	case liftShipped:
		quota /= liftArcShare
	}
	q, ok := LiftedQuotient(ln.sp.task, quota)
	if !ok {
		return nil
	}
	return &lifted{q: q}
}

// LiftedQuotient returns the quotient a lane's lifted check routes for the
// task: the coarsest equitable partition of its fabric under liftColours,
// built under a quota of circuit classes. It is false when the build declines
// (routing.NewQuotient); a quota of task.Topo.NumCircuits() lets it build at
// any size.
func LiftedQuotient(task *migration.Task, quota int) (*routing.Quotient, bool) {
	sw, ck := liftColours(task, 0)
	return routing.NewQuotient(task.Topo, sw, ck, quota)
}

// funnelClasses returns the circuit classes of the block's funnel set, and
// whether the set is a union of classes. The block's colour and its switches'
// neighbourhoods fix the set, so it always is one; a set that is not leaves
// the block's checks to the full evaluator.
func (lf *lifted) funnelClasses(sp *space, blockID int) ([]int32, bool) {
	if lf.funnelFit == nil {
		lf.funnel = make([][]int32, len(sp.task.Blocks))
		lf.funnelFit = make([]int8, len(sp.task.Blocks))
	}
	if lf.funnelFit[blockID] == 0 {
		cls, ok := lf.q.CircuitClasses(sp.funnelOf(blockID))
		lf.funnel[blockID], lf.funnelFit[blockID] = cls, 2
		if ok {
			lf.funnelFit[blockID] = 1
		}
	}
	return lf.funnel[blockID], lf.funnelFit[blockID] == 1
}

// funnelOf returns the block's funnel set (funnelCircuits), computed once per
// block.
func (sp *space) funnelOf(blockID int) []topo.CircuitID {
	if sp.funnels == nil {
		sp.funnels = make([][]topo.CircuitID, len(sp.task.Blocks))
	}
	if sp.funnels[blockID] == nil {
		fs := funnelCircuits(sp.task, blockID)
		if fs == nil {
			fs = []topo.CircuitID{} // computed, and empty
		}
		sp.funnels[blockID] = fs
	}
	return sp.funnels[blockID]
}

// colourKind names one colour of the lifted check's partition. Production
// colours with all of them; a test drops one to show the check needs it.
type colourKind uint8

const (
	colourBlock    colourKind = 1 << iota // the block that operates the element, if any
	colourBase                            // the element's base activity
	colourEndpoint                        // a demand endpoint's own identity
	colourPorts                           // a switch's port budget
	colourCapacity                        // a circuit's capacity
	colourMetric                          // a circuit's metric
)

// liftColours colours the task's switches and circuits for the lifted
// check's partition, in small dense integers: a switch by the block that
// operates it, its base activity and its port budget, or by its own identity
// when it is a demand endpoint; a circuit by the block that operates it, its
// base activity, its capacity and its metric. Every view the planner reaches
// sets an element's activity from its block and its base activity alone, so
// it is constant on every class of a partition that respects these colours.
// The colours in drop are left out.
func liftColours(task *migration.Task, drop colourKind) (sw, ck []int32) {
	t := task.Topo
	sw = make([]int32, t.NumSwitches())
	ck = make([]int32, t.NumCircuits())
	for i := range sw {
		sw[i] = -1
	}
	for i := range ck {
		ck[i] = -1
	}
	if drop&colourBlock == 0 {
		for b := range task.Blocks {
			for _, s := range task.Blocks[b].Switches {
				sw[s] = int32(b)
			}
			for _, c := range task.Blocks[b].Circuits {
				ck[c] = int32(b)
			}
		}
	}
	const endpoint = math.MinInt32
	if drop&colourEndpoint == 0 {
		for _, d := range task.Demands.Demands {
			sw[d.Src], sw[d.Dst] = endpoint, endpoint
		}
	}

	type swKey struct {
		block int32
		ports int
		base  bool
	}
	// Numbered through a map, looked up only when a key differs from the one
	// before: generators lay elements out in runs of one key.
	swIDs := map[swKey]int32{}
	next := int32(0)
	var lastSw swKey
	lastID := int32(-1)
	for i, b := range sw {
		if b == endpoint {
			sw[i] = next
			next++
			continue
		}
		s := topo.SwitchID(i)
		k := swKey{block: b}
		if drop&colourPorts == 0 {
			k.ports = t.Switch(s).Ports
		}
		if drop&colourBase == 0 {
			k.base = t.SwitchActive(s)
		}
		if lastID < 0 || k != lastSw {
			id, seen := swIDs[k]
			if !seen {
				id = next
				swIDs[k] = id
				next++
			}
			lastSw, lastID = k, id
		}
		sw[i] = lastID
	}

	type ckKey struct {
		block    int32
		base     bool
		capacity float64
		metric   int32
	}
	ckIDs := map[ckKey]int32{}
	var lastCk ckKey
	lastID = -1
	for i, b := range ck {
		c := topo.CircuitID(i)
		k := ckKey{block: b}
		if drop&colourBase == 0 {
			k.base = t.CircuitActive(c)
		}
		if drop&colourCapacity == 0 {
			k.capacity = t.Circuit(c).Capacity
		}
		if drop&colourMetric == 0 {
			k.metric = t.Circuit(c).Metric
		}
		if lastID < 0 || k != lastCk {
			id, seen := ckIDs[k]
			if !seen {
				id = int32(len(ckIDs))
				ckIDs[k] = id
			}
			lastCk, lastID = k, id
		}
		ck[i] = lastID
	}
	return sw, ck
}
