package core

import (
	"math"
	"math/bits"
	"time"

	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// lane is the complete mutable state of a satisfiability check: the
// scratch topology view, the routing evaluator with its retained up state
// and distance fields (the caller's, or one built at the first routed check
// the lifted check does not answer), the packed occupancy bitset, and the
// counts behind the two verdicts the lane answers before routing. A space
// owns exactly one (space.ln), on the planner's goroutine, so consecutive
// checks are neighbours on one evaluator and each costs what differs from
// the one before.
//
// Lane verdicts before routing. A check answers, in order: occupancy, then
// the port budgets (Eq. 6), then the capacity cuts, then routing. The first
// three come from state that buildView moves by deltas as it flips elements,
// so the evaluator is called only for states that need routing, and its
// retained up state and fields move only between routed states. Once the
// lifted check's gate opens (lift.go), routing asks the quotient of the
// fabric first and the evaluator only when the quotient is not sure.
//
//   - Ports: the up-degree of every switch and how many are over budget. A
//     switch over budget is exactly the evaluator's port violation, and is
//     structural.
//   - Cuts: per cut of the task's family (cutFamily), the up capacity of the
//     circuits across it. A demand that crosses a cut puts at least its rate
//     on those circuits, both directions counted, and a circuit's
//     utilization counts both directions. So if the crossing demand times
//     the demand scale exceeds θ × the cut's up capacity, some circuit is
//     over θ under any split (ECMP, WCMP), and over θ/F ≤ θ when funneled;
//     and if no circuit is up across it, the demand is unreachable. Either
//     way the routed check fails, and the verdict is demand-dependent.
//
// DESIGN.md, "Lane verdicts before routing", has the margin argument and
// what the verdicts catch on each suite fabric.
type lane struct {
	sp   *space
	eval *routing.Evaluator
	view *topo.View

	// curVec tracks the vector currently materialized in view, enabling
	// incremental delta application between consecutive checks (planners
	// mostly check near-neighbor states, so the delta is usually one or
	// two blocks instead of a full rebuild). nil until the first build.
	curVec []uint16

	// act is the packed occupancy state: the active-switch bitset mirroring
	// curVec, maintained incrementally by buildView so the occupancy check
	// is one popcount per budget-constrained DC. nil when no space budget
	// is set.
	act routing.Bitset

	// deg is the number of up circuits at each switch in the view, and nOver
	// the number of switches with a port budget that deg exceeds; nil and 0
	// when no switch has a budget.
	deg   []int32
	nOver int

	// cutCap is the up capacity across each live cut, in the family's fixed
	// point: every circuit's capacity is rounded up to a whole unit, so the
	// sums are exact however many flips they follow.
	cutCap [maxCuts]int64

	// The lifted check (lift.go): liftDecided is whether the gate has been
	// read, and lift is the quotient when it opened.
	liftDecided bool
	lift        *lifted

	// structRejected reports whether the most recent failing check was
	// rejected by the occupancy budget or by a switch's port budget — both
	// demand-independent (structural) verdicts the bound engine keeps
	// across demand drift.
	structRejected bool
}

// laneRejectHook, when set, is called with every state the lane rejects
// before routing, with the options the evaluator would have checked it
// under, and with whether the rejection was the port verdict (otherwise it
// was a cut). Tests set it to hold each such verdict to the full check's;
// it is nil otherwise.
var laneRejectHook func(ln *lane, copts routing.CheckOpts, port bool)

// newLane builds the space's check lane around eval, the caller's
// Options.Evaluator; when it is nil the lane builds its own at the first
// routed check the quotient does not answer.
func (sp *space) newLane(eval *routing.Evaluator) *lane {
	ln := &lane{sp: sp, eval: eval, view: sp.task.Topo.NewView()}
	if sp.actBase != nil {
		ln.act = routing.NewBitset(sp.task.Topo.NumSwitches())
	}
	if sp.ports != nil {
		ln.deg = make([]int32, sp.task.Topo.NumSwitches())
	}
	return ln
}

// check performs the actual satisfiability check: rebuild the lane's view
// for the vector's canonical prefix of blocks, then verify space, port,
// and demand constraints. v aliases interned storage and is read-only.
func (ln *lane) check(v []uint16, last migration.ActionType, funneling bool) bool {
	sp := ln.sp
	sp.metrics.Checks++
	ln.structRejected = false
	var checkStart time.Time
	if sp.rec.Enabled() {
		checkStart = time.Now()
		defer func() {
			sp.rec.Add(obs.Checks, 1)
			sp.rec.Observe(obs.CheckLatency, time.Since(checkStart))
		}()
	}
	ln.buildView(v)

	if ln.act != nil && !ln.occupancyOK() {
		ln.structRejected = true
		return false
	}

	copts := routing.CheckOpts{Theta: sp.opts.theta(), Split: sp.opts.Split}
	if sp.scales != nil {
		finished := 0
		for _, c := range v {
			finished += int(c)
		}
		copts.DemandScale = sp.demandScaleAt(finished)
	}
	funnelBlock := -1
	if funneling {
		funnelBlock = sp.task.BlocksOfType(last)[int(v[last])-1]
		copts.FunnelFactor = sp.opts.FunnelFactor
		copts.FunnelCircuits = sp.funnelOf(funnelBlock)
	}
	switch {
	case ln.nOver > 0:
		sp.metrics.PortRejects++
		sp.rec.Add(obs.PortRejects, 1)
		ln.structRejected = true
	case ln.cutOverloaded(copts.Scale(), copts.Theta):
		sp.metrics.CutRejects++
		sp.rec.Add(obs.CutRejects, 1)
	default:
		if ok, sure := ln.liftedCheck(copts, funnelBlock); sure {
			return ok
		}
		if ln.eval == nil {
			ln.eval = routing.NewEvaluator(sp.task.Topo)
		}
		return ln.eval.Check(ln.view, sp.demands, copts).OK()
	}
	if laneRejectHook != nil {
		laneRejectHook(ln, copts, ln.structRejected)
	}
	return false
}

// cutMargin is the relative margin a cut's crossing demand must clear above
// θ × its up capacity before the lane rejects: it covers the float error of
// the crossing-demand sum and of the routed loads the evaluator would add up,
// both orders of magnitude smaller.
const cutMargin = 1e-9

// cutOverloaded reports whether some live cut is overloaded.
func (ln *lane) cutOverloaded(scale, theta float64) bool {
	for x := ln.sp.cuts.live; x != 0; x &= x - 1 {
		if ln.overloaded(bits.TrailingZeros64(x), scale, theta) {
			return true
		}
	}
	return false
}

// overloaded reports whether cut k's crossing demand, scaled, exceeds θ × its
// up capacity by more than the margin.
func (ln *lane) overloaded(k int, scale, theta float64) bool {
	f := &ln.sp.cuts
	return f.demand[k]*scale > theta*math.Ldexp(float64(ln.cutCap[k]), -f.shift)*(1+cutMargin)
}

// buildView materializes the state for vector v in the lane's scratch
// view.
//
// Because every switch and circuit is operated by at most one block
// (Task.Validate enforces this) and blocks set activity flags absolutely,
// the view for v can be reached from the view for any other vector by
// applying or reverting exactly the differing blocks. Planners check
// near-neighbor states most of the time, so the delta is typically a single
// block instead of an O(|S|+|C|) rebuild; only the first check
// (curVec == nil) builds from the base topology, and recounts the lane's
// verdict state from it.
func (ln *lane) buildView(v []uint16) {
	sp := ln.sp
	if ln.curVec == nil {
		ln.view.Reset()
		if ln.act != nil {
			ln.act.CopyFrom(sp.actBase)
		}
		ln.recount()
		for ty := 0; ty < sp.nTypes; ty++ {
			blocks := sp.task.BlocksOfType(migration.ActionType(ty))
			for j := 0; j < int(v[ty]); j++ {
				ln.applyBlock(blocks[j], true)
			}
		}
		ln.curVec = append(ln.curVec[:0], v...)
		return
	}
	for ty := 0; ty < sp.nTypes; ty++ {
		cur, want := int(ln.curVec[ty]), int(v[ty])
		if cur == want {
			continue
		}
		blocks := sp.task.BlocksOfType(migration.ActionType(ty))
		for j := cur; j < want; j++ {
			ln.applyBlock(blocks[j], true)
		}
		for j := cur; j > want; j-- {
			ln.applyBlock(blocks[j-1], false)
		}
		ln.curVec[ty] = uint16(want)
	}
}

// applyBlock applies (or reverts) one block on the view, as Task.Apply and
// Task.Revert do, one element at a time so that every flip moves the lane's
// verdict state by exactly what it changes: its own switches, with the
// circuits to them, and its own circuits.
func (ln *lane) applyBlock(blockID int, apply bool) {
	t := ln.sp.task
	b := &t.Blocks[blockID]
	on := t.Types[b.Type].Op == migration.Undrain
	if !apply {
		on = !on
	}
	for _, s := range b.Switches {
		ln.setSwitch(s, on)
	}
	for _, c := range b.Circuits {
		ln.setCircuit(c, on)
	}
}

// setSwitch sets switch s active or drained in the view and in the packed
// active-switch set, and counts every circuit the flip brings up or takes
// down: those whose own flag and other endpoint are on.
func (ln *lane) setSwitch(s topo.SwitchID, on bool) {
	if ln.act != nil {
		if on {
			ln.act.Set(int(s))
		} else {
			ln.act.Clear(int(s))
		}
	}
	sw, ck := ln.view.Activity()
	if sw[s] == on {
		return
	}
	ln.view.SetSwitchActive(s, on)
	if ln.deg == nil && ln.sp.cuts.live == 0 {
		return
	}
	t := ln.sp.task.Topo
	for _, c := range t.Switch(s).Circuits() {
		if cc := t.Circuit(c); ck[c] && sw[cc.Other(s)] {
			ln.circuitFlipped(cc, on)
		}
	}
}

// setCircuit sets circuit c's own flag in the view, and counts the circuit
// up or down when both its endpoints are on.
func (ln *lane) setCircuit(c topo.CircuitID, on bool) {
	sw, ck := ln.view.Activity()
	if ck[c] == on {
		return
	}
	ln.view.SetCircuitActive(c, on)
	if cc := ln.sp.task.Topo.Circuit(c); sw[cc.A] && sw[cc.B] {
		ln.circuitFlipped(cc, on)
	}
}

// recount derives the lane's verdict state from the view afresh: every up
// circuit counted once.
func (ln *lane) recount() {
	clear(ln.deg)
	ln.nOver = 0
	ln.cutCap = [maxCuts]int64{}
	t := ln.sp.task.Topo
	for c := 0; c < t.NumCircuits(); c++ {
		if id := topo.CircuitID(c); ln.view.CircuitUp(id) {
			ln.circuitFlipped(t.Circuit(id), true)
		}
	}
}

// circuitFlipped moves the verdict state by one circuit coming up or going
// down: the up-degree of both endpoints, with their over-budget status, and
// the up capacity of every live cut the circuit lies on.
func (ln *lane) circuitFlipped(cc *topo.Circuit, up bool) {
	sp := ln.sp
	if ln.deg != nil {
		d := int32(1)
		if !up {
			d = -1
		}
		ln.addDegree(cc.A, d)
		ln.addDegree(cc.B, d)
	}
	f := &sp.cuts
	if f.live == 0 {
		return
	}
	if x := (f.member[cc.A] ^ f.member[cc.B]) & f.live; x != 0 {
		w := f.units(cc.Capacity)
		if !up {
			w = -w
		}
		for ; x != 0; x &= x - 1 {
			ln.cutCap[bits.TrailingZeros64(x)] += w
		}
	}
}

// addDegree moves switch s's up-degree by d, and the over-budget count with
// it.
func (ln *lane) addDegree(s topo.SwitchID, d int32) {
	old := ln.deg[s]
	ln.deg[s] = old + d
	if p := ln.sp.ports[s]; p > 0 && (old > p) != (old+d > p) {
		if old+d > p {
			ln.nOver++
		} else {
			ln.nOver--
		}
	}
}

// occupancyOK verifies the transient space/power budget for the state the
// view holds: the occupancy of a DC is the number of active switches
// located in it, popcount(activity ∧ DC membership mask), and the lane's
// bitset already mirrors the vector (buildView runs first).
// FuzzOccupancyBitset cross-checks it against a dense per-DC recount.
func (ln *lane) occupancyOK() bool {
	for i := range ln.sp.occCheck {
		e := &ln.sp.occCheck[i]
		if int32(ln.act.CountAnd(e.mask)) > e.budget {
			return false
		}
	}
	return true
}

// maxCuts is the most cuts a family holds: one bit of a switch's membership
// word each.
const maxCuts = 64

// The tiers r of the candidate cuts: {s : s.Role ≤ r} across the region,
// and {s : s.DC = d, s.Role ≤ r} per datacenter d. The region-wide FSW, EB
// and DR boundaries are left out: no suite fabric overloads them in any
// rejected state (DESIGN.md, "Lane verdicts before routing").
var (
	regionCutTiers = []topo.Role{topo.RoleSSW, topo.RoleFADU, topo.RoleFAUU, topo.RoleMA}
	dcCutTiers     = []topo.Role{topo.RoleFSW, topo.RoleSSW}
)

// cutFamily is a task's capacity cuts, built once per space from fields the
// topology already has: the tier boundaries of regionCutTiers and
// dcCutTiers, as many as fit.
//
// Each switch's membership is one word, bit k for cut k. A circuit lies on
// cut k iff bit k of member[a] ^ member[b] is set, and a demand crosses it iff
// bit k of member[src] ^ member[dst] is: nothing is kept per circuit. A cut
// is live when some demand crosses it and no earlier cut has the same
// members; only live cuts are summed and tested.
type cutFamily struct {
	member []uint64 // per switch; nil when no cut is live
	live   uint64
	demand [maxCuts]float64 // rate of the demands that cross each cut
	desc   [maxCuts]cutDesc
	shift  int // fixed point: capacities count in units of 2^-shift Tbps
}

// cutDesc names a cut: the switches of datacenter dc (every datacenter when
// dc < 0) whose role is at most role.
type cutDesc struct {
	dc   int
	role topo.Role
}

// maxCutShift is the finest fixed-point unit: 2^-32 Tbps.
const maxCutShift = 32

// units returns a capacity in the family's fixed point, rounded up, so that
// a cut's up capacity is never understated.
func (f *cutFamily) units(capacity float64) int64 {
	return int64(math.Ceil(math.Ldexp(capacity, f.shift)))
}

// precomputeCuts builds the task's cut family in one pass over switches,
// circuits and demands. It leaves no cut live — and the lane sums nothing —
// when the arithmetic could not be exact: a capacity that is not positive
// and finite, a demand rate that is negative or not finite, or a total
// capacity too large for the fixed point.
func (sp *space) precomputeCuts() {
	t := sp.task.Topo
	f := &sp.cuts
	total := 0.0
	for c := 0; c < t.NumCircuits(); c++ {
		capacity := t.Circuit(topo.CircuitID(c)).Capacity
		if !(capacity > 0) || math.IsInf(capacity, 1) {
			return
		}
		total += capacity
	}
	for i := range sp.demands.Demands {
		if r := sp.demands.Demands[i].Rate; !(r >= 0) || math.IsInf(r, 1) {
			return
		}
	}
	// Every unit sum stays below 2^62 even with each capacity rounded up.
	f.shift = maxCutShift
	for f.shift >= 0 && math.Ldexp(total, f.shift)+float64(t.NumCircuits()) >= 1<<62 {
		f.shift--
	}
	if f.shift < 0 {
		return
	}

	n := 0
	for _, r := range regionCutTiers {
		f.desc[n] = cutDesc{dc: -1, role: r}
		n++
	}
	maxDC := -1
	for i := 0; i < t.NumSwitches(); i++ {
		maxDC = max(maxDC, t.Switch(topo.SwitchID(i)).DC)
	}
	for dc := 0; dc <= maxDC && n+len(dcCutTiers) <= maxCuts; dc++ {
		for _, r := range dcCutTiers {
			f.desc[n] = cutDesc{dc: dc, role: r}
			n++
		}
	}

	// same[k]: the cuts that agree with cut k on every switch seen so far.
	f.member = make([]uint64, t.NumSwitches())
	var same [maxCuts]uint64
	for k := range same {
		same[k] = ^uint64(0)
	}
	for i := range f.member {
		s := t.Switch(topo.SwitchID(i))
		var m uint64
		for k, c := range f.desc[:n] {
			if s.Role <= c.role && (c.dc < 0 || s.DC == c.dc) {
				m |= 1 << k
			}
		}
		f.member[i] = m
		for k := 0; k < n; k++ {
			if m>>k&1 != 0 {
				same[k] &= m
			} else {
				same[k] &^= m
			}
		}
	}
	for i := range sp.demands.Demands {
		d := &sp.demands.Demands[i]
		for x := f.member[d.Src] ^ f.member[d.Dst]; x != 0; x &= x - 1 {
			f.demand[bits.TrailingZeros64(x)] += d.Rate
		}
	}
	for k := 0; k < n; k++ {
		if f.demand[k] > 0 && same[k]&(1<<k-1) == 0 {
			f.live |= 1 << k
		}
	}
	if f.live == 0 {
		f.member = nil
	}
}

// precomputePorts lists every switch's port budget, or leaves sp.ports nil
// when no switch has one and the lane need not count degrees.
func (sp *space) precomputePorts() {
	t := sp.task.Topo
	for i := 0; i < t.NumSwitches(); i++ {
		if p := t.Switch(topo.SwitchID(i)).Ports; p > 0 {
			if sp.ports == nil {
				sp.ports = make([]int32, t.NumSwitches())
			}
			sp.ports[i] = int32(p)
		}
	}
}
