package core

import (
	"time"

	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// lane is the complete mutable state of a satisfiability check: the
// scratch topology view, the routing evaluator with its retained up state
// and distance fields, and the packed occupancy bitset. A space owns
// exactly one (space.ln), on the planner's goroutine, so consecutive
// checks are neighbours on one evaluator and each costs what differs from
// the one before.
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

	// structRejected reports whether the most recent failing check was
	// rejected by the occupancy budget or by a switch's port budget — both
	// demand-independent (structural) verdicts the bound engine keeps
	// across demand drift.
	structRejected bool
}

// newLane builds the space's check lane around eval (the caller's
// Options.Evaluator, or a fresh one).
func (sp *space) newLane(eval *routing.Evaluator) *lane {
	ln := &lane{sp: sp, eval: eval, view: sp.task.Topo.NewView()}
	if sp.actBase != nil {
		ln.act = routing.NewBitset(sp.task.Topo.NumSwitches())
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
		defer func() { sp.rec.CheckObserved(time.Since(checkStart)) }()
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
	if funneling {
		blocks := sp.task.BlocksOfType(last)
		blockID := blocks[int(v[last])-1]
		copts.FunnelFactor = sp.opts.FunnelFactor
		copts.FunnelCircuits = funnelCircuits(sp.task, blockID)
	}
	// A port violation — which the evaluator answers before it routes a
	// single demand — marks the rejection structural.
	viol := ln.eval.Check(ln.view, sp.demands, copts)
	ln.structRejected = viol.Kind == routing.ViolationPorts
	return viol.OK()
}

// buildView materializes the state for vector v in the lane's scratch
// view.
//
// Because every switch and circuit is operated by at most one block
// (Task.Validate enforces this) and Apply/Revert set activity flags
// absolutely, the view for v can be reached from the view for any other
// vector by applying or reverting exactly the differing blocks. Planners
// check near-neighbor states most of the time, so the delta is typically a
// single block instead of an O(|S|+|C|) rebuild; only the first check
// (curVec == nil) builds from the base topology.
func (ln *lane) buildView(v []uint16) {
	sp := ln.sp
	if ln.curVec == nil {
		ln.view.Reset()
		if ln.act != nil {
			ln.act.CopyFrom(sp.actBase)
		}
		for ty := 0; ty < sp.nTypes; ty++ {
			blocks := sp.task.BlocksOfType(migration.ActionType(ty))
			for j := 0; j < int(v[ty]); j++ {
				sp.task.Apply(ln.view, blocks[j])
				ln.applyBlockBits(blocks[j], true)
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
			sp.task.Apply(ln.view, blocks[j])
			ln.applyBlockBits(blocks[j], true)
		}
		for j := cur; j > want; j-- {
			sp.task.Revert(ln.view, blocks[j-1])
			ln.applyBlockBits(blocks[j-1], false)
		}
		ln.curVec[ty] = uint16(want)
	}
}

// applyBlockBits mirrors one block apply/revert into the lane's packed
// active-switch set. Apply/Revert set activity absolutely (each switch is
// operated by at most one block), so the mirror is exact: an applied
// undrain activates the block's switches, an applied drain deactivates
// them, and a revert does the opposite.
func (ln *lane) applyBlockBits(blockID int, apply bool) {
	if ln.act == nil {
		return
	}
	t := ln.sp.task
	b := &t.Blocks[blockID]
	active := t.Types[b.Type].Op == migration.Undrain
	if !apply {
		active = !active
	}
	if active {
		for _, s := range b.Switches {
			ln.act.Set(int(s))
		}
	} else {
		for _, s := range b.Switches {
			ln.act.Clear(int(s))
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
