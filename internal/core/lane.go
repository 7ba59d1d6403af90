package core

import (
	"time"

	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// lane is one worker's complete mutable check state. The space itself
// holds only immutable task precompute and the shared concurrent tables;
// everything a satisfiability check mutates — the scratch topology view,
// the routing evaluator with its retained up state, the occupancy scratch,
// the keyer's encode buffer, and the check accounting — lives in a lane,
// so any number of lanes can check vectors concurrently against one space.
//
// Lane 0 (space.ln) belongs to the planner goroutine and feeds the shared
// Metrics directly; worker lanes accumulate into a private Metrics that
// the batch coordinator folds in after the join.
type lane struct {
	sp   *space
	eval *routing.Evaluator
	view *topo.View
	rec  *obs.Recorder // nil on worker lanes; checks are bulk-accounted
	key  keyer         // shared packing layout, private scratch buffer

	// curVec tracks the vector currently materialized in view, enabling
	// incremental delta application between consecutive checks (planners
	// mostly check near-neighbor states, so the delta is usually one or
	// two blocks instead of a full rebuild). nil until the first build.
	curVec []uint16

	// occ is the per-check occupancy scratch (dense, indexed by DC+1).
	occ []int32

	// act is the packed occupancy state: the active-switch bitset mirroring
	// curVec, maintained incrementally by buildView so the occupancy check
	// is one popcount per budget-constrained DC. nil when no space budget
	// is set or when DisableIncrementalView forces the dense reference
	// recount (there is no tracked current vector to maintain it against).
	act routing.Bitset

	// m receives the lane's check accounting: &space.metrics for lane 0,
	// a lane-private struct for workers.
	m *Metrics

	// structRejected reports whether the most recent failing check was
	// rejected by the occupancy budget or by a switch's port budget — both
	// demand-independent (structural) verdicts the bound engine keeps
	// across demand drift.
	structRejected bool
}

// newLane builds a check lane over sp. eval supplies the routing evaluator
// (lane 0 may receive a caller-provided one; workers fork lane 0's). rec
// is the per-check recorder, nil for worker lanes.
func (sp *space) newLane(eval *routing.Evaluator, rec *obs.Recorder, m *Metrics) *lane {
	// Scratch buffers come from the shape-keyed pool (see scratch.go);
	// they are dirty on arrival, and every consumer fully overwrites
	// before reading — the fresh lane's nil curVec forces the full
	// CopyFrom rebuild of act, occupancyDense copies occBase, keyBytes
	// rewrites its exactly-sized buffer.
	scr := sp.acquireScratch()
	ln := &lane{
		sp:   sp,
		eval: eval,
		view: sp.task.Topo.NewView(),
		rec:  rec,
		key:  keyer{fits64: sp.key.fits64, shifts: sp.key.shifts, buf: scr.key},
		m:    m,
	}
	if sp.occDelta != nil {
		ln.occ = scr.occ
		if !sp.opts.DisableIncrementalView {
			ln.act = scr.act
		}
	}
	return ln
}

// workerLane forks a fresh lane for a parallel check worker: its own
// evaluator fork (shared immutable adjacency, private scratch), view, and
// accounting.
func (sp *space) workerLane() *lane {
	return sp.newLane(sp.ln.eval.Fork(), nil, &Metrics{})
}

// fold merges a worker lane's accumulated accounting into the shared
// metrics and resets it. Called by the batch coordinator after a join —
// never concurrently with the lane running.
func (ln *lane) fold() {
	sp := ln.sp
	sp.metrics.Checks += ln.m.Checks
	sp.metrics.WorkerChecks += ln.m.Checks
	sp.metrics.CacheHits += ln.m.CacheHits
	sp.metrics.CacheMisses += ln.m.CacheMisses
	sp.rec.ChecksAdded(ln.m.Checks)
	sp.rec.WorkerChecks(ln.m.Checks)
	sp.rec.CacheHitsAdded(ln.m.CacheHits)
	sp.rec.CacheMissesAdded(ln.m.CacheMisses)
	*ln.m = Metrics{}
}

// check performs the actual satisfiability check: rebuild the lane's view
// for the vector's canonical prefix of blocks, then verify space, port,
// and demand constraints. v aliases interned storage and is read-only.
func (ln *lane) check(v []uint16, last migration.ActionType, funneling bool) bool {
	sp := ln.sp
	ln.m.Checks++
	ln.structRejected = false
	var checkStart time.Time
	if ln.rec.Enabled() {
		checkStart = time.Now()
		defer func() { ln.rec.CheckObserved(time.Since(checkStart)) }()
	}
	ln.buildView(v)

	if sp.occDelta != nil && !ln.occupancyOK(v) {
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
// single block instead of an O(|S|+|C|) rebuild. Options.DisableIncrementalView
// forces the full rebuild (kept for the ablation benchmark and as a
// correctness cross-check in tests).
func (ln *lane) buildView(v []uint16) {
	sp := ln.sp
	if sp.opts.DisableIncrementalView || ln.curVec == nil {
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
		if !sp.opts.DisableIncrementalView {
			ln.curVec = append(ln.curVec[:0], v...)
		}
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

// occupancyOK verifies the transient space/power budget for the state.
// With the incremental view active the lane's packed active-switch set
// already mirrors v (buildView runs first), so the check is one popcount
// per constrained DC; otherwise the dense reference recount runs. The two
// paths are cross-checked by FuzzOccupancyBitset.
func (ln *lane) occupancyOK(v []uint16) bool {
	if ln.act != nil {
		return ln.occupancyPacked()
	}
	return ln.occupancyDense(v)
}

// occupancyPacked answers the budget check from the maintained bitset:
// the occupancy of a DC is the number of active switches located in it,
// which is popcount(activity ∧ DC membership mask).
func (ln *lane) occupancyPacked() bool {
	for i := range ln.sp.occCheck {
		e := &ln.sp.occCheck[i]
		if int32(ln.act.CountAnd(e.mask)) > e.budget {
			return false
		}
	}
	return true
}

// occupancyDense is the reference occupancy check: reset the dense scratch
// from the base occupancy by copy (no per-check map allocation), replay
// every applied block's per-DC deltas, and compare against the budgets.
func (ln *lane) occupancyDense(v []uint16) bool {
	sp := ln.sp
	occ := ln.occ
	copy(occ, sp.occBase)
	for ty := 0; ty < sp.nTypes; ty++ {
		blocks := sp.task.BlocksOfType(migration.ActionType(ty))
		for j := 0; j < int(v[ty]); j++ {
			for _, d := range sp.occDelta[blocks[j]] {
				occ[d.dc] += d.delta
			}
		}
	}
	for i, n := range occ {
		if b := sp.occBudget[i]; b > 0 && n > b {
			return false
		}
	}
	return true
}
