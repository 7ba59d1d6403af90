package routing

import (
	"math"
	"math/bits"
	"sort"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// This file implements the incremental satisfiability engine. A planner
// probing the state space mutates only one block between consecutive
// checks, yet the classic Check recomputes every destination group's
// distance field and flow sweep every time. CheckDelta instead memoizes, per
// destination group, the group's settled distance field and its sparse
// per-circuit load contribution; per-circuit total load is the sum of group
// contributions. A delta check invalidates only the groups whose placement
// the touched elements can actually affect, recomputes those groups — their
// distance fields together, through the same batched traversal the classic
// path uses, then one sweep each — and re-verifies bounds on the affected
// circuits.
//
// Invalidation rule. A group's placement is fully determined by its
// shortest-distance field dist (unreachable = ∞): the flow DAG is the set
// of tight circuits (|dist[x] − dist[y]| equal to the metric), and ECMP/
// WCMP splits depend only on that DAG. For a circuit c = (x, y) whose
// up-state transitions:
//
//   - went down: invalidate iff c was tight. Removing a non-tight circuit
//     removes no shortest-path support (every finite distance stays
//     supported by its remaining tight circuits) and no DAG edge, so the
//     placement is unchanged.
//   - came up: invalidate iff c could change a distance or join the DAG —
//     exactly one endpoint unreachable, or both reachable with
//     |dist[x] − dist[y]| ≥ metric. A circuit between two unreachable
//     switches, or with |dist[x] − dist[y]| < metric, neither improves any
//     distance nor becomes tight.
//
// These per-transition tests compose: if no transition in a delta triggers,
// the old distance field remains a valid shortest-path assignment of the
// new graph with an identical tight-circuit DAG, so the group's placement
// — and its unreachable count — are unchanged. Groups whose destination is
// inactive carry no distance field; they are invalidated only by an
// operation on the destination switch itself (the only way they can change,
// since CircuitUp requires both endpoints active).
//
// Callers must pass touched sets closed under ExpandTouched, so every
// circuit whose up-state may have flipped — including via an endpoint
// switch drain — is listed, and every operated switch is visible for the
// inactive-destination probe.
//
// Exactness: group contributions are independent — splitting at a switch
// depends only on the group's own distance field, never on other groups'
// flow — so per-circuit totals decompose exactly into per-group terms. To
// keep verdicts bitwise-identical with the classic path despite float
// non-associativity, affected totals are recomputed from zero by folding
// group contributions in ascending group order, the same order the classic
// path uses.
//
// Funneling (FunnelFactor > 1) tightens bounds per in-flight block, not per
// topology state, so funneled checks bypass memoization entirely.

// Self-disable policy: fabrics exist (dense ECMP meshes) where nearly every
// circuit is tight for nearly every destination, so a block delta dirties
// most groups and the memo pays pure overhead on top of an (early-exiting)
// classic check. CheckDelta tracks the cumulative dirty fraction across
// delta passes; once it proves too high, the engine shuts itself off for
// the run and answers every subsequent check classically. ResetIncremental
// re-arms it.
const (
	// incPolicyFastPasses triggers the fast tier: wholesale invalidation
	// (every group dirty) for this many consecutive passes from the anchor
	// proves the fabric hopeless immediately.
	incPolicyFastPasses = 2
	// incPolicyMinPasses is how many delta passes the slow tier observes
	// before it may disable the engine on a partial dirty fraction.
	incPolicyMinPasses = 4
	// The slow tier disables the engine when more than ⅔ of group
	// placements were dirty across the observed passes.
	incPolicyDirtyNum = 3
	incPolicyDirtyDen = 2
)

// incGroup is the memoized routing state of one destination group.
type incGroup struct {
	dst       topo.SwitchID
	dstActive bool    // destination was active at last (re)compute
	demands   []int32 // indices into ds.Demands, shared with the dst index

	// dist is the group's memoized shortest-distance field in the traversal's
	// own encoding: biased by +1 so that 0 marks unreachable, which cancels
	// in the differences the invalidation tests compare. Meaningful only
	// while dstActive. The backing array is a slice of the memo-wide
	// distSlab, not a private allocation; the traversal writes into it
	// directly.
	dist []int32
	// hasFlow marks switches that carried any of this group's flow in the
	// memoized placement (positive inflow after the sweep). A DAG edge
	// appearing or disappearing at a flow-less switch cannot move load.
	// Packed: one bit per switch, sliced out of the memo-wide flowSlab.
	hasFlow Bitset

	// Sparse contribution: directional load indices and values, aligned.
	lis  []int32
	vals []float64

	unreach int32 // demands of this group without a path
}

func (g *incGroup) settled(s topo.SwitchID) bool { return g.dist[s] > 0 }

// incMemo holds the evaluator's incremental state across CheckDelta calls.
type incMemo struct {
	valid bool

	// Identity of the memoized check configuration; any mismatch forces a
	// full rebuild. scale is softer: placements are invariant under a
	// uniform demand multiplier, so a scale change re-derives the
	// utilization flags from the memoized totals in O(|circuits|) instead
	// of rebuilding (see incRescale) — the common case when a planner
	// probes states at different forecast horizons.
	ds    *demand.Set
	dsLen int
	theta float64
	split SplitMode
	scale float64

	groups []incGroup
	// dirty marks groups whose memoized placement is stale relative to the
	// anchor view: invalidated this delta, or left unrecomputed by an
	// earlier delta that returned at the first violation.
	dirty []bool
	// staleLis lists directional load indices whose total is stale after an
	// early-exit delta; the next completed pass re-sums them.
	staleLis []int32

	total  []float64 // per directional index: sum of group contributions
	upMemo []bool    // per circuit: up-state in the memoized view
	// upEpoch is the evaluator's up-state epoch as of the memo's last sync:
	// while the two agree, the up state still reflects the anchor view.
	upEpoch int

	// Slab backing for every group's dist and hasFlow. One allocation per
	// rebuild (amortized to zero once capacity sticks) instead of two per
	// active destination group — the dominant alloc site on the planner's
	// serial hot path before slabbing.
	distSlab []int32
	flowSlab Bitset

	over    []bool // per circuit: over the utilization bound
	nOver   int
	unreach int // total unreachable demands across groups

	// Epoch-stamped scratch marks (one epoch per delta) and reusable lists.
	epoch   uint32
	liMark  []uint32
	swMark  []uint32
	ckMark  []uint32
	transCk []topo.CircuitID
	marked  []int32
	batch   []int32 // one recompute batch: the dirty groups gathered by incDistances

	// Self-disable policy accumulators: delta passes observed, groups
	// dirty at the start of each pass, and groups total per pass. off
	// latches once the dirty fraction proves the memo unprofitable.
	passes    int
	sumDirty  int
	sumGroups int
	off       bool
}

// ensureInc allocates the incremental memo on first use.
func (e *Evaluator) ensureInc() *incMemo {
	if e.inc == nil {
		n, m := e.t.NumSwitches(), e.t.NumCircuits()
		e.inc = &incMemo{
			total:  make([]float64, 2*m),
			upMemo: make([]bool, m),
			over:   make([]bool, m),
			liMark: make([]uint32, 2*m),
			swMark: make([]uint32, n),
			ckMark: make([]uint32, m),
			// Delta scratch at its worst-case sizes up front, so delta
			// passes never grow-and-copy short-lived arrays.
			transCk: make([]topo.CircuitID, 0, m),
			marked:  make([]int32, 0, 2*m),
		}
	}
	return e.inc
}

// ResetIncremental drops the incremental memo; the next CheckDelta rebuilds
// from scratch. Call when the view may have changed without corresponding
// touched sets (e.g. when an evaluator is handed to a new planning run).
func (e *Evaluator) ResetIncremental() {
	if e.inc != nil {
		e.inc.valid = false
		e.inc.off = false
		e.inc.passes, e.inc.sumDirty, e.inc.sumGroups = 0, 0, 0
	}
}

// IncrementalOff reports whether the incremental engine has disabled itself
// for this run (memo reuse proved too low on this fabric). Callers may use
// it to skip touched-set bookkeeping; CheckDelta already answers classically
// on its own.
func (e *Evaluator) IncrementalOff() bool {
	return e.inc != nil && e.inc.off
}

// ExpandTouched closes a raw touched-element set over the incidence
// relations CheckDelta's invalidation rule relies on: endpoints of every
// touched circuit are added to the switch set, and circuits incident to
// every touched switch are added to the circuit set. Inputs may contain
// duplicates; outputs may too. migration.Task.BuildTouched performs the
// same closure per block, so planner callers get it for free.
func ExpandTouched(t *topo.Topology, sw []topo.SwitchID, ck []topo.CircuitID) ([]topo.SwitchID, []topo.CircuitID) {
	outSw := append([]topo.SwitchID(nil), sw...)
	outCk := append([]topo.CircuitID(nil), ck...)
	for _, s := range sw {
		outCk = append(outCk, t.Switch(s).Circuits()...)
	}
	for _, c := range outCk {
		cc := t.Circuit(c)
		outSw = append(outSw, cc.A, cc.B)
	}
	return outSw, outCk
}

// CheckDelta verifies the demand and port constraints on the view, reusing
// memoized per-group state from the previous CheckDelta on this evaluator.
// touchedSw/touchedCk must cover every element whose activity may differ
// from the view the memo was computed on, closed per ExpandTouched;
// duplicates are fine. The returned Violation's OK() is identical to what
// Check would return on the same view; when the state is unsafe the
// reported violation detail (kind, element) may differ from Check's, since
// violations are synthesized from the memo rather than found in sweep
// order.
//
// Funneled options (FunnelFactor > 1 with circuits listed) cannot be
// answered from per-group memos; such calls fall back to a classic full
// Check and drop the memo. Once the self-disable policy latches (see
// IncrementalOff) every call answers via the classic check until
// ResetIncremental re-arms the engine.
func (e *Evaluator) CheckDelta(v *topo.View, touchedSw []topo.SwitchID, touchedCk []topo.CircuitID, ds *demand.Set, opts CheckOpts) Violation {
	if opts.FunnelFactor > 1 && len(opts.FunnelCircuits) > 0 {
		e.ResetIncremental()
		return e.Check(v, ds, opts)
	}
	m := e.ensureInc()
	if m.off {
		return e.Check(v, ds, opts)
	}
	e.Checks++
	theta := opts.Theta
	if theta <= 0 {
		theta = 0.75
	}
	scale := opts.scale()
	if !m.valid || m.ds != ds || m.dsLen != len(ds.Demands) || m.theta != theta || m.split != opts.Split {
		e.IncRebuilds++
		e.incRebuild(v, ds, theta, opts.Split, scale)
	} else {
		if m.scale != scale {
			e.incRescale(scale)
		}
		if viol, aborted := e.incDelta(v, touchedSw, touchedCk, ds, theta, opts.Split); aborted {
			return viol
		}
	}
	return e.incVerdict(v, ds)
}

// CheckDemandDelta verifies the view against a demand set whose rates were
// mutated in place since the previous CheckDelta/CheckDemandDelta on this
// evaluator. changed lists the indices into ds.Demands whose Rate changed
// (duplicates and unchanged entries are harmless); the topology view must be
// the memo's anchor view — combine with CheckDelta for mixed deltas by
// calling each with its own delta. Exactly the destination groups owning a
// changed demand are recomputed; every other group's placement is reused.
// The verdict is identical to a full Check on the same view and demands, and
// the resulting memoized totals are bitwise-identical to a full
// re-evaluation (same per-group fold order).
//
// A wholesale delta (changed covering most destination groups) feeds the
// same self-disable policy as CheckDelta: once reuse proves too low the
// engine answers classically until ResetIncremental. An out-of-range index
// forces a conservative full rebuild.
func (e *Evaluator) CheckDemandDelta(v *topo.View, changed []int32, ds *demand.Set, opts CheckOpts) Violation {
	if opts.FunnelFactor > 1 && len(opts.FunnelCircuits) > 0 {
		e.ResetIncremental()
		return e.Check(v, ds, opts)
	}
	m := e.ensureInc()
	if m.off {
		return e.Check(v, ds, opts)
	}
	e.Checks++
	theta := opts.Theta
	if theta <= 0 {
		theta = 0.75
	}
	scale := opts.scale()
	rebuild := !m.valid || m.ds != ds || m.dsLen != len(ds.Demands) || m.theta != theta || m.split != opts.Split
	for _, di := range changed {
		if di < 0 || int(di) >= len(ds.Demands) {
			rebuild = true
			break
		}
	}
	if rebuild {
		e.IncRebuilds++
		e.incRebuild(v, ds, theta, opts.Split, scale)
		return e.incVerdict(v, ds)
	}
	if m.scale != scale {
		e.incRescale(scale)
	}
	m.nextEpoch()
	if m.upEpoch != e.upEpoch { // a classic check of another view came in between
		e.syncUp(v)
		m.upEpoch = e.upEpoch
	}

	// Mark the owning destination group of every changed demand dirty. The
	// destination index is sorted, so a binary search per changed index
	// suffices; groups already dirty from an earlier aborted pass remain so.
	dsts, _ := ds.DestinationIndex()
	for _, di := range changed {
		dst := ds.Demands[di].Dst
		gi := sort.Search(len(dsts), func(i int) bool { return dsts[i] >= dst })
		if gi < len(dsts) && dsts[gi] == dst {
			m.dirty[gi] = true
		}
	}
	dirtyCount := 0
	for gi := range m.dirty {
		if m.dirty[gi] {
			dirtyCount++
		}
	}
	m.feedPolicy(e, dirtyCount)

	// Port state is rate-independent, but the classic check answers port
	// violations first; preserve that order.
	if viol := e.portViolation(); !viol.OK() {
		return viol
	}
	if viol, aborted := e.incRecomputeDirty(v, ds, theta, opts.Split); aborted {
		return viol
	}
	return e.incVerdict(v, ds)
}

// EvaluateDelta is Evaluate's memo-reusing counterpart: it applies a
// touched-element delta exactly like CheckDelta and, when the state is safe,
// synthesizes the full Result from the memoized per-circuit totals — which
// are maintained bitwise-identical to a classic evaluation's loads (same
// ascending-group fold order) — so the returned statistics are
// byte-identical to what Evaluate would produce on the same view.
//
// Any path where that identity cannot be established from the memo falls
// back to a classic full Evaluate on the spot: funneled options (which
// bypass memoization and drop the memo), a self-disabled engine, an aborted
// delta pass, or any non-OK verdict. Violating states therefore always
// return the classic sweep's exact Result and Violation detail, not a
// synthesized one — unlike CheckDelta, whose unsafe-state details may
// differ from Check's. This is what lets an auditor replay run boundaries
// incrementally while promising reports identical to full re-evaluation.
func (e *Evaluator) EvaluateDelta(v *topo.View, touchedSw []topo.SwitchID, touchedCk []topo.CircuitID, ds *demand.Set, opts CheckOpts) (Result, Violation) {
	if opts.FunnelFactor > 1 && len(opts.FunnelCircuits) > 0 {
		e.ResetIncremental()
		return e.Evaluate(v, ds, opts)
	}
	m := e.ensureInc()
	if m.off {
		return e.Evaluate(v, ds, opts)
	}
	theta := opts.Theta
	if theta <= 0 {
		theta = 0.75
	}
	scale := opts.scale()
	if !m.valid || m.ds != ds || m.dsLen != len(ds.Demands) || m.theta != theta || m.split != opts.Split {
		e.IncRebuilds++
		e.incRebuild(v, ds, theta, opts.Split, scale)
	} else {
		if m.scale != scale {
			e.incRescale(scale)
		}
		if _, aborted := e.incDelta(v, touchedSw, touchedCk, ds, theta, opts.Split); aborted {
			// The memo stays coherent (dirty groups and stale totals are
			// queued for the next completed pass); answer classically so the
			// caller gets the exact sweep-order Result and Violation.
			return e.Evaluate(v, ds, opts)
		}
	}
	if viol := e.incVerdict(v, ds); !viol.OK() {
		return e.Evaluate(v, ds, opts)
	}
	e.Checks++
	var res Result
	e.fillResultTotals(v, scale, &res)
	return res, Violation{}
}

// fillResultTotals is fillResult reading the memoized per-circuit totals
// instead of the evaluator's per-call load scratch. The iteration, skip
// filter, and float operation order are kept exactly in sync with
// fillResult so the produced Result is bitwise-identical whenever
// m.total matches e.load (the engine's fold-order invariant).
func (e *Evaluator) fillResultTotals(v *topo.View, scale float64, res *Result) {
	t := e.t
	m := e.inc
	res.MinResidual = math.Inf(1)
	res.MaxUtilCircuit = topo.NoCircuit
	for c := 0; c < t.NumCircuits(); c++ {
		cid := topo.CircuitID(c)
		if !v.CircuitUp(cid) {
			continue
		}
		ck := t.Circuit(cid)
		load := (m.total[2*c] + m.total[2*c+1]) * scale
		util := load / ck.Capacity
		res.TotalLoad += load
		if util > res.MaxUtil {
			res.MaxUtil = util
			res.MaxUtilCircuit = cid
		}
		if resid := 1 - util; resid < res.MinResidual {
			res.MinResidual = resid
		}
	}
	if math.IsInf(res.MinResidual, 1) {
		res.MinResidual = 0
	}
}

// incRescale re-derives the utilization flags from the memoized totals at a
// new demand scale. Placements (and therefore totals) are invariant under a
// uniform multiplier, so no group recompute is needed. Totals queued on
// staleLis may be stale, but their flags are refreshed by the next completed
// pass before any verdict consults them.
func (e *Evaluator) incRescale(scale float64) {
	m := e.inc
	m.nOver = 0
	for c := range m.over {
		over := (m.total[2*c]+m.total[2*c+1])*scale/e.caps[c] > m.theta
		m.over[c] = over
		if over {
			m.nOver++
		}
	}
	m.scale = scale
}

// nextEpoch advances the memo's scratch-mark epoch, resetting the mark
// arrays on wraparound.
func (m *incMemo) nextEpoch() uint32 {
	m.epoch++
	if m.epoch == 0 { // wrapped; reset all marks
		for i := range m.liMark {
			m.liMark[i] = 0
		}
		for i := range m.swMark {
			m.swMark[i] = 0
		}
		for i := range m.ckMark {
			m.ckMark[i] = 0
		}
		m.epoch = 1
	}
	return m.epoch
}

// feedPolicy accumulates one delta pass into the self-disable policy and
// latches the engine off when memo reuse proves too low.
func (m *incMemo) feedPolicy(e *Evaluator, dirtyCount int) {
	m.passes++
	m.sumDirty += dirtyCount
	m.sumGroups += len(m.groups)
	if (m.passes >= incPolicyFastPasses && m.sumDirty == m.sumGroups) ||
		(m.passes >= incPolicyMinPasses && incPolicyDirtyNum*m.sumDirty > incPolicyDirtyDen*m.sumGroups) {
		m.off = true
		e.IncDisables++
	}
}

// incRebuild recomputes the whole memo from the view.
func (e *Evaluator) incRebuild(v *topo.View, ds *demand.Set, theta float64, split SplitMode, scale float64) {
	m := e.inc
	t := e.t
	n := t.NumSwitches()

	// Up state (and with it the port flags), then the per-circuit up flags
	// the next delta reads its transitions from.
	e.syncUp(v)
	m.upEpoch = e.upEpoch
	for c := range m.upMemo {
		m.upMemo[c] = v.CircuitUp(topo.CircuitID(c))
	}

	// Group placements and totals, folded in ascending group order.
	dsts, byDst := ds.DestinationIndex()
	if cap(m.groups) < len(dsts) {
		m.groups = make([]incGroup, len(dsts))
		m.dirty = make([]bool, len(dsts))
	}
	m.groups = m.groups[:len(dsts)]
	m.dirty = m.dirty[:len(dsts)]
	// Carve each group's dist / hasFlow out of the shared slabs. Slices must
	// be re-carved every rebuild: the slab may have been regrown, and groups
	// are reused across rebuilds with different destination counts.
	words := bitsetWords(n)
	if len(m.distSlab) < len(dsts)*n {
		m.distSlab = make([]int32, len(dsts)*n)
		m.flowSlab = make(Bitset, len(dsts)*words)
	}
	for gi := range m.groups {
		g := &m.groups[gi]
		g.dist = m.distSlab[gi*n : (gi+1)*n : (gi+1)*n]
		g.hasFlow = m.flowSlab[gi*words : (gi+1)*words : (gi+1)*words]
	}
	m.staleLis = m.staleLis[:0]
	clear(m.total)
	m.unreach = 0
	for gi, dst := range dsts {
		g := &m.groups[gi]
		g.dst = dst
		g.demands = byDst[gi]
		m.dirty[gi] = true
	}
	for gi := 0; gi < len(m.groups); {
		gi = e.incDistances(v, gi)
		for _, bi := range m.batch {
			g := &m.groups[bi]
			e.incPlaceGroup(v, g, ds, split)
			m.dirty[bi] = false
			m.unreach += int(g.unreach)
			for j, li := range g.lis {
				m.total[li] += g.vals[j]
			}
		}
	}

	m.ds, m.dsLen, m.theta, m.split = ds, len(ds.Demands), theta, split
	e.incRescale(scale)                         // utilization flags from the fresh totals
	m.passes, m.sumDirty, m.sumGroups = 0, 0, 0 // fresh anchor, fresh policy window
	m.valid = true
}

// incDistances gathers into m.batch the next dirty groups at or after
// index from — at most batchWidth of them — and recomputes the distance
// fields of those whose destination is active in one traversal, writing
// straight into the groups' memoized fields. It returns the index scanning
// stopped at. The gathered groups stay dirty until incPlaceGroup has
// re-placed them: a pass that aborts in between leaves them with fresh
// fields and stale placements, which the next pass recomputes from scratch.
func (e *Evaluator) incDistances(v *topo.View, from int) int {
	m := e.inc
	swActive, _ := v.Activity()
	tr := &e.trav
	m.batch, tr.dsts, tr.live = m.batch[:0], tr.dsts[:0], tr.live[:0]
	gi := from
	for ; gi < len(m.groups) && len(m.batch) < batchWidth; gi++ {
		if !m.dirty[gi] {
			continue
		}
		g := &m.groups[gi]
		m.batch = append(m.batch, int32(gi))
		// An inactive destination carries no distances: the group can only
		// become routable again through an operation on the destination
		// switch itself.
		g.dstActive = swActive[g.dst]
		if g.dstActive {
			clear(g.dist)
			tr.dsts = append(tr.dsts, g.dst)
			tr.live = append(tr.live, g.dist)
		}
	}
	if len(tr.live) > 0 {
		e.distances(tr.dsts, tr.live)
	}
	return gi
}

// incPlaceGroup recomputes one group's unreachable count, sparse load
// contribution and flow set over its freshly computed distance field.
func (e *Evaluator) incPlaceGroup(v *topo.View, g *incGroup, ds *demand.Set, split SplitMode) {
	g.lis = g.lis[:0]
	g.vals = g.vals[:0]
	g.unreach = 0
	if !g.dstActive {
		g.unreach = int32(len(g.demands))
		return
	}
	g.hasFlow.Reset()

	swActive, _ := v.Activity()
	e.beginGroup()
	for _, di := range g.demands {
		d := ds.Demands[di]
		if !swActive[d.Src] || g.dist[d.Src] == 0 {
			g.unreach++
			continue
		}
		e.seed(g.dist, d.Src, d.Rate)
	}
	lis, vals := e.sweep(g.dist, g.dst, split)
	// Snapshot the sparse contribution at exact size: growing via repeated
	// append doubles through several short-lived arrays per group, which
	// dominated the planner's alloc profile.
	if need := len(lis); cap(g.lis) < need {
		g.lis = make([]int32, 0, need)
		g.vals = make([]float64, 0, need)
	}
	g.lis = append(g.lis, lis...)
	g.vals = append(g.vals, vals...)
	for i := range e.trav.nodes {
		if nd := &e.trav.nodes[i]; nd.f > 0 {
			g.hasFlow.Set(int(nd.sw))
		}
	}
}

// incDelta applies a touched-element delta to the memo: bring the up state
// in step with the view, mark groups whose placement a flipped circuit can
// affect as dirty, recompute them, and re-verify bounds on the circuits whose
// totals changed.
//
// Like the classic path, the recompute pass exits at the first violation it
// proves (aborted=true with the violation): remaining dirty groups stay
// dirty and the affected totals are queued on staleLis for the next
// completed pass. The bound check mid-pass uses a running partial total
// over the groups recomputed so far — contributions are non-negative, so a
// partial total over the bound proves the final total is too.
func (e *Evaluator) incDelta(v *topo.View, touchedSw []topo.SwitchID, touchedCk []topo.CircuitID, ds *demand.Set, theta float64, split SplitMode) (Violation, bool) {
	m := e.inc
	t := e.t
	ep := m.nextEpoch()
	// The up state follows the view by content, whatever this evaluator
	// checked last — the memo's anchor or, through a classic call in
	// between, some other view — and carries the port flags with it.
	e.syncUp(v)
	m.upEpoch = e.upEpoch

	// 1. Diff circuit up-states, collecting actual transitions. Note upMemo
	// holds the OLD state until a circuit's entry is overwritten here, so the
	// analysis below reads the transition direction from the updated value.
	trans := m.transCk[:0]
	for _, c := range touchedCk {
		if m.ckMark[c] == ep {
			continue
		}
		m.ckMark[c] = ep
		up := v.CircuitUp(c)
		if up == m.upMemo[c] {
			continue
		}
		m.upMemo[c] = up
		trans = append(trans, c)
		ck := t.Circuit(c)
		m.swMark[ck.A], m.swMark[ck.B] = ep, ep
	}

	// 2. Mark the touched switches for the inactive-destination probe. The
	// endpoints marked above are touched switches too under the caller's
	// closure contract, so sharing the mark cannot dirty a group spuriously.
	for _, s := range touchedSw {
		m.swMark[s] = ep
	}

	// 3. Invalidation analysis on clean groups. Dirty groups carry stale
	// distance fields, so they skip the tests and stay dirty. Distances use
	// the +1 bias: 0 = unreachable; the bias cancels in differences.
	dirtyCount := 0
	for gi := range m.groups {
		if m.dirty[gi] {
			dirtyCount++
			continue
		}
		g := &m.groups[gi]
		hit := false
		if !g.dstActive {
			hit = m.swMark[g.dst] == ep
		} else {
			for _, c := range trans {
				ck := t.Circuit(c)
				dx, dy := g.dist[ck.A], g.dist[ck.B]
				// Orient toward the destination: far is the endpoint the
				// circuit serves as a next hop for (the larger distance).
				far, diff := ck.A, dx-dy
				if diff < 0 {
					far, diff = ck.B, -diff
				}
				if m.upMemo[c] {
					// Came up. A circuit between two unreachable switches
					// changes nothing; one connecting the unreachable side
					// or improving a distance changes the distance field.
					if dx == 0 && dy == 0 {
						continue
					}
					if dx == 0 || dy == 0 || diff > ck.Metric {
						hit = true
						break
					}
					// Exact tie: distances hold, but the DAG gains an edge
					// at far — which only moves load if far carries flow.
					if diff == ck.Metric && g.hasFlow.Get(int(far)) {
						hit = true
						break
					}
				} else {
					// Went down: only tight (DAG) circuits matter, and a
					// tight circuit whose far endpoint carries no flow is
					// harmless as long as far keeps another shortest-path
					// support (so the whole distance field stands).
					if dx == 0 || dy == 0 || diff != ck.Metric {
						continue
					}
					if g.hasFlow.Get(int(far)) || !e.supported(g, far) {
						hit = true
						break
					}
				}
			}
		}
		if hit {
			m.dirty[gi] = true
			dirtyCount++
		}
	}
	m.transCk = trans[:0]

	// Feed the self-disable policy: a persistently high dirty fraction
	// means this fabric invalidates wholesale and the memo cannot pay.
	m.feedPolicy(e, dirtyCount)

	// Port violations outrank routing ones in the classic check order, so
	// answer them before paying for any group recompute; dirty groups wait.
	if viol := e.portViolation(); !viol.OK() {
		return viol, true
	}

	return e.incRecomputeDirty(v, ds, theta, split)
}

// incRecomputeDirty is the shared tail of a delta pass (topology or demand):
// recompute every dirty group in ascending order, fold the new contributions
// into running partial totals, re-sum affected totals in classic fold order,
// and refresh the utilization flags. Exits at the first proven violation
// (aborted=true), leaving later dirty groups dirty and queueing affected
// totals on staleLis for the next completed pass. m.epoch must have been
// advanced by the caller for this pass.
func (e *Evaluator) incRecomputeDirty(v *topo.View, ds *demand.Set, theta float64, split SplitMode) (Violation, bool) {
	m := e.inc
	ep := m.epoch
	scale := m.scale

	// 4. Recompute dirty groups in ascending order, folding each new
	// contribution into a running partial total (e.load as scratch) and
	// exiting at the first proven violation.
	marked := m.marked[:0]
	markLi := func(li int32) {
		if m.liMark[li] != ep {
			m.liMark[li] = ep
			e.load[li] = 0
			marked = append(marked, li)
		}
	}
	for _, li := range m.staleLis {
		markLi(li)
	}
	recomputed := 0
	swActive, _ := v.Activity()
	for next := 0; next < len(m.groups); {
		next = e.incDistances(v, next)
		for _, gi := range m.batch {
			g := &m.groups[gi]
			for _, li := range g.lis {
				markLi(li)
			}
			m.unreach -= int(g.unreach)
			e.incPlaceGroup(v, g, ds, split)
			m.unreach += int(g.unreach)
			m.dirty[gi] = false
			recomputed++
			var viol Violation
			if g.unreach > 0 {
				for _, di := range g.demands {
					d := ds.Demands[di]
					if !g.dstActive || !swActive[d.Src] || !g.settled(d.Src) {
						viol = Violation{Kind: ViolationUnreachable, Demand: d}
						break
					}
				}
			}
			for j, li := range g.lis {
				markLi(li)
				e.load[li] += g.vals[j]
				if viol.Kind != ViolationNone {
					continue // keep folding so the memo state stays coherent
				}
				c := li >> 1
				var tot float64
				if m.liMark[2*c] == ep {
					tot = e.load[2*c]
				}
				if m.liMark[2*c+1] == ep {
					tot += e.load[2*c+1]
				}
				if tot*scale/e.caps[c] > theta {
					viol = Violation{Kind: ViolationUtilization, Circuit: topo.CircuitID(c), Util: tot * scale / e.caps[c]}
				}
			}
			if viol.Kind != ViolationNone {
				// Abort: later dirty groups stay dirty; queue every marked
				// index for re-summation on the next completed pass.
				e.GroupInvalidations += recomputed
				e.GroupsReused += len(m.groups) - recomputed
				m.staleLis = append(m.staleLis[:0], marked...)
				m.marked = marked[:0]
				return viol, true
			}
		}
	}
	e.GroupInvalidations += recomputed
	e.GroupsReused += len(m.groups) - recomputed
	m.staleLis = m.staleLis[:0]

	// 5. Re-sum affected totals from zero in ascending group order — the
	// exact fold order of the classic path, so unchanged-state checks stay
	// bitwise-identical across delta, rebuild, and classic evaluation.
	// (Groups with a zero term for a marked index simply skip it, which
	// cannot perturb the sum.)
	for _, li := range marked {
		m.total[li] = 0
	}
	if len(marked) > 0 {
		for gi := range m.groups {
			g := &m.groups[gi]
			for j, li := range g.lis {
				if m.liMark[li] == ep {
					m.total[li] += g.vals[j]
				}
			}
		}
	}

	// 6. Refresh utilization flags on affected circuits. A circuit that
	// went down was tight in every group that loaded it, so those groups
	// were invalidated and its total is now zero.
	for _, li := range marked {
		c := li >> 1
		over := (m.total[2*c]+m.total[2*c+1])*scale/e.caps[c] > theta
		if over != m.over[c] {
			m.over[c] = over
			if over {
				m.nOver++
			} else {
				m.nOver--
			}
		}
	}
	m.marked = marked[:0]
	return Violation{}, false
}

// supported reports whether switch s still has at least one shortest-path
// next hop among the post-delta up arcs, judged against the group's memoized
// distance field. Used when a tight circuit at a flow-less switch goes down:
// if another support remains, every memoized distance is still achieved and
// the whole placement stands.
func (e *Evaluator) supported(g *incGroup, s topo.SwitchID) bool {
	dsf := g.dist[s]
	words, arcs := e.upWords(int32(s))
	for k, bw := range words {
		for ; bw != 0; bw &= bw - 1 {
			a := &arcs[k<<6+bits.TrailingZeros64(bw)]
			// Under the +1 bias an unsettled neighbor has dist 0, so the
			// candidate support distance must itself be positive to count.
			if dsf > a.metric && g.dist[a.other] == dsf-a.metric {
				return true
			}
		}
	}
	return false
}

// incVerdict synthesizes a Violation from the memo's counters, scanning for
// a concrete offending element only when a counter is non-zero.
func (e *Evaluator) incVerdict(v *topo.View, ds *demand.Set) Violation {
	m := e.inc
	if viol := e.portViolation(); !viol.OK() {
		return viol
	}
	if m.unreach > 0 {
		for gi := range m.groups {
			g := &m.groups[gi]
			if g.unreach == 0 {
				continue
			}
			if !v.SwitchActive(g.dst) || !g.dstActive {
				return Violation{Kind: ViolationUnreachable, Demand: ds.Demands[g.demands[0]]}
			}
			for _, di := range g.demands {
				d := ds.Demands[di]
				if !v.SwitchActive(d.Src) || !g.settled(d.Src) {
					return Violation{Kind: ViolationUnreachable, Demand: d}
				}
			}
		}
	}
	if m.nOver > 0 {
		for c, over := range m.over {
			if over {
				cid := topo.CircuitID(c)
				util := (m.total[2*c] + m.total[2*c+1]) * m.scale / e.t.Circuit(cid).Capacity
				return Violation{Kind: ViolationUtilization, Circuit: cid, Util: util}
			}
		}
	}
	return Violation{}
}
