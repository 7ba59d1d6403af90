package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"klotski/internal/audit"
	"klotski/internal/bound"
	"klotski/internal/demand"
	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// space is the search-state machinery shared by both planners: vector
// interning for the compact topology representation, the satisfiability
// cache (efficient satisfiability checking, §4.2), and the heuristic.
//
// It holds the immutable task precompute (totals, unit costs, occupancy
// masks, the key packing layout), the intern table and per-vector verdict
// table, and one check lane with everything a check mutates. A space, and
// so a plan, lives on one goroutine.
type space struct {
	task *migration.Task
	opts Options

	nTypes  int
	totals  []uint16 // blocks per type: the target vector V*
	initial []uint16 // already-executed blocks per type (replanning)
	units   []float64

	// The resume basis past initial (newSpace): the type of the run in
	// progress (NoLast on a fresh start) and, under MaxRunLength, the
	// length of its current chunk.
	startLast migration.ActionType
	startTail int

	// Vector interning and the satisfiability cache. Every distinct V gets
	// a dense index from the intern table; feasT holds one verdict per
	// index.
	vt    *vecTable
	feasT *feasTable

	// feasF is the funneling-regime cache, keyed by (vector, last): with
	// FunnelFactor > 1 a verdict depends on the in-flight block, not the
	// vector alone.
	feasF map[int64]int8

	demands *demand.Set

	// scales is the per-horizon demand multiplier table: scales[k] is the
	// forecasted demand scale after k finished actions (task.Forecast).
	// nil when the task carries no growth model — every check runs at
	// scale 1. A vector's horizon is the sum of its entries (absolute
	// finished counts, including any initial executed prefix), so the
	// per-vector feasibility caches remain sound: the scale is a pure
	// function of the vector.
	scales []float64

	// ln is the check lane: view, evaluator and occupancy bitset.
	ln *lane

	metrics  Metrics
	rec      *obs.Recorder // nil-safe; nil is the no-op default
	deadline time.Time
	started  time.Time

	// Cooperative interruption state. ctx carries caller cancellation;
	// budgetBase rebases the MaxStates cap when a checkpointed search is
	// resumed with a fresh budget; pollCountdown keeps the (relatively
	// expensive) time/context polls off the per-state hot path; stopErr
	// latches the first interruption reason; priorElapsed accumulates
	// planning time across resume legs.
	ctx           context.Context
	budgetBase    int
	pollCountdown int
	stopErr       error
	priorElapsed  time.Duration

	// Space/power budget precompute, nil when SpaceBudget is nil: actBase
	// is the active-switch bitset of the base topology, and occCheck lists
	// the budget-constrained DCs with their switch-membership masks. The
	// lane mirrors actBase incrementally alongside its view and answers the
	// occupancy check with one popcount per constrained DC.
	actBase  routing.Bitset
	occCheck []occMaskEntry

	// The lane's pre-routing verdicts (lane.go): every switch's port budget,
	// nil when no switch has one, and the task's capacity-cut family.
	ports []int32
	cuts  cutFamily

	// funnels holds each block's funnel set once the lane first asked
	// for it (funnelOf); nil until then.
	funnels [][]topo.CircuitID

	// bd is the attached lower-bound engine — nil unless Options.Bound
	// matches this task shape and the configuration is one the engine's
	// cut model covers (no funneling, no run cap). incumbent/lowerBound
	// carry the run's anytime optimality certificate; the *Base fields
	// rebase the engine's lifetime counters onto this run's metrics so
	// reuse across runs never double-counts.
	bd         *bound.Engine
	incumbent  float64
	lowerBound float64
	bdCutsBase int
	bdHitsBase int
}

// occMaskEntry is one budget-constrained datacenter's packed occupancy
// check: popcount(lane activity ∧ mask) must stay within budget.
type occMaskEntry struct {
	budget int32
	mask   routing.Bitset
}

const (
	feasYes int8 = 1
	feasNo  int8 = 2
)

// newSpace builds the space of a plan that starts after opts.Executed. It
// is the one place the resume basis is derived from the executed blocks:
// their per-type counts, the last block's type, and under MaxRunLength the
// length of the last chunk RunsOf cuts them into. A prefix out of canonical
// order names no state of this space and is refused.
func newSpace(task *migration.Task, opts Options) (*space, error) {
	ex := opts.Executed
	if err := audit.CheckSequence(task, ex, audit.Config{AllowPartial: true}); err != nil {
		return nil, fmt.Errorf("core: cannot resume after the executed blocks: %w", err)
	}
	last := NoLast
	if len(ex) > 0 {
		last = task.Blocks[ex[len(ex)-1]].Type
	}
	sp, err := newSpaceAt(task, opts, CountsOf(task, ex), last)
	if err != nil {
		return nil, err
	}
	if opts.MaxRunLength > 0 && len(ex) > 0 {
		runs := RunsOf(task, ex, opts.MaxRunLength)
		sp.startTail = len(runs[len(runs)-1].Blocks)
	}
	return sp, nil
}

// newSpaceAt builds the space of a search that starts at the state after
// counts[i] blocks of each type i (nil: none), with a run of type last in
// progress.
func newSpaceAt(task *migration.Task, opts Options, counts []int, last migration.ActionType) (*space, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if task.NumTypes() == 0 || task.NumActions() == 0 {
		return nil, fmt.Errorf("core: task %q has no actions to plan", task.Name)
	}
	sp := &space{
		task:      task,
		opts:      opts,
		nTypes:    task.NumTypes(),
		startLast: last,
		demands:   &task.Demands,
		rec:       opts.Recorder,
		started:   time.Now(),
		ctx:       context.Background(),
		// Poll on the very first budget check so that an already-expired
		// deadline or cancelled context trips deterministically even on
		// tiny search spaces.
		pollCountdown: 1,
	}
	if opts.Timeout > 0 {
		sp.deadline = sp.started.Add(opts.Timeout)
	}
	sp.totals = make([]uint16, sp.nTypes)
	sp.units = make([]float64, sp.nTypes)
	for i, c := range task.Counts() {
		if c > 0xFFFF {
			return nil, fmt.Errorf("core: type %s has %d blocks, exceeding planner limit", task.Types[i].Name, c)
		}
		sp.totals[i] = uint16(c)
		sp.units[i] = unitCost(task, migration.ActionType(i))
	}
	if counts != nil && len(counts) != sp.nTypes {
		return nil, fmt.Errorf("core: counts have %d entries, task has %d types", len(counts), sp.nTypes)
	}
	sp.initial = make([]uint16, sp.nTypes)
	for i, c := range counts {
		if c < 0 || c > int(sp.totals[i]) {
			return nil, fmt.Errorf("core: counts[%d]=%d out of range [0,%d]", i, c, sp.totals[i])
		}
		sp.initial[i] = uint16(c)
	}
	sp.vt = newVecTable(sp.totals)
	sp.feasT = &feasTable{}
	if opts.FunnelFactor > 1 {
		sp.feasF = make(map[int64]int8, 1024)
	}
	if opts.SpaceBudget != nil {
		sp.precomputeOccupancy()
	}
	if task.Forecast.GrowthPerStep != 0 {
		total := 0
		for _, t := range sp.totals {
			total += int(t)
		}
		sp.scales = make([]float64, total+1)
		for k := range sp.scales {
			sp.scales[k] = task.Forecast.ScaleAt(k)
		}
	}
	sp.precomputePorts()
	sp.precomputeCuts()
	sp.ln = sp.newLane(opts.Evaluator)
	// No plan yet: the incumbent is +Inf until a planner completes (or a
	// target push improves it), and the global lower bound starts at 0.
	sp.incumbent = math.Inf(1)
	// Attach the caller's lower-bound engine when it covers this
	// configuration. Funneling verdicts depend on (vector, last) and a run
	// cap changes which vectors are boundary-checked, so the engine's
	// vector-keyed cut model excludes both; a mismatched engine (different
	// task shape) is ignored rather than rejected, so one engine can be
	// carried across heterogeneous runs harmlessly.
	if b := opts.Bound; b != nil && opts.FunnelFactor <= 1 && opts.MaxRunLength == 0 &&
		b.Matches(sp.totals, sp.units, opts.Alpha) {
		sp.bd = b
		b.Bind(sp.boundStructSig(), sp.boundDemandSig())
		b.Arm(sp.initial, int(last))
		sp.bdCutsBase = b.CutsLearned()
		sp.bdHitsBase = b.CutHits()
	}
	return sp, nil
}

// fnv64a mixing for the bound engine's provenance signatures.
const (
	sigOffset uint64 = 14695981039346656037
	sigPrime  uint64 = 1099511628211
)

func sigMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * sigPrime
		x >>= 8
	}
	return h
}

// boundStructSig fingerprints every demand-independent input that shapes
// boundary verdicts: θ, α, split policy, funneling, run cap, space
// budgets, topology element activity (outages), port budgets, and the task
// shape. Any change invalidates the engine's entire cut set.
func (sp *space) boundStructSig() uint64 {
	h := sigOffset
	h = sigMix(h, math.Float64bits(sp.opts.Theta))
	h = sigMix(h, math.Float64bits(sp.opts.Alpha))
	h = sigMix(h, uint64(sp.opts.Split))
	h = sigMix(h, math.Float64bits(sp.opts.FunnelFactor))
	h = sigMix(h, uint64(sp.opts.MaxRunLength))
	if len(sp.opts.SpaceBudget) > 0 {
		dcs := make([]int, 0, len(sp.opts.SpaceBudget))
		for dc := range sp.opts.SpaceBudget {
			dcs = append(dcs, dc)
		}
		sort.Ints(dcs)
		for _, dc := range dcs {
			h = sigMix(h, uint64(int64(dc)))
			h = sigMix(h, uint64(int64(sp.opts.SpaceBudget[dc])))
		}
	}
	t := sp.task.Topo
	h = sigMix(h, uint64(t.NumSwitches()))
	h = sigMix(h, uint64(t.NumCircuits()))
	var w uint64
	nb := 0
	for i := 0; i < t.NumSwitches(); i++ {
		w <<= 1
		if t.SwitchActive(topo.SwitchID(i)) {
			w |= 1
		}
		if nb++; nb == 64 {
			h = sigMix(h, w)
			w, nb = 0, 0
		}
	}
	for i := 0; i < t.NumCircuits(); i++ {
		w <<= 1
		if t.CircuitActive(topo.CircuitID(i)) {
			w |= 1
		}
		if nb++; nb == 64 {
			h = sigMix(h, w)
			w, nb = 0, 0
		}
	}
	if nb > 0 {
		h = sigMix(h, w)
	}
	// Port budgets: a port rejection is learned as a structural cut, so the
	// budgets it was judged against belong to the structure.
	for i := 0; i < t.NumSwitches(); i++ {
		h = sigMix(h, uint64(int64(t.Switch(topo.SwitchID(i)).Ports)))
	}
	for _, tot := range sp.totals {
		h = sigMix(h, uint64(tot))
	}
	return h
}

// boundDemandSig fingerprints the demand matrix and growth model — the
// inputs whose drift invalidates demand-dependent cuts while structural
// (occupancy and port) cuts survive.
func (sp *space) boundDemandSig() uint64 {
	h := sigOffset
	for i := range sp.demands.Demands {
		d := &sp.demands.Demands[i]
		h = sigMix(h, uint64(int64(d.Src)))
		h = sigMix(h, uint64(int64(d.Dst)))
		h = sigMix(h, math.Float64bits(d.Rate))
	}
	h = sigMix(h, math.Float64bits(sp.task.Forecast.GrowthPerStep))
	return h
}

// demandScaleAt returns the forecasted demand multiplier for a state with
// the given number of finished actions; 0 means "unscaled" downstream.
func (sp *space) demandScaleAt(finished int) float64 {
	if sp.scales == nil {
		return 0
	}
	if finished >= len(sp.scales) {
		finished = len(sp.scales) - 1
	}
	if finished < 0 {
		finished = 0
	}
	return sp.scales[finished]
}

// keyer packs a count vector into a uint64 when the per-type totals fit,
// falling back to a byte-string key otherwise.
type keyer struct {
	fits64 bool
	shifts []uint
	buf    []byte // scratch for lookup-only string keys
}

func newKeyer(totals []uint16) keyer {
	k := keyer{shifts: make([]uint, len(totals))}
	bitsUsed := uint(0)
	k.fits64 = true
	for i, t := range totals {
		w := uint(bits.Len16(t)) // enough for values 0..t
		if w == 0 {
			w = 1
		}
		k.shifts[i] = bitsUsed
		bitsUsed += w
	}
	if bitsUsed > 64 {
		k.fits64 = false
	}
	return k
}

func (k *keyer) key64(vec []uint16) uint64 {
	var out uint64
	for i, v := range vec {
		out |= uint64(v) << k.shifts[i]
	}
	return out
}

// keyBytes encodes vec into the keyer's scratch buffer. The result is
// invalidated by the next keyBytes call; map probes via string(keyBytes(v))
// compile to an allocation-free lookup, so only inserts pay for a string.
func (k *keyer) keyBytes(vec []uint16) []byte {
	if cap(k.buf) < 2*len(vec) {
		k.buf = make([]byte, 2*len(vec))
	}
	buf := k.buf[:2*len(vec)]
	for i, v := range vec {
		binary.BigEndian.PutUint16(buf[2*i:], v)
	}
	return buf
}

func (k *keyer) keyStr(vec []uint16) string {
	return string(k.keyBytes(vec))
}

// intern returns the dense index for vec, creating it if new. The returned
// bool is true when the vector was already known.
func (sp *space) intern(vec []uint16) (int32, bool) {
	return sp.vt.intern(vec)
}

// lookup returns the dense index for vec without creating it.
func (sp *space) lookup(vec []uint16) (int32, bool) {
	return sp.vt.lookup(vec)
}

// vec returns the interned vector at idx. The returned slice aliases
// table-owned storage; do not modify.
func (sp *space) vec(idx int32) []uint16 {
	return sp.vt.vec(idx)
}

// isTarget reports whether idx is the fully-migrated vector.
func (sp *space) isTarget(idx int32) bool {
	v := sp.vec(idx)
	for i := range v {
		if v[i] != sp.totals[i] {
			return false
		}
	}
	return true
}

// finished returns the total number of finished actions in the vector —
// the secondary priority of §4.4.
func (sp *space) finished(idx int32) int {
	n := 0
	for _, v := range sp.vec(idx) {
		n += int(v)
	}
	return n
}

// remaining returns the number of actions still to do.
func (sp *space) remaining(idx int32) int {
	n := 0
	v := sp.vec(idx)
	for i := range v {
		n += int(sp.totals[i]) - int(v[i])
	}
	return n
}

// extKey builds the (vector, last-action) state key used by the planners'
// best-cost tables.
func (sp *space) extKey(vecIdx int32, last migration.ActionType) int64 {
	return int64(vecIdx)*int64(sp.nTypes+1) + int64(last) + 1
}

// runCap returns the maximum run length, or 0 for unlimited.
func (sp *space) runCap() int { return sp.opts.MaxRunLength }

// extKeyT extends extKey with the tail length of the in-progress run —
// needed only when MaxRunLength is set (the tail is always 0 otherwise, so
// keys coincide with extKey).
func (sp *space) extKeyT(vecIdx int32, last migration.ActionType, tail int) int64 {
	return sp.extKey(vecIdx, last)*int64(sp.runCap()+1) + int64(tail%(sp.runCap()+1))
}

// decodeKeyT inverts extKeyT, recovering the (vector, last, tail) triple
// from a state key. Used to render checkpoint frontiers from DP memo keys.
func (sp *space) decodeKeyT(key int64) (vecIdx int32, last migration.ActionType, tail int) {
	span := int64(sp.runCap() + 1)
	tail = int(key % span)
	ek := key / span
	last = migration.ActionType(ek%int64(sp.nTypes+1)) - 1
	vecIdx = int32(ek / int64(sp.nTypes+1))
	return vecIdx, last, tail
}

// prevInfo records a state's best predecessor for plan reconstruction.
type prevInfo struct {
	last migration.ActionType
	tail int16
}

// step computes one action's incremental cost under the (optional) run
// cap: a different type — or a same-type action once the current run has
// reached MaxRunLength — starts a new run at full unit cost and requires
// the state being left to pass a boundary check.
func (sp *space) step(last, a migration.ActionType, tail int) (cost float64, newTail int, boundary bool) {
	k := sp.runCap()
	if a != last {
		if k == 0 {
			return sp.units[a], 0, true
		}
		return sp.units[a], 1, true
	}
	if k == 0 {
		// Uncapped: the tail never matters; keep it at 0 so state keys
		// coincide with the plain (vector, last) encoding.
		return sp.opts.Alpha * sp.units[a], 0, false
	}
	if tail >= k {
		return sp.units[a], 1, true
	}
	return sp.opts.Alpha * sp.units[a], tail + 1, false
}

// stepCost is the incremental cost of performing an action of type a after
// an action of type last (Eq. 1 + §5 generalization).
func (sp *space) stepCost(last, a migration.ActionType) float64 {
	if a == last {
		return sp.opts.Alpha * sp.units[a]
	}
	return sp.units[a]
}

// heuristic is the admissible, consistent cost-to-go lower bound (Eq. 9
// adjusted for the in-progress run), the closed-form relaxation
// bound.RelaxCapped: every remaining type a≠last needs at least one fresh
// run costing unit_a(1 + α(rem_a − 1)); remaining actions of the current
// run's type can extend it at α·unit_last each. Under Options.MaxRunLength
// = K a type needs at least ⌈rem/K⌉ runs, and the in-progress type has
// K−tail α-cost slots left in its current chunk.
func (sp *space) heuristic(vecIdx int32, last migration.ActionType, tail int) float64 {
	if sp.opts.DisableHeuristic {
		return 0
	}
	return bound.RelaxCapped(sp.units, sp.totals, sp.vec(vecIdx), sp.opts.Alpha, int(last), sp.runCap(), tail)
}

// interrupted reports why the planner must stop — state-budget exhaustion
// (ErrBudget), an expired time budget (ErrBudget), or caller cancellation
// (the context's error) — or nil to continue. Time and context are polled
// every pollInterval calls to keep them off the hot path, except for the
// very first call, which always polls so tiny searches still honor
// already-expired deadlines. Once tripped, the reason latches.
func (sp *space) interrupted() error {
	if sp.stopErr == nil && sp.metrics.StatesCreated-sp.budgetBase > sp.opts.maxStates() {
		sp.stopErr = ErrBudget
	}
	return sp.polled()
}

// polled is interrupted without the state budget: the latched reason, else
// the time budget and the context, polled as interrupted polls them.
func (sp *space) polled() error {
	if sp.stopErr != nil {
		return sp.stopErr
	}
	sp.pollCountdown--
	if sp.pollCountdown > 0 {
		return nil
	}
	sp.pollCountdown = pollInterval
	if err := sp.ctx.Err(); err != nil {
		sp.stopErr = err
		return sp.stopErr
	}
	if !sp.deadline.IsZero() && time.Now().After(sp.deadline) {
		sp.stopErr = ErrBudget
		return sp.stopErr
	}
	return nil
}

// pollInterval is how many interrupted() or polled() calls pass between
// time/context polls.
const pollInterval = 256

// rebudget rearms an interrupted search with a fresh budget envelope for a
// resumed leg: MaxStates counts from the current state total, the deadline
// restarts from now, and the context is replaced. All other options keep
// their original values — they shaped the cached search state and cannot
// change mid-search.
func (sp *space) rebudget(ctx context.Context, opts Options) {
	if ctx == nil {
		ctx = context.Background()
	}
	sp.ctx = ctx
	sp.opts.MaxStates = opts.MaxStates
	sp.opts.Timeout = opts.Timeout
	sp.budgetBase = sp.metrics.StatesCreated
	sp.deadline = time.Time{}
	if opts.Timeout > 0 {
		sp.deadline = time.Now().Add(opts.Timeout)
	}
	sp.started = time.Now()
	sp.stopErr = nil
	sp.pollCountdown = 1
}

// pause banks the elapsed planning time when a search is interrupted, so
// the wall-clock gap until a later Resume is not counted as planning time.
func (sp *space) pause() {
	sp.priorElapsed += time.Since(sp.started)
	sp.started = time.Now()
}

// feasible checks the safety of the intermediate topology identified by the
// interned vector, consulting the equivalent-state cache first. last is the
// action type that produced this state; it matters only when funneling
// headroom is enabled (the in-flight block determines which circuits need
// headroom), in which case the verdict lives in the (vector, last)-keyed
// funneling cache instead of the per-vector table. An infeasible verdict is
// learned by the bound engine once, at its fresh check, with the provenance
// (structural or demand-dependent) the check reported.
func (sp *space) feasible(vecIdx int32, last migration.ActionType) bool {
	if sp.opts.FunnelFactor > 1 && last >= 0 {
		ck := sp.extKey(vecIdx, last)
		if !sp.opts.DisableCache {
			if f, ok := sp.feasF[ck]; ok {
				sp.metrics.CacheHits++
				sp.rec.Add(obs.CacheHits, 1)
				return f == feasYes
			}
			sp.metrics.CacheMisses++
			sp.rec.Add(obs.CacheMisses, 1)
		}
		ok := sp.ln.check(sp.vec(vecIdx), last, true)
		res := feasNo
		if ok {
			res = feasYes
		}
		sp.feasF[ck] = res
		return ok
	}
	if !sp.opts.DisableCache {
		switch sp.feasT.get(vecIdx) {
		case feasYes:
			sp.metrics.CacheHits++
			sp.rec.Add(obs.CacheHits, 1)
			return true
		case feasNo:
			sp.metrics.CacheHits++
			sp.rec.Add(obs.CacheHits, 1)
			return false
		}
		sp.metrics.CacheMisses++
		sp.rec.Add(obs.CacheMisses, 1)
	}
	ok := sp.ln.check(sp.vec(vecIdx), last, false)
	res := feasNo
	if ok {
		res = feasYes
	}
	sp.feasT.set(vecIdx, res)
	if !ok && sp.bd != nil {
		sp.bd.Learn(sp.vec(vecIdx), sp.ln.structRejected)
	}
	return ok
}

// precomputeOccupancy builds the packed occupancy check: draining a switch
// frees its slot (the hardware is decommissioned and removed), undraining
// one requires its slot from that step on, so a DC's occupancy is the
// number of its switches that are active.
func (sp *space) precomputeOccupancy() {
	t := sp.task.Topo
	n := t.NumSwitches()
	sp.actBase = routing.NewBitset(n)
	masks := make(map[int]routing.Bitset)
	for i := 0; i < n; i++ {
		s := t.Switch(topo.SwitchID(i))
		if t.SwitchActive(s.ID) {
			sp.actBase.Set(i)
		}
		if sp.opts.SpaceBudget[s.DC] > 0 {
			if masks[s.DC] == nil {
				masks[s.DC] = routing.NewBitset(n)
			}
			masks[s.DC].Set(i)
		}
	}
	dcs := make([]int, 0, len(masks))
	for dc := range masks {
		dcs = append(dcs, dc)
	}
	sort.Ints(dcs)
	for _, dc := range dcs {
		sp.occCheck = append(sp.occCheck, occMaskEntry{budget: int32(sp.opts.SpaceBudget[dc]), mask: masks[dc]})
	}
}

// reconstruct walks the best-cost predecessor table back from the target
// state to the initial state, emitting block IDs in execution order.
func (sp *space) reconstruct(prev map[int64]prevInfo, vecIdx int32, last migration.ActionType, tail int) []int {
	var rev []int
	cur := append([]uint16(nil), sp.vec(vecIdx)...)
	for last != NoLast {
		atInitial := true
		for i := range cur {
			if cur[i] != sp.initial[i] {
				atInitial = false
				break
			}
		}
		if atInitial {
			break
		}
		blocks := sp.task.BlocksOfType(last)
		rev = append(rev, blocks[int(cur[last])-1])
		idx, ok := sp.lookup(cur)
		if !ok {
			panic("core: reconstruction reached unknown state")
		}
		p, ok := prev[sp.extKeyT(idx, last, tail)]
		if !ok {
			panic("core: reconstruction missing predecessor")
		}
		cur[last]--
		last = p.last
		tail = int(p.tail)
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// runs groups a plan's sequence into the runs the crews execute: the first
// continues the run in progress at the start, whose current chunk already
// holds startTail actions under MaxRunLength.
func (sp *space) runs(seq []int) []Run {
	ex := sp.opts.Executed
	chunk := ex[len(ex)-sp.startTail:]
	if len(chunk) == 0 {
		return RunsOf(sp.task, seq, sp.opts.MaxRunLength)
	}
	runs := RunsOf(sp.task, append(slices.Clone(chunk), seq...), sp.opts.MaxRunLength)
	if runs[0].Blocks = runs[0].Blocks[len(chunk):]; len(runs[0].Blocks) == 0 {
		runs = runs[1:]
	}
	return runs
}

// initLowerBound seeds the run's global lower bound from a start state:
// the planners' own admissible heuristic, sharpened by the engine's
// cut-aware completion bound when one is attached. Monotone — a resumed
// leg can only raise the bound, never lower it.
func (sp *space) initLowerBound(vecIdx int32, last migration.ActionType, tail int) {
	lb := sp.heuristic(vecIdx, last, tail)
	if sp.bd != nil {
		if c := sp.bd.Completion(sp.vec(vecIdx), int(last)); c > lb && !math.IsInf(c, 1) {
			lb = c
		}
	}
	if lb > sp.lowerBound {
		sp.lowerBound = lb
	}
}

// certGap normalizes an (incumbent, lower bound) pair into the reported
// certificate. No incumbent yet → (0, lb, 1): nothing is certified. A
// zero-cost incumbent is trivially optimal. Otherwise the bound is
// clamped into [0, incumbent] (floating-point noise in the f-ordering can
// push it epsilon past the true optimum) and the relative gap returned —
// gap = 0 means the plan is provably optimal.
func certGap(incumbent, lb float64) (inc, lower, gap float64) {
	if math.IsInf(incumbent, 1) {
		if lb < 0 || math.IsInf(lb, 1) {
			lb = 0
		}
		return 0, lb, 1
	}
	if lb > incumbent {
		lb = incumbent
	}
	if lb < 0 {
		lb = 0
	}
	if incumbent <= 0 {
		return incumbent, incumbent, 0
	}
	return incumbent, lb, (incumbent - lb) / incumbent
}

// elapsedMetrics finalizes and returns the metrics for a finished run,
// accumulating planning time across resumed legs (the wall-clock gap
// between interruption and resumption is not counted). The optimality
// certificate (incumbent, global lower bound, relative gap) and the bound
// engine's effectiveness counters are stamped here so every exit path —
// success, interruption, checkpoint — reports them consistently.
func (sp *space) elapsedMetrics() Metrics {
	if sp.bd != nil {
		cl := sp.bd.CutsLearned() - sp.bdCutsBase
		ch := sp.bd.CutHits() - sp.bdHitsBase
		sp.rec.Add(obs.BoundCutsLearned, cl-sp.metrics.BoundCutsLearned)
		sp.rec.Add(obs.BoundCutHits, ch-sp.metrics.BoundCutHits)
		sp.metrics.BoundCutsLearned = cl
		sp.metrics.BoundCutHits = ch
	}
	sp.metrics.IncumbentCost, sp.metrics.LowerBound, sp.metrics.OptimalityGap =
		certGap(sp.incumbent, sp.lowerBound)
	sp.rec.Set(obs.OptimalityGap, sp.metrics.OptimalityGap)
	m := sp.metrics
	m.PlanningTime = sp.priorElapsed + time.Since(sp.started)
	return m
}
