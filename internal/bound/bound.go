// Package bound implements the planners' lower-bound engine: cheap
// admissible lower bounds on the remaining cost of a migration search
// state, strengthened by Benders-style cuts learned from infeasible
// boundary checks discovered during search.
//
// # Relaxation
//
// The base bound ignores ordering conflicts entirely: each action type
// with rem pending actions needs at least one fresh run (unit cost) plus
// rem−1 extensions (α·unit each), except the in-progress type, which can
// finish on extensions alone. This is exactly the planners' consistent
// heuristic algebra, and it is valid for ANY demand set and topology —
// feasibility constraints can only remove completions, never add cheaper
// ones — which is what lets the controller reuse it across drift replans.
//
// # Cuts
//
// Every boundary check that comes back infeasible is a fact about the
// count lattice: no feasible plan ever switches run types at that vector.
// The engine records those vectors as cuts in a dense lattice bitmap.
// Cuts sharpen the bound in two ways:
//
//   - Deadness: a state (V, last) whose every possible run-type switch
//     point (the whole last-type axis suffix from V) is cut can never be
//     completed — unless no off-axis work remains. Dead states can be
//     skipped outright without affecting which plan is found.
//   - Sealed tables: once a run completes, Seal latches its optimal cost
//     as the incumbent and the engine lazily builds exact cost-to-go and
//     cost-to-reach lattice tables over the cut set (vectors with unknown
//     verdicts are treated as feasible, keeping every table entry an
//     optimistic — hence admissible — estimate). A later run over the
//     same problem can then prune any state whose reach + ctg provably
//     exceeds the incumbent.
//
// # Lifetime
//
// The engine is long-lived: Bind compares the caller's constraint
// signatures against the cut set's provenance. A structural change
// (θ, split policy, topology outages, budgets) invalidates everything; a
// pure demand change keeps structural cuts (occupancy and port-budget
// rejections, which are demand-independent) and drops the rest, so
// replanning after demand drift starts warm. Tables are frozen per seal
// epoch: cuts learned mid-run make the NEXT seal's tables sharper but never
// mutate the tables a live run is pruning against, which keeps pruning
// decisions deterministic within a run.
//
// The engine is not safe for concurrent use; a plan calls it from its one
// goroutine.
package bound

import "math"

// Engine accumulates cuts and serves lower-bound queries for one task
// shape (totals, unit costs, α). See the package comment for semantics.
type Engine struct {
	n      int
	totals []uint16
	units  []float64
	alpha  float64

	// Lattice addressing. nVec == 0 means the full lattice exceeds the
	// memory budget: the engine then degrades to the closed-form
	// relaxation only (no cuts, no tables, no pruning).
	stride []int
	nVec   int

	// Cut store: one flag byte per lattice vector.
	cut  []uint8
	cuts int

	// Provenance signatures of the current cut set (Bind).
	bound     bool
	structSig uint64
	demandSig uint64

	// Seal state: the latched incumbent and the run-start basis the
	// reach table is relative to.
	sealed     bool
	incumbent  float64
	sealEpoch  int
	cutsAtSeal int
	sealInit   []uint16
	sealLast   int

	// Arm state: the CURRENT run's start basis. Dominance pruning
	// (reach + ctg vs incumbent) is only sound when the current run
	// starts where the sealed run did; deadness is basis-independent.
	curInit []uint16
	curLast int
	armed   bool

	// Lazily (re)built exact lattice tables, frozen per seal epoch.
	// ctg[idx*n+a] is the cheapest completion from vector idx with last
	// action type a; reach[idx*n+a] the cheapest way to get there from
	// sealInit/sealLast. Both treat unknown verdicts as feasible.
	tablesEpoch int
	ctg         []float64
	reach       []float64

	// Engine-lifetime effectiveness counters (monotone; callers fold
	// per-run deltas into their metrics).
	cutsLearned int
	cutHits     int

	// Cross-plan sharing (see store.go): structural cuts flow to and from
	// the attached store; crossHits counts imports that were new here.
	store     *Store
	crossHits int
}

const (
	cutKnown      uint8 = 1 << 0 // vector verified infeasible
	cutStructural uint8 = 1 << 1 // rejection independent of demand (occupancy, ports)
)

// maxLatticeFloats bounds the dense tables: nVec·n float64 slots per
// table. Beyond it the engine serves closed-form relaxations only.
const maxLatticeFloats = 4 << 20

// pruneEps guards incumbent comparisons against float noise: a state is
// dominated only when its bound exceeds the incumbent by a relative AND
// absolute epsilon, so exact ties — the optimal plan's own states — are
// never pruned.
const pruneEps = 1e-9

// New builds an engine for a task shape. totals and units are copied.
func New(totals []uint16, units []float64, alpha float64) *Engine {
	e := &Engine{
		n:       len(totals),
		totals:  append([]uint16(nil), totals...),
		units:   append([]float64(nil), units...),
		alpha:   alpha,
		curLast: -1,
		stride:  make([]int, len(totals)),
	}
	nVec := 1
	for i := e.n - 1; i >= 0; i-- {
		e.stride[i] = nVec
		span := int(totals[i]) + 1
		if nVec > maxLatticeFloats/span {
			nVec = 0
			break
		}
		nVec *= span
	}
	if nVec > 0 && e.n > 0 && nVec > maxLatticeFloats/e.n {
		nVec = 0
	}
	e.nVec = nVec
	return e
}

// Matches reports whether the engine was built for exactly this task
// shape. Planners refuse to attach a mismatched engine.
func (e *Engine) Matches(totals []uint16, units []float64, alpha float64) bool {
	if len(totals) != e.n || len(units) != e.n || alpha != e.alpha {
		return false
	}
	for i := range totals {
		if totals[i] != e.totals[i] || units[i] != e.units[i] {
			return false
		}
	}
	return true
}

// Bind declares the constraint provenance of the next run. A structural
// signature change resets the engine completely; a demand-only change
// keeps structural cuts and drops demand-dependent ones. Either change
// unseals: the old incumbent bounded the optimum of a different problem.
func (e *Engine) Bind(structSig, demandSig uint64) {
	if e.bound && e.structSig == structSig && e.demandSig == demandSig {
		return
	}
	if !e.bound || e.structSig != structSig {
		e.cut = nil
		e.cuts = 0
	} else {
		kept := 0
		for i := range e.cut {
			if e.cut[i]&cutStructural != 0 {
				e.cut[i] = cutKnown | cutStructural
				kept++
			} else {
				e.cut[i] = 0
			}
		}
		e.cuts = kept
	}
	e.bound = true
	e.structSig = structSig
	e.demandSig = demandSig
	e.sealed = false
	e.armed = false
	e.sealEpoch++
	// With provenance established, pull the shared store's structural
	// cuts for this structure: demand-independent facts other plans have
	// already paid to discover.
	if e.store != nil {
		e.crossHits += e.store.importInto(e)
	}
}

// Arm declares the current run's start state. Deadness queries work
// regardless; dominance pruning additionally requires the sealed basis
// to match the armed one.
func (e *Engine) Arm(initial []uint16, last int) {
	e.curInit = append(e.curInit[:0], initial...)
	e.curLast = last
	e.armed = e.sealed && e.sealLast == last && eqVec(e.sealInit, e.curInit)
}

// Learn records an infeasible boundary vector as a cut. structural marks
// cuts whose rejection is demand-independent (occupancy/space budget, or
// a switch's port budget), letting them survive demand drift. Returns true
// when the cut is new.
func (e *Engine) Learn(vec []uint16, structural bool) bool {
	if e.nVec == 0 {
		return false
	}
	if e.cut == nil {
		e.cut = make([]uint8, e.nVec)
	}
	idx := e.index(vec)
	if e.cut[idx]&cutKnown != 0 {
		if structural {
			e.cut[idx] |= cutStructural
			if e.store != nil && e.bound {
				e.store.publish(e.structSig, idx)
			}
		}
		return false
	}
	e.cut[idx] |= cutKnown
	if structural {
		e.cut[idx] |= cutStructural
		if e.store != nil && e.bound {
			e.store.publish(e.structSig, idx)
		}
	}
	e.cuts++
	e.cutsLearned++
	return true
}

// Seal latches a completed run's optimal cost as the incumbent for the
// armed basis. Re-sealing the same basis with no new cuts and no better
// incumbent is a no-op, so repeated runs over one problem never thrash
// the frozen tables.
func (e *Engine) Seal(cost float64) {
	if math.IsNaN(cost) || math.IsInf(cost, 0) || cost < 0 {
		return
	}
	same := e.sealed && e.sealLast == e.curLast && eqVec(e.sealInit, e.curInit)
	if same && e.cutsAtSeal == e.cuts && e.incumbent <= cost {
		e.armed = true
		return
	}
	if same && e.incumbent < cost {
		cost = e.incumbent // keep the tighter incumbent for this basis
	}
	e.sealed = true
	e.incumbent = cost
	e.sealInit = append(e.sealInit[:0], e.curInit...)
	e.sealLast = e.curLast
	e.cutsAtSeal = e.cuts
	e.sealEpoch++
	e.armed = true
}

// Sealed reports whether an incumbent is latched.
func (e *Engine) Sealed() bool { return e.sealed }

// Incumbent returns the latched incumbent cost (meaningful when Sealed).
func (e *Engine) Incumbent() float64 { return e.incumbent }

// CutsLearned returns the engine-lifetime count of distinct cuts learned.
func (e *Engine) CutsLearned() int { return e.cutsLearned }

// CutHits returns the engine-lifetime count of queries the cut set
// answered affirmatively (a state proven dead or dominated).
func (e *Engine) CutHits() int { return e.cutHits }

// Dead reports whether (vec, last) provably has no feasible completion:
// off-axis work remains, yet every vector where the current run could
// end — the whole last-type axis suffix from vec — is a known cut.
// Deadness only consults verified-infeasible facts, so it is sound for
// any run basis. last < 0 (no action yet) is never dead.
func (e *Engine) Dead(vec []uint16, last int) bool {
	if last < 0 || e.cuts == 0 || e.nVec == 0 {
		return false
	}
	idx := e.index(vec)
	if e.sealed && e.ensureTables() {
		// The exact cost-to-go over the cut set is +Inf exactly when no
		// completion survives the cuts (recursively, not just this axis).
		if math.IsInf(e.ctg[idx*e.n+last], 1) {
			e.cutHits++
			return true
		}
		return false
	}
	if e.cut[idx]&cutKnown == 0 {
		return false // could switch types right here
	}
	off := false
	for b := 0; b < e.n; b++ {
		if b != last && vec[b] < e.totals[b] {
			off = true
			break
		}
	}
	if !off {
		return false // pure same-type extension finishes the plan
	}
	w := idx
	for k := int(vec[last]); k <= int(e.totals[last]); k++ {
		if e.cut[w]&cutKnown == 0 {
			return false
		}
		w += e.stride[last]
	}
	e.cutHits++
	return true
}

// Completion returns an admissible lower bound on the cost of completing
// the migration from (vec, last). last < 0 means no run is in progress.
// Sealed engines answer from the exact cut-aware cost-to-go table;
// otherwise the closed-form relaxation (which every table entry
// dominates) is returned.
func (e *Engine) Completion(vec []uint16, last int) float64 {
	done := true
	for i := range vec {
		if vec[i] != e.totals[i] {
			done = false
			break
		}
	}
	if done {
		return 0
	}
	if e.sealed && e.nVec > 0 && e.ensureTables() {
		idx := e.index(vec)
		if last >= 0 {
			return e.ctg[idx*e.n+last]
		}
		// Fresh start: the first action of type a costs a full unit.
		best := math.Inf(1)
		for a := 0; a < e.n; a++ {
			if vec[a] >= e.totals[a] {
				continue
			}
			if c := e.units[a] + e.ctg[(idx+e.stride[a])*e.n+a]; c < best {
				best = c
			}
		}
		return best
	}
	return e.relax(vec, last)
}

// DominatedDP reports whether the DP cell (vec, last) can be skipped:
// it is dead, or — when the current run shares the sealed run's start
// basis — its exact optimistic reach + ctg provably exceeds the
// incumbent, so it cannot lie on any optimal plan. The epsilon guard
// keeps exact ties (the optimal plan's own cells) unpruned.
func (e *Engine) DominatedDP(vec []uint16, last int) bool {
	if e.Dead(vec, last) {
		return true
	}
	if !e.armed || e.nVec == 0 || !e.ensureTables() {
		return false
	}
	idx := e.index(vec)
	r := e.reach[idx*e.n+last]
	if math.IsInf(r, 1) {
		// Unreachable even with unknown verdicts treated feasible: the
		// serial recursion would value this cell +Inf too.
		e.cutHits++
		return true
	}
	c := e.ctg[idx*e.n+last]
	if r+c > e.incumbent*(1+pruneEps)+pruneEps {
		e.cutHits++
		return true
	}
	return false
}

// index maps a count vector to its dense lattice index.
func (e *Engine) index(vec []uint16) int {
	idx := 0
	for i, v := range vec {
		idx += int(v) * e.stride[i]
	}
	return idx
}

// relax is the closed-form ordering relaxation of uncapped runs, the
// planners' heuristic algebra (RelaxCapped).
func (e *Engine) relax(vec []uint16, last int) float64 {
	return RelaxCapped(e.units, e.totals, vec, e.alpha, last, 0, 0)
}

// ensureTables lazily (re)builds the exact lattice tables for the
// current seal epoch. Tables are immutable until the next Seal or Bind,
// so every in-run pruning decision is deterministic.
func (e *Engine) ensureTables() bool {
	if !e.sealed || e.nVec == 0 {
		return false
	}
	if e.tablesEpoch == e.sealEpoch && e.ctg != nil {
		return true
	}
	e.buildCtg()
	e.buildReach()
	e.tablesEpoch = e.sealEpoch
	return true
}

// isCut reports whether the lattice vector at idx is a known cut.
func (e *Engine) isCut(idx int) bool {
	return e.cut != nil && e.cut[idx]&cutKnown != 0
}

// buildCtg fills ctg by descending lattice index: every predecessor of a
// recurrence term has a strictly larger index (one more finished
// action), so a single backward pass suffices. Type switches are gated
// on the vector not being cut; extensions are always allowed (the
// network is not observed mid-run).
func (e *Engine) buildCtg() {
	n := e.n
	if e.ctg == nil {
		e.ctg = make([]float64, e.nVec*n)
	}
	vec := make([]uint16, n)
	for idx := e.nVec - 1; idx >= 0; idx-- {
		e.decode(idx, vec)
		done := true
		for i := range vec {
			if vec[i] != e.totals[i] {
				done = false
				break
			}
		}
		cutHere := e.isCut(idx)
		for a := 0; a < n; a++ {
			if done {
				e.ctg[idx*n+a] = 0
				continue
			}
			best := math.Inf(1)
			if vec[a] < e.totals[a] {
				best = e.alpha*e.units[a] + e.ctg[(idx+e.stride[a])*n+a]
			}
			if !cutHere {
				for b := 0; b < n; b++ {
					if b == a || vec[b] >= e.totals[b] {
						continue
					}
					if c := e.units[b] + e.ctg[(idx+e.stride[b])*n+b]; c < best {
						best = c
					}
				}
			}
			e.ctg[idx*n+a] = best
		}
	}
}

// buildReach fills reach relative to the sealed basis by ascending
// lattice index: a cell's predecessors all have a smaller index. Cells
// below the basis on any axis are unreachable. Entering a cell from a
// different-type predecessor run is gated on the predecessor vector not
// being cut (that is where the network is observed).
func (e *Engine) buildReach() {
	n := e.n
	if e.reach == nil {
		e.reach = make([]float64, e.nVec*n)
	}
	for i := range e.reach {
		e.reach[i] = math.Inf(1)
	}
	init := e.sealInit
	if len(init) != n {
		return // never armed with a basis; reach stays +Inf everywhere
	}
	vec := make([]uint16, n)
	pred := make([]uint16, n)
	for idx := 0; idx < e.nVec; idx++ {
		e.decode(idx, vec)
		below := false
		for i := range vec {
			if vec[i] < init[i] {
				below = true
				break
			}
		}
		if below {
			continue
		}
		for a := 0; a < n; a++ {
			if vec[a] <= init[a] {
				continue // a cannot have been the last action
			}
			pidx := idx - e.stride[a]
			copy(pred, vec)
			pred[a]--
			atInit := true
			for i := range pred {
				if pred[i] != init[i] {
					atInit = false
					break
				}
			}
			if atInit {
				base := e.units[a]
				if a == e.sealLast {
					base = e.alpha * e.units[a]
				}
				e.reach[idx*n+a] = base
				continue
			}
			best := math.Inf(1)
			if pred[a] > init[a] {
				best = e.reach[pidx*n+a] + e.alpha*e.units[a]
			}
			if !e.isCut(pidx) {
				for b := 0; b < n; b++ {
					if b == a || pred[b] <= init[b] {
						continue
					}
					if c := e.reach[pidx*n+b] + e.units[a]; c < best {
						best = c
					}
				}
			}
			e.reach[idx*n+a] = best
		}
	}
}

// decode writes the count vector for lattice index idx into out.
func (e *Engine) decode(idx int, out []uint16) {
	for i := 0; i < e.n; i++ {
		out[i] = uint16((idx / e.stride[i]) % (int(e.totals[i]) + 1))
	}
}

func eqVec(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RelaxCapped is the closed-form relaxation under an optional run cap:
// totals[i] − done[i] actions of type i remain, the in-progress run has
// type last (−1 for none) and tail actions already in its current chunk.
// Each remaining type needs a fresh run costing unit(1 + α(rem − 1)), and
// the in-progress type extends at α·unit. Under maxRun = K a type needs at
// least ⌈rem/K⌉ runs, and the in-progress type gets K − tail α-cost slots
// before its first fresh one; maxRun = 0 is uncapped. It is the planners'
// heuristic and the engine's cold completion bound. It depends only on
// counts, unit costs, and α — not on demands or topology — so it lower
// bounds the optimal cost of ANY replan of the same remaining work, which
// is what makes it safe to consult across drift.
func RelaxCapped(units []float64, totals, done []uint16, alpha float64, last, maxRun, tail int) float64 {
	h := 0.0
	for i := range totals {
		r := int(totals[i]) - int(done[i])
		if r <= 0 {
			continue
		}
		unit := units[i]
		if maxRun <= 0 {
			if i == last {
				h += alpha * unit * float64(r)
			} else {
				h += unit * (1 + alpha*float64(r-1))
			}
			continue
		}
		if i == last {
			free := max(maxRun-tail, 0)
			if r <= free {
				h += alpha * unit * float64(r)
				continue
			}
			rest := r - free
			runs := (rest + maxRun - 1) / maxRun
			h += alpha*unit*float64(free) + unit*float64(runs) + alpha*unit*float64(rest-runs)
		} else {
			runs := (r + maxRun - 1) / maxRun
			h += unit*float64(runs) + alpha*unit*float64(r-runs)
		}
	}
	return h
}
