package routing

import (
	"math/bits"
	"slices"

	"klotski/internal/topo"
)

// This file holds the one distance-field engine of the package — the only
// code that walks an adjacency to find distances — and the up state it reads,
// which syncUp keeps in step with whatever activity flags it is handed and
// which nothing else writes. Two checks run on it: the evaluator over the
// fabric's switches, and the quotient (quotient.go) over its classes, each
// with a sweep of its own. Both keep the fields of their last traversal and,
// while the next check asks for the same destinations and syncUp rebuilt few
// vertices in between, repair them around those vertices (repairField)
// instead of traversing again; a repaired field equals the traversed one
// entry for entry.
//
//   - distances is one level-synchronous, bit-parallel traversal for up to
//     batchWidth destinations at once. Each switch carries a 64-bit mask of
//     the destinations that have settled it; a level is a list of
//     (switch, mask) pairs pending at one distance. A switch's up arcs are
//     scanned once per distinct level at which any destination settles it,
//     with all of that level's destinations riding in the mask, instead of
//     once per destination.
//   - sweep, the evaluator's, places one destination group's flow over its
//     distance field. It visits only the switches that carry flow, level by
//     level from the sources toward the destination. A visited switch sums
//     its inflow from the arcs its upstream neighbours marked for it (tr.in),
//     in its own adjacency order, then splits it over its next hops and marks
//     those in turn. No float sum depends on the order in which switches were
//     reached, so the placement is a function of (adjacency order, up state,
//     demands, distance field) alone — see the summation-order contract in
//     the package comment. Which arcs are next hops is a function of
//     (distance field, up state) alone, so beside the retained fields the
//     check keeps the next-hop mask of every (field, switch) it has visited,
//     found by one scan of the switch's up arcs (arc.nextHop) and read back
//     from then on. The validity bytes of those masks (hopValid) belong to
//     the engine: the code that moves a field or the up state — the
//     traversal, the repair — drops the ones it outdates, and the quotient's
//     next-hop lists read the same bytes.

// batchWidth is the number of destinations one traversal carries: the bits
// of a mask word.
const batchWidth = 64

// arc is one directed arc of the adjacency: a circuit as seen from one
// endpoint. 16 bytes, four to a cache line. In a quotient's adjacency the
// vertices are classes and the circuits circuit classes.
type arc struct {
	other  int32 // peer endpoint
	metric int32
	li     int32 // directional load index for flow from this endpoint toward other; the circuit is li>>1
	back   int32 // the evaluator's sweep: the bit the reverse arc — same circuit, seen from other — occupies in a mask shaped like upBits; zero in a quotient's
}

// engine is the distance-field engine: a static adjacency, the up state of
// the activity flags last synced over it, the retained distance fields and
// the counters of the work. The adjacency is immutable once built and shared
// by forks; everything else is per fork. An Evaluator runs one over the
// fabric's switches, a Quotient one over its classes.
type engine struct {
	// Static CSR adjacency: the arcs of switch s are arcs[arcOff[s]:arcOff[s+1]],
	// in the switch's Circuits() order — the adjacency order every float sum of
	// the evaluator's sweep follows.
	arcs    []arc
	arcOff  []int32
	wordOff []int32   // switch s owns upBits[wordOff[s]:wordOff[s+1]]
	caps    []float64 // per circuit: capacity
	ports   []int32   // per switch: port budget, 0 = unconstrained (always 0 in a quotient's)

	// Up state of the flags last synced (syncUp): one bit per static arc, each
	// switch's bits starting on a word of its own (see upWords), so no
	// traversal ever tests a per-circuit flag; per switch, whether all its
	// arcs are up and whether it is over its port budget (swFlags), and how
	// many switches are over (nOver). swFlags' swActive bits and seenCk are
	// the engine's own copy of the activity flags all of that was derived
	// from: syncUp diffs the next flags against them and rebuilds only the
	// switches the difference reaches. All-zero is the all-drained view and
	// its up state at once, so a fresh engine is in sync by construction.
	upBits  []uint64
	swFlags []uint8
	nOver   int
	nMarked int // switches flagged swMarked: rebuilt since the retained distance fields were last in step
	seenCk  []bool

	// Traversal scratch, allocated on first use and per fork.
	trav traversal

	// Per-circuit directional load of the last placement: load[2c] is flow
	// A→B on circuit c, load[2c+1] flow B→A.
	load []float64

	// Stats counters for the lifetime of the engine.
	BFSes                int // per-destination distance fields computed by a full traversal
	FieldRepairs         int // … and retained fields brought up to date by a repair instead
	FieldEntriesRepaired int // entries those repairs wrote: un-set, re-set or lowered
	ArcVisits            int // arcs scanned by the distance traversals and tested by the repairs
	ArcVisitsInPlace     int // … of which at switches with every arc up, ranged over in place
	UpRebuilds           int // switch up masks rebuilt to follow the flags
}

// fork returns an engine over e's static adjacency with fresh up state,
// scratch and counters.
func (e *engine) fork() engine {
	n := len(e.ports)
	return engine{
		arcs: e.arcs, arcOff: e.arcOff, wordOff: e.wordOff, caps: e.caps, ports: e.ports,
		upBits:  make([]uint64, e.wordOff[n]),
		swFlags: make([]uint8, n),
		seenCk:  make([]bool, len(e.caps)),
		load:    make([]float64, 2*len(e.caps)),
	}
}

// level is one distance level of a traversal in flight: the switches queued
// at distance d, in first-touch order. distances pairs each with the
// destinations reaching it at d, so a level costs 12 bytes per pending pair
// and nothing per switch of the fabric.
type level struct {
	d    int32
	sw   []int32
	mask []uint64 // distances only, aligned with sw
}

// levelQueue keeps the levels of one traversal in flight, ordered by
// distance, and recycles drained ones. The two primitives take turns on one
// queue: every distance level is drained before the first sweep starts.
type levelQueue struct {
	active []*level // ascending d
	free   []*level
}

// maxPooledLevels caps the drained levels a queue keeps for reuse. A
// traversal has at most one level in flight per distinct pending distance;
// a fabric with many distinct metrics may need more for a moment, and the
// surplus goes back to the collector instead of staying with the evaluator.
const maxPooledLevels = 32

// flipped is an arc whose up state may have changed between two checks.
type flipped struct{ x, y, metric int32 }

// traversal is the scratch of the two primitives. Everything is allocated on
// first use and sized to what the checks actually touch.
type traversal struct {
	settled []uint64   // distances: per switch, the destinations that have settled it
	last    []int32    // distances: per switch, where its most recent pending pair sits in its level
	levels  levelQueue // distances: pairs not yet settled; sweep: flow-carrying switches not yet visited

	// One traversal batch: the destinations handed to distances and the
	// fields it fills. The check carves its fields out of dist and lists them
	// per requested destination in fields, nil where that destination is
	// inactive.
	dsts   []topo.SwitchID
	live   [][]int32
	dist   []int32
	fields [][]int32

	// What the check retains between calls: field k of dist, n entries each,
	// is the exact distance field of kept[k] over the up state as it stood
	// when the rebuilt marks (swMarked) were last cleared. Trace traverses
	// into a field of its own and never writes dist or kept.
	kept       []topo.SwitchID
	keptVisits int // arcs the traversal that computed them visited
	// Repair scratch: the switches rebuilt since, the arcs between two of
	// them by their state now, and the entries of the field under repair that
	// lost their support.
	marked   []int32
	down, up []flipped
	unset    []int32

	// Next hops retained beside the fields: hopValid[k·n+x] says whether what
	// is kept of switch x's next hops in field k stands for field k and the up
	// state as they are. It is shaped like dist; the evaluator allocates it
	// when a check first finds the fields of the check before it fit to keep
	// (repairFields), so an evaluator that only ever traverses keeps nothing,
	// and the quotient on its first check. What it validates is each check's
	// own: the evaluator's masks in hopSets — for field k and switch x a mask
	// shaped like x's up words (field k's run starts at k·|upBits|) of the up
	// arcs of x that lead one step closer in field k — and the quotient's
	// next-hop lists.
	hopValid []uint8
	hopSets  []uint64

	// Sweep. A switch is in the current group's flow set iff its stamp is
	// group; flow is its seeded rate until it is visited and its total inflow
	// from then on. The evaluator's sweep keeps, per visited switch, what each
	// of its next hops draws from that — ECMP: the equal share flow/count,
	// divided once rather than once per arc; WCMP: the capacity sum, for the
	// per-arc flow·cap/per. in is shaped like upBits: a visited switch sets,
	// for each next hop, the bit of the reverse arc in the hop's own words, and
	// the hop clears its words as it pulls, so in is all-zero between sweeps.
	stamp []uint16
	group uint16
	flow  []float64
	per   []float64
	in    []uint64
	hops  []int32 // repairField: tight children of the entry being judged
	lis   []int32 // the group's contribution: directional load indices …
	vals  []float64
}

// Per-switch flags of the up state (engine.swFlags), written by
// rebuildSwitch together with the switch's mask words.
const (
	// swActive: the switch's activity flag in the view last synced.
	swActive uint8 = 1 << iota
	// swAllUp: the switch is active and every static arc of it is up, so a
	// loop over its up arcs may range over the static arcs in place instead
	// of walking the mask. Same arcs, same (adjacency) order.
	swAllUp
	// swOver: the switch has more up circuits than its port budget.
	swOver
	// swStale: syncUp scratch — the switch awaits a rebuild in the call under
	// way. Clear between calls.
	swStale
	// swMarked: the switch was rebuilt since the retained distance fields
	// were last computed or repaired (counted in nMarked). An arc whose up
	// state changed since then has both its ends marked.
	swMarked
)

// repairCutover is the share of the fabric, as 1/repairCutover of its
// switches, up to which the retained fields are repaired around the rebuilt
// switches; beyond it they are traversed afresh. Between two routed checks of
// a search on suite E × 0.25 (1236 switches) the rebuilt count is bimodal —
// 11 to 20 switches, or 187 and up — while the small fabrics A to D rebuild a
// tenth of themselves, where a repair tests as many arcs as the traversal or
// more: the constant sits between 1.6 % and 10 %. See DESIGN.md,
// "Satisfiability checker".
const repairCutover = 16

// repairBudget bounds what a repair may cost when few rebuilt switches move
// much of every field (a pod losing its last short way out): it gives up, and
// the fields are traversed afresh, once it has tested more than
// 1/repairBudget of the arcs that traversal visited last time. On the same
// search nine repairs in ten test under a fifth of them; one in fifty would
// have tested two to seven times as many.
const repairBudget = 2

// upWords returns the up mask of switch s and its static arcs: bit j of
// word k is set iff arcs[64k+j] is up. Every loop over a switch's up arcs
// visits them in ascending order, which is the switch's adjacency order —
// by walking the set bits, or by ranging over arcs when the switch is
// flagged swAllUp.
func (e *engine) upWords(s int32) (words []uint64, arcs []arc) {
	return e.upBits[e.wordOff[s]:e.wordOff[s+1]], e.arcs[e.arcOff[s]:e.arcOff[s+1]]
}

// syncUp makes the up state — mask, per-switch flags and over-budget count —
// reflect the activity flags sw (per switch) and ck (per circuit), paying for
// what differs from the flags it reflected before; ends gives a circuit's two
// endpoints. The engine keeps its own copy of the flags the mask was built
// from (swActive per switch, seenCk per circuit) and compares the new flags
// against it by content, so any view may follow any other (a lane's, the
// audit's, a Reset or CopyFrom one) with no cooperation from the caller. A
// switch's words depend on its own flag, its circuits' flags and its
// neighbours' flags, hence the rebuild set: every switch that flipped, each
// of its static neighbours, and both endpoints of every circuit that flipped.
// A fresh engine's copy is all-drained, which the zero mask reflects exactly,
// so its first call is this same diff finding every active element flipped;
// nothing else ever writes the mask.
func (e *engine) syncUp(sw, ck []bool, ends func(c int) (a, b int32)) {
	flags := e.swFlags[:len(sw)]
	stale := false
	for s, on := range sw {
		if on == (flags[s]&swActive != 0) {
			continue
		}
		stale = true
		flags[s] |= swStale
		for _, a := range e.arcs[e.arcOff[s]:e.arcOff[s+1]] {
			flags[a.other] |= swStale
		}
	}
	seen := e.seenCk[:len(ck)]
	for c, on := range ck {
		if on == seen[c] {
			continue
		}
		seen[c] = on
		stale = true
		a, b := ends(c)
		flags[a] |= swStale
		flags[b] |= swStale
	}
	if !stale {
		return
	}
	for s, f := range flags {
		if f&swStale != 0 {
			e.rebuildSwitch(int32(s), sw, ck)
		}
	}
}

// rebuildSwitch derives the up state of switch s from the activity flags: an
// arc is up iff its circuit's flag and both endpoint switches' flags are
// set. It reads the flag arrays and the static arcs' endpoints, never a
// Circuit struct. The number of up arcs is the switch's up-circuit count for
// the port constraint (Eq. 6).
func (e *engine) rebuildSwitch(s int32, sw, ck []bool) {
	e.UpRebuilds++
	words, arcs := e.upWords(s)
	clear(words)
	var f uint8
	n := 0
	if sw[s] {
		f = swActive
		for j, a := range arcs {
			if ck[a.li>>1] && sw[a.other] {
				words[j>>6] |= 1 << (j & 63)
				n++
			}
		}
		if n == len(arcs) {
			f |= swAllUp
		}
	}
	old := e.swFlags[s]
	if old&swOver != 0 {
		e.nOver--
	}
	if p := e.ports[s]; p > 0 && int32(n) > p {
		f |= swOver
		e.nOver++
	}
	if old&swMarked == 0 {
		e.nMarked++
	}
	e.swFlags[s] = f | swMarked // and no longer stale
}

// portViolation returns the port violation of the synced view: the
// lowest-numbered switch over its budget, found by a scan that runs only
// when some switch is over. The zero Violation means every switch fits.
func (e *Evaluator) portViolation() Violation {
	if e.nOver == 0 {
		return Violation{}
	}
	for s, f := range e.swFlags {
		if f&swOver != 0 {
			return Violation{Kind: ViolationPorts, Switch: topo.SwitchID(s)}
		}
	}
	panic("routing: internal error: over-budget count without an over-budget switch")
}

// at returns the in-flight level at distance d, creating it if needed. Few
// levels are in flight at once (the distinct metrics within one metric's
// reach of the current level), so a scan from the far end beats any index.
func (q *levelQueue) at(d int32) *level {
	i := len(q.active)
	for i > 0 && q.active[i-1].d > d {
		i--
	}
	if i > 0 && q.active[i-1].d == d {
		return q.active[i-1]
	}
	var lv *level
	if k := len(q.free); k > 0 {
		lv, q.free = q.free[k-1], q.free[:k-1]
	} else {
		lv = &level{}
	}
	lv.d = d
	q.active = append(q.active, nil)
	copy(q.active[i+1:], q.active[i:])
	q.active[i] = lv
	return lv
}

// add queues switch s at distance d, with no mask: the form the field repair
// and the sweep use.
func (q *levelQueue) add(d, s int32) {
	lv := q.at(d)
	lv.sw = append(lv.sw, s)
}

// pop removes and returns the level at the smallest distance in flight.
func (q *levelQueue) pop() *level {
	lv := q.active[0]
	q.active = q.active[:copy(q.active, q.active[1:])]
	return lv
}

// drain releases every level still in flight.
func (q *levelQueue) drain() {
	for _, lv := range q.active {
		q.release(lv)
	}
	q.active = q.active[:0]
}

// release returns a drained level to the pool, or drops it when the pool is
// full.
func (q *levelQueue) release(lv *level) {
	if len(q.free) < maxPooledLevels {
		lv.sw, lv.mask = lv.sw[:0], lv.mask[:0]
		q.free = append(q.free, lv)
	}
}

// distances computes the metric-shortest distance fields of up to batchWidth
// destinations over the up arcs. fields[i] receives the field of dsts[i],
// biased by +1 so that 0 means unreachable; it must be all-zero on entry.
// Destinations must be active switches.
//
// The traversal is Dijkstra over integer distances with the frontier merged
// across destinations: pending (switch, destination) pairs are kept per
// distance level as (switch, mask) pairs, levels are processed in ascending
// order, and a destination settles a switch at the first level that reaches
// it. A push merges into the switch's most recent pending pair when that
// pair is at the same distance — always, on a fabric of equal metrics, where
// one level is pending at a time; otherwise the switch gets a second pair at
// that level, which costs a rescan of its arcs and changes no distance,
// because a pair only ever settles what no shorter level has. Scratch is
// proportional to the pairs pending, never to the fabric times the levels in
// flight nor to the magnitude of a metric, and one destination costs what a
// single-source search costs.
func (e *engine) distances(dsts []topo.SwitchID, fields [][]int32) {
	tr := &e.trav
	e.BFSes += len(dsts)
	if tr.settled == nil {
		tr.settled = make([]uint64, len(e.ports))
		tr.last = make([]int32, len(e.ports))
	}
	settled, last := tr.settled, tr.last
	clear(settled)

	q := &tr.levels
	q.drain() // flow levels an early exit left queued
	lv := q.at(0)
	for i, d := range dsts {
		lv.sw = append(lv.sw, int32(d))
		lv.mask = append(lv.mask, 1<<uint(i))
	}

	visits, inPlace := 0, 0
	for len(q.active) > 0 {
		lv := q.pop()
		d := lv.d
		var next *level
		for j, w := range lv.sw {
			// Keep the destinations not settled at a shorter distance, record
			// theirs, and carry them over w's up arcs in one scan.
			fm := lv.mask[j] &^ settled[w]
			if fm == 0 {
				continue
			}
			settled[w] |= fm
			for b := fm; b != 0; b &= b - 1 {
				fields[bits.TrailingZeros64(b)][w] = d + 1
			}
			words, arcs := e.upWords(w)
			if e.swFlags[w]&swAllUp != 0 {
				for i := range arcs {
					a := &arcs[i]
					if cand := next.offer(a, fm, d, settled, last); cand != 0 {
						next = q.push(next, a.other, d+a.metric, cand, last)
					}
				}
				visits += len(arcs)
				inPlace += len(arcs)
				continue
			}
			for k, bw := range words {
				visits += bits.OnesCount64(bw)
				for ; bw != 0; bw &= bw - 1 {
					a := &arcs[k<<6+bits.TrailingZeros64(bw)]
					if cand := next.offer(a, fm, d, settled, last); cand != 0 {
						next = q.push(next, a.other, d+a.metric, cand, last)
					}
				}
			}
		}
		q.release(lv)
	}
	e.ArcVisits += visits
	e.ArcVisitsInPlace += inPlace
}

// offer is the body both scans of distances — in place and over the mask —
// run per up arc. The destinations fm settled a switch at distance d and are
// offered to the peer of its arc a, which keeps those it has not settled yet.
// lv is the level the previous arc queued into (nil before the first): when
// it is the level at d + metric and holds the peer's pending pair, the
// candidates merge into that pair here and offer returns 0; otherwise it
// returns them for push to queue. The split keeps the two common outcomes —
// nothing to offer, merge — inlined in the scan and calls out only for a new
// pair or a change of level.
func (lv *level) offer(a *arc, fm uint64, d int32, settled []uint64, last []int32) uint64 {
	cand := fm &^ settled[a.other]
	if cand == 0 || lv == nil || lv.d != d+a.metric {
		return cand
	}
	// last is only a hint: it is right iff that slot of the level holds this
	// switch, so it never needs resetting.
	if p := int(last[a.other]); p < len(lv.sw) && lv.sw[p] == a.other {
		lv.mask[p] |= cand
		return 0
	}
	return cand
}

// push queues the candidates offer returned for switch w at distance nd,
// looking the level up unless lv is it: merged into w's pending pair there if
// it has one, as a new pair otherwise. It returns the level used and leaves
// the merge hint for offer.
func (q *levelQueue) push(lv *level, w, nd int32, cand uint64, last []int32) *level {
	if lv == nil || lv.d != nd {
		lv = q.at(nd)
	}
	if p := int(last[w]); p < len(lv.sw) && lv.sw[p] == w {
		lv.mask[p] |= cand
		return lv
	}
	last[w] = int32(len(lv.sw))
	lv.sw = append(lv.sw, w)
	lv.mask = append(lv.mask, cand)
	return lv
}

// batchDistances returns the distance fields of the active destinations among
// dsts (at most batchWidth), one per destination and nil where the destination
// is inactive, held in the engine's own batch scratch and valid until the
// next call. The fields stay behind as the retained fields of those
// destinations: when the next call asks for the same active destinations and
// syncUp has rebuilt no more than 1/repairCutover of the fabric since, the
// fields are repaired around the rebuilt switches; otherwise — an engine's
// first check, a destination drained or undrained, another demand set, a
// second batch, a far jump of the view, a repair that gave up — distances
// computes them afresh. Either way the result is the fields' one definition,
// the metric-shortest distances over the up arcs, so nothing downstream can
// tell which ran. Rates never enter a field: the key is (destinations, up
// state) by content. A traversal computes every field of the batch anew, so
// it also drops every next hop kept beside them.
func (e *engine) batchDistances(swActive []bool, dsts []topo.SwitchID) [][]int32 {
	tr := &e.trav
	n := len(e.ports)
	if len(tr.dist) < len(dsts)*n {
		tr.dist = make([]int32, len(dsts)*n)
		tr.kept = tr.kept[:0]
		tr.hopValid, tr.hopSets = nil, nil // shaped like dist: allocated anew when next hops are next kept
	}
	tr.fields, tr.live, tr.dsts = tr.fields[:0], tr.live[:0], tr.dsts[:0]
	for _, dst := range dsts {
		var field []int32
		if swActive[dst] {
			k := len(tr.live)
			field = tr.dist[k*n : (k+1)*n : (k+1)*n]
			tr.live = append(tr.live, field)
			tr.dsts = append(tr.dsts, dst)
		}
		tr.fields = append(tr.fields, field)
	}
	if len(tr.dsts) == 0 {
		// Nothing to compute; what is retained stays as it is, a step further
		// behind, and the marks go on saying by how much.
		return tr.fields
	}
	if e.nMarked*repairCutover > n || !slices.Equal(tr.dsts, tr.kept) || !e.repairFields() {
		tr.kept = append(tr.kept[:0], tr.dsts...)
		clear(tr.dist[:len(tr.live)*n])
		clear(tr.hopValid) // every field of the batch is computed anew
		before := e.ArcVisits
		e.distances(tr.dsts, tr.live)
		tr.keptVisits = e.ArcVisits - before
		if e.nMarked > 0 { // the fields are in step with the up state
			for s := range e.swFlags {
				e.swFlags[s] &^= swMarked
			}
			e.nMarked = 0
		}
	}
	return tr.fields
}

// repairFields brings the retained fields in step with the up state by
// repairing each around the switches marked as rebuilt, and clears the marks.
// It reports false when it gave up: the repair had tested more arcs than
// 1/repairBudget of what the traversal it stands in for visited, and the
// fields are then neither the old ones nor the new.
//
// An arc whose up state changed has a mark at both ends, so the arcs between
// two marked switches are listed once for all fields, each from its lower
// end: in tr.down those that are down now, in tr.up those that are up. The
// marked switches come from one pass over the flag bytes: a list kept by
// rebuildSwitch would grow to the whole fabric on every fork's first check.
//
// This is also where the evaluator's next-hop masks come to be and where two
// of the three things that outdate a kept next hop are seen. A call means the
// fields of the check before are being kept, so next hops beside them will be
// read again: the first call allocates their validity bytes, shaped like dist
// (the evaluator's sweep allocates its masks beside them). The next hops of
// switch x depend on x's up arcs, on x's entry and on the entries of x's up
// neighbours. The up arcs can only have changed at a marked switch: the next
// hops of every marked switch go, in every field, here. The entries change in
// repairField, field by field.
func (e *engine) repairFields() bool {
	tr := &e.trav
	n := len(e.ports)
	if tr.hopValid == nil {
		tr.hopValid = make([]uint8, len(tr.dist))
	}
	if e.nMarked == 0 {
		return true
	}
	tr.marked, tr.down, tr.up = tr.marked[:0], tr.down[:0], tr.up[:0]
	for s, f := range e.swFlags {
		if f&swMarked != 0 {
			tr.marked = append(tr.marked, int32(s))
		}
	}
	visits := 0
	for _, x := range tr.marked {
		// The up arcs of x may have changed: its next hops in every field.
		for k := range tr.kept {
			tr.hopValid[k*n+int(x)] = 0
		}
		words, arcs := e.upWords(x)
		for j := range arcs {
			a := &arcs[j]
			if a.other <= x || e.swFlags[a.other]&swMarked == 0 {
				continue
			}
			if words[j>>6]>>(j&63)&1 != 0 {
				tr.up = append(tr.up, flipped{x, a.other, a.metric})
			} else {
				tr.down = append(tr.down, flipped{x, a.other, a.metric})
			}
		}
		visits += len(arcs)
	}
	for _, x := range tr.marked {
		e.swFlags[x] &^= swMarked
	}
	e.nMarked = 0

	budget := tr.keptVisits / repairBudget
	written, ok := 0, visits <= budget
	for k := 0; ok && k < len(tr.kept); k++ {
		var v, w int
		v, w, ok = e.repairField(tr.live[k], tr.hopValid[k*n:(k+1)*n], budget-visits)
		visits += v
		written += w
	}
	e.ArcVisits += visits
	if ok {
		e.FieldRepairs += len(tr.kept)
		e.FieldEntriesRepaired += written
	}
	return ok
}

// repairField makes dist, the exact distance field of a destination over an
// earlier up state, the exact field over the current one, given in tr.down
// and tr.up every arc that went down or came up in between (and possibly
// others in the state they had before, which change nothing). Two phases,
// each over the level queue in ascending distance:
//
//  1. Un-set what lost its support. An entry stands while its switch has an
//     up arc to a standing entry at its distance minus the arc's metric. It
//     can lose that by an arc going down, so the far end of every tight arc in
//     tr.down is a candidate, or by its parent being un-set, so the tight
//     children of every un-set entry are. Parents lie at strictly smaller
//     distances and are final when a candidate is judged. What still stands
//     afterwards is the length of a path that exists, hence an upper bound.
//  2. Relax outward, label-setting: across the arcs of tr.up (arcs that came
//     up and switches that became active shorten paths) and into each un-set
//     entry from its best standing neighbour (the way around what went down;
//     an entry nothing reaches stays 0, unreachable), then on from every
//     entry a relaxation lowered. Any other arc joins two entries of the old
//     field, which was valid over it.
//
// Distances are integers, so the result equals a fresh traversal's entry for
// entry. It returns the arcs it tested and the entries it wrote, and false as
// soon as the former exceed budget.
//
// valid holds the field's run of the validity bytes (hopValid). Phase 2 scans
// every up arc of every entry the repair wrote — un-set ones as it looks for
// their best standing neighbour, lowered ones as it relaxes on from them — and
// clears the byte at the far end of each: the neighbours are whose next hops
// the entry was part of. The written entry's own next hops need no clearing
// of their own: an entry moves only if an arc of its switch changed state,
// and then the switch is marked, or if a neighbour's entry moved, and then
// the neighbour's scan clears it. A repair that gives up leaves bytes behind
// that the traversal after it clears wholesale.
func (e *engine) repairField(dist []int32, valid []uint8, budget int) (visits, written int, ok bool) {
	tr := &e.trav
	q := &tr.levels
	q.drain() // flow levels an early exit left queued, or a repair that gave up
	visits = len(tr.down) + len(tr.up)

	for _, f := range tr.down {
		switch dx, dy := dist[f.x], dist[f.y]; {
		case dx == 0 || dy == 0:
		case dx == dy+f.metric:
			q.add(dx, f.x)
		case dy == dx+f.metric:
			q.add(dy, f.y)
		}
	}
	unset := tr.unset[:0]
	for len(q.active) > 0 && visits <= budget {
		lv := q.pop()
		d := lv.d
		for _, x := range lv.sw {
			if dist[x] != d { // un-set already, through another pair of this level
				continue
			}
			// One scan finds x a standing parent, and stops, or gathers the
			// tight children to judge after x.
			standing, kids := false, tr.hops[:0]
			words, arcs := e.upWords(x)
		scan:
			for k, bw := range words {
				for ; bw != 0; bw &= bw - 1 {
					a := &arcs[k<<6+bits.TrailingZeros64(bw)]
					visits++
					switch o := dist[a.other]; o {
					case 0:
					case d - a.metric:
						standing = true
						break scan
					case d + a.metric:
						kids = append(kids, a.other)
					}
				}
			}
			tr.hops = kids[:0]
			if standing {
				continue
			}
			dist[x] = 0
			unset = append(unset, x)
			for _, c := range kids {
				q.add(dist[c], c)
			}
		}
		q.release(lv)
	}
	tr.unset = unset
	written = len(unset)
	if visits > budget {
		return visits, written, false
	}

	for _, f := range tr.up {
		switch dx, dy := dist[f.x], dist[f.y]; {
		case dx != 0 && (dy == 0 || dx+f.metric < dy):
			dist[f.y] = dx + f.metric
			q.add(dx+f.metric, f.y)
			written++
		case dy != 0 && (dx == 0 || dy+f.metric < dx):
			dist[f.x] = dy + f.metric
			q.add(dy+f.metric, f.x)
			written++
		}
	}
	for _, x := range unset {
		d := dist[x]
		words, arcs := e.upWords(x)
		for k, bw := range words {
			visits += bits.OnesCount64(bw)
			for ; bw != 0; bw &= bw - 1 {
				a := &arcs[k<<6+bits.TrailingZeros64(bw)]
				valid[a.other] = 0
				if o := dist[a.other]; o != 0 && (d == 0 || o+a.metric < d) {
					d = o + a.metric
				}
			}
		}
		if d != dist[x] {
			dist[x] = d
			q.add(d, x)
			written++
		}
	}
	for len(q.active) > 0 && visits <= budget {
		lv := q.pop()
		d := lv.d
		for _, x := range lv.sw {
			if dist[x] != d { // lowered further since it was queued
				continue
			}
			words, arcs := e.upWords(x)
			for k, bw := range words {
				visits += bits.OnesCount64(bw)
				for ; bw != 0; bw &= bw - 1 {
					a := &arcs[k<<6+bits.TrailingZeros64(bw)]
					valid[a.other] = 0
					if o := dist[a.other]; o == 0 || d+a.metric < o {
						dist[a.other] = d + a.metric
						q.add(d+a.metric, a.other)
						written++
					}
				}
			}
		}
		q.release(lv)
	}
	return visits, written, visits <= budget
}

// beginGroup starts a new destination group's flow set. Membership is by
// stamp, so whatever an earlier group left behind — a check may exit between
// seeding and sweeping — is out of the set without being visited; the stamps
// are cleared when the 16-bit group number wraps, once in 65 535 groups.
func (e *engine) beginGroup() {
	tr := &e.trav
	if tr.stamp == nil {
		tr.stamp = make([]uint16, len(e.ports))
		tr.flow = make([]float64, len(e.ports))
	}
	if tr.group++; tr.group == 0 {
		clear(tr.stamp)
		tr.group = 1
	}
	tr.levels.drain()
}

// seed adds rate to the inflow of source switch src of the current group,
// which src joins, queued at its distance level, if it is not in it yet.
func (e *engine) seed(dist []int32, src topo.SwitchID, rate float64) {
	tr := &e.trav
	if tr.stamp[src] != tr.group {
		tr.stamp[src] = tr.group
		tr.flow[src] = 0
		tr.levels.add(dist[src], int32(src))
	}
	tr.flow[src] += rate
}

// nextHop reports whether a, an up arc of a switch at distance dx in the field
// dist, leads exactly its metric closer to the destination. It is the
// package's one definition of where a switch forwards.
func (a *arc) nextHop(dist []int32, dx int32) bool { return dist[a.other] == dx-a.metric }

// sweep propagates the seeded inflow of the current group toward dst over
// dist, which is field k of the batch, and returns the group's contribution
// as aligned (directional load index, value) slices, valid until the next
// sweep. Each directional index appears at most once.
//
// Levels are visited from the farthest source inward. A visited switch x
// first pulls: for every set bit of its words of tr.in, ascending — its
// adjacency order — the upstream peer's share over that arc is emitted as the
// arc's load and added to x's inflow, and the words are cleared. A bit is set
// by a peer w at dist[x] + metric that carries flow, when w was visited; every
// such w lies at a strictly larger distance and is final by then. The seeded
// rate enters the sum first and the pulled shares follow in adjacency order:
// the inflow of x is the same float sum however x was reached. x then pushes:
// it weighs its next hops, lets the unseen ones join in adjacency order, and
// sets on each the bit of the arc back to x (arc.back).
//
// The next hops of x are the bits of the mask the batch retains for (k, x)
// where that is valid. Where it is not, or nothing is retained, they are found
// among x's up arcs by one scan (arc.nextHop), in the pass that pushes over
// them, and kept if the batch keeps masks. Pulling scans nothing, so the arcs
// a sweep classifies are the up arcs of the switches it had no valid mask for.
func (e *Evaluator) sweep(k int, dist []int32, dst topo.SwitchID, split SplitMode) ([]int32, []float64) {
	tr := &e.trav
	wcmp := split == SplitCapacityWeighted
	n := len(e.ports)
	if tr.in == nil {
		tr.per = make([]float64, n)
		tr.in = make([]uint64, len(e.upBits))
	}
	var sets []uint64
	var valid []uint8
	if tr.hopValid != nil {
		if tr.hopSets == nil { // the masks, beside the validity bytes
			tr.hopSets = make([]uint64, len(tr.hopValid)/n*len(e.upBits))
		}
		sets = tr.hopSets[k*len(e.upBits) : (k+1)*len(e.upBits)]
		valid = tr.hopValid[k*n : (k+1)*n]
	}
	in, flow, per, stamp, group := tr.in, tr.flow, tr.per, tr.stamp, tr.group
	lis, vals := tr.lis[:0], tr.vals[:0]
	built, reused, tests := 0, 0, 0
	q := &tr.levels
	for len(q.active) > 0 {
		top := len(q.active) - 1
		lv := q.active[top]
		q.active = q.active[:top]
		var next *level // the level the previous hop joined at
		for _, x := range lv.sw {
			lo, hi := e.wordOff[x], e.wordOff[x+1]
			arcs := e.arcs[e.arcOff[x]:e.arcOff[x+1]]
			f := flow[x]
			for i, bw := range in[lo:hi] {
				if bw == 0 {
					continue
				}
				in[int(lo)+i] = 0
				for ; bw != 0; bw &= bw - 1 {
					a := &arcs[i<<6+bits.TrailingZeros64(bw)]
					share := per[a.other]
					if wcmp {
						share = flow[a.other] * e.caps[a.li>>1] / share
					}
					f += share
					lis = append(lis, a.li^1)
					vals = append(vals, share)
				}
			}
			flow[x] = f
			if f == 0 || x == int32(dst) {
				continue
			}

			// Read the next hops back, or find them among the up arcs and keep
			// them where the batch keeps masks.
			scan := valid == nil || valid[x] == 0
			keep := scan && valid != nil
			cand := e.upBits[lo:hi]
			if scan {
				built++
			} else {
				reused++
				cand = sets[lo:hi]
			}
			dx := dist[x]
			weight := 0.0
			for i, bw := range cand {
				if scan {
					tests += bits.OnesCount64(bw)
				}
				var hops uint64
				for ; bw != 0; bw &= bw - 1 {
					j := bits.TrailingZeros64(bw)
					a := &arcs[i<<6+j]
					if scan && !a.nextHop(dist, dx) {
						continue
					}
					hops |= 1 << j
					if wcmp {
						weight += e.caps[a.li>>1]
					} else {
						weight++
					}
					if w := a.other; stamp[w] != group {
						stamp[w] = group
						flow[w] = 0
						if d := dist[w]; next == nil || next.d != d {
							next = q.at(d)
						}
						next.sw = append(next.sw, w)
					}
					in[a.back>>6] |= 1 << (a.back & 63)
				}
				if keep {
					sets[int(lo)+i] = hops
				}
			}
			if keep {
				valid[x] = 1
			}
			if weight == 0 {
				// A settled switch other than dst has a tight arc toward
				// dst by construction of the distance field.
				panic("routing: internal error: flow stranded at switch with no next hop")
			}
			if wcmp {
				per[x] = weight
			} else {
				per[x] = f / weight
			}
		}
		q.release(lv)
	}
	tr.lis, tr.vals = lis, vals
	e.HopSetsBuilt += built
	e.HopSetsReused += reused
	e.SweepArcTests += tests
	return lis, vals
}
