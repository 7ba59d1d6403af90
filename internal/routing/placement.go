package routing

import (
	"math"
	"math/bits"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// The retained placement. Beside each retained field and its next-hop masks
// the slab keeps what the field's last sweep placed — per switch its share
// (perK; under WCMP its inflow too, flowK) and its flow-set stamp (stampK),
// which says whether it forwarded — and per demand the source and rate it was
// seeded with. The sweep writes all of it in place. A routed check whose
// predecessor moved at most 1/placementGate of the placement re-places only
// the dirty (field, switch) pairs, in descending distance: forwarding switches
// whose mask was outdated, sources whose seeds changed, and, transitively, the
// old and new next hops of every switch whose placement changed. Then it sums
// every load it touched again, in ascending field order, and answers when no
// circuit ends over its bound and every demand is reachable. Anything else
// runs the sweeps, which stay the only code that reports a violation. The
// answer is the sweeps' bit for bit: a re-placed switch's inflow is the same
// float sum (seeds, then senders' shares in its own adjacency order), a switch
// not re-placed has the same seeds, mask and senders, every load is the same
// sequence of additions, and as loads only grow a circuit ends over its bound
// iff some landing of the sweeps' fold would have. DESIGN.md, "Placement
// follows the fields", has the argument in full.

// placementGate: a check tries the retained placement when the routed check
// before it placed at most 1/placementGate of the forwarding (field, switch)
// pairs anew. Fitted on the distribution in DESIGN.md, "Placement follows the
// fields".
const placementGate = 4

// placementBudget: a re-placement gives up, and the sweeps run, once it has
// re-placed more than 1/placementBudget of the forwarding switches.
const placementBudget = 2

// retained is the bookkeeping of the retained placement (traversal.pl).
type retained struct {
	ok       bool        // the slab holds the placement of every kept field, and the loads its totals
	wrapped  bool        // the group number wrapped since the sweeps began a placement
	ds       *demand.Set // … of this demand set
	split    SplitMode   // … under this split
	seedSrc  []int32     // per demand: the switch it was seeded at, -1 when it was not
	seedRate []float64   // … and its rate then

	// The gate: of the forwarding (field, switch) pairs of the placement, how
	// many the check that made it placed anew.
	replaced, carrying int

	// Parking. After two closed readings in a row the sweeps keep nothing —
	// they run as if no mask were kept, so a fabric whose gate never opens
	// pays for nothing — for park placements; then one keeps again to bring
	// the slab up to date and the next measures, hold counting the two. Each
	// time that measurement reads closed the park is twice as long as the
	// last; an open reading, or an answer from the placement, ends the
	// doubling.
	closed, parked bool
	park, hold     int
	backoff        int

	// Per circuit, whether it ends over its bound under the loads, and how
	// many do; kept for an unfunneled bound and scale.
	over         []bool
	nOver        int
	overOK       bool
	theta, scale float64

	// Re-placement: per switch, the group number while it is dirty; a mask as
	// it was before it was rebuilt; the loads touched, once each; and for the
	// field under way its runs of the slab and its group number, the level
	// being drained (dirtying a switch at or above it gives up) and the budget.
	dirty         []uint16
	oldHops       []uint64
	touched       []touchedLoad
	touchedBits   []uint64
	dist          []int32
	per, flow     []float64
	stamp         []uint16
	group         uint16
	sets          []uint64
	valid         []uint8
	dst, level    int32
	budget, spent int
	wcmp, abandon bool
}

// touchedLoad is a directional load a re-placement touched: its index, the
// switch it leaves from and the bit of that switch's mask that carries it.
type touchedLoad struct{ li, from, bit int32 }

// beginPlacement starts a placement by the sweeps, which retains nothing until
// it completes. It returns the bookkeeping to record the demands' seeds in when
// the sweeps write a placement worth keeping — one batch, masks kept, not
// parked — and nil otherwise; with more than one batch they keep nothing.
func (e *Evaluator) beginPlacement(ds *demand.Set, split SplitMode, single bool) *retained {
	pl := &e.trav.pl
	closed := pl.replaced*placementGate > pl.carrying
	pl.ok, pl.overOK, pl.wrapped = false, false, false
	pl.replaced, pl.carrying = 0, 0
	if pl.parked = !single || pl.parks(closed); pl.parked || e.trav.perK == nil {
		return nil
	}
	pl.ds, pl.split = ds, split
	if n := len(ds.Demands); cap(pl.seedSrc) < n {
		pl.seedSrc, pl.seedRate = make([]int32, n), make([]float64, n)
	}
	pl.seedSrc, pl.seedRate = pl.seedSrc[:len(ds.Demands)], pl.seedRate[:len(ds.Demands)]
	return pl
}

// parks reports whether the sweeps about to run keep nothing, given whether
// the placement before them read the gate closed.
func (pl *retained) parks(closed bool) bool {
	switch {
	case pl.park > 0:
		pl.park--
		return true
	case pl.hold > 0: // keeping again after a park: the readings so far span it
		pl.hold--
		pl.closed = true
		return false
	case closed && pl.closed:
		pl.backoff = max(1, 2*pl.backoff)
		pl.park, pl.hold = pl.backoff-1, 2
		return true
	}
	pl.closed = closed
	if !closed {
		pl.backoff = 0
	}
	return false
}

// placeRetained answers the check from the retained placement, brought up to
// date, when the placement is of this demand set and split, the gate is open,
// every demand is reachable, the re-placement stays within its budget and no
// circuit ends over its bound: pending, and Result for Evaluate. Otherwise ok
// is false and the caller runs the sweeps.
func (e *Evaluator) placeRetained(v *topo.View, ds *demand.Set, dsts []topo.SwitchID, byDst [][]int32, opts CheckOpts, theta float64, res *Result, pending Violation) (viol Violation, ok bool) {
	tr := &e.trav
	pl := &tr.pl
	if !pl.ok || pl.ds != ds || pl.split != opts.Split || len(pl.seedSrc) != len(ds.Demands) ||
		pl.replaced*placementGate > pl.carrying {
		return Violation{}, false
	}
	defer func() {
		if ok {
			e.PlacementRepairs++
			pl.closed, pl.backoff = false, 0
		} else {
			e.PlacementFallbacks++
		}
	}()
	swActive, _ := v.Activity()
	for gi, group := range byDst {
		dist := tr.fields[gi]
		for _, di := range group {
			if src := ds.Demands[di].Src; dist == nil || !swActive[src] || dist[src] == 0 {
				return Violation{}, false
			}
		}
	}
	if pl.dirty == nil {
		pl.dirty = make([]uint16, len(e.ports))
		pl.touchedBits = make([]uint64, (len(e.load)+63)/64)
	}
	pl.wcmp = pl.split == SplitCapacityWeighted
	pl.budget, pl.spent, pl.abandon = pl.carrying/placementBudget, 0, false
	pl.touched = pl.touched[:0]
	for k := 0; k < len(tr.live) && !pl.abandon; k++ { // every destination is active: field k is group k
		e.replaceField(k, dsts[k], byDst[k], ds)
	}
	e.SwitchesReplaced += pl.spent
	pl.replaced = pl.spent
	if pl.abandon {
		tr.levels.drain()
		for _, t := range pl.touched {
			pl.touchedBits[t.li>>6] = 0
		}
		return Violation{}, false
	}
	e.resum()
	if e.overCount(opts, theta) > 0 {
		return Violation{}, false
	}
	if res != nil {
		e.fillResult(v, opts.Scale(), res)
	}
	return pending, true
}

// replaceField re-places what changed of field k's placement.
func (e *Evaluator) replaceField(k int, dst topo.SwitchID, group []int32, ds *demand.Set) {
	tr := &e.trav
	pl := &tr.pl
	n := len(e.ports)
	pl.dst, pl.dist, pl.level = int32(dst), tr.live[k], math.MaxInt32
	pl.per, pl.valid = tr.perK[k*n:(k+1)*n], tr.hopValid[k*n:(k+1)*n]
	if pl.wcmp {
		pl.flow = tr.flowK[k*n : (k+1)*n]
	}
	pl.stamp, pl.group = tr.stampK[k*n:(k+1)*n], tr.groupK[k]
	pl.sets = tr.hopSets[k*len(e.upBits) : (k+1)*len(e.upBits)]

	// Seeds, summed per source in the scratch stamps as the sweep's seed sums
	// them, and compared demand by demand with the placement's.
	if e.beginGroup(-1); !pl.ok {
		pl.abandon = true // the group number wrapped, and the placement went with it
		return
	}
	for _, di := range group {
		d := &ds.Demands[di]
		if tr.stamp[d.Src] != tr.group {
			tr.stamp[d.Src], tr.flow[d.Src] = tr.group, 0
		}
		tr.flow[d.Src] += d.Rate
		if src := int32(d.Src); pl.seedSrc[di] != src || math.Float64bits(pl.seedRate[di]) != math.Float64bits(d.Rate) {
			if old := pl.seedSrc[di]; old >= 0 {
				e.dirty(old)
			}
			e.dirty(src)
			pl.seedSrc[di], pl.seedRate[di] = src, d.Rate
		}
	}
	for x, s := range pl.stamp { // forwarding switches whose next hops were outdated
		if s == pl.group && pl.valid[x] == 0 {
			e.dirty(int32(x))
		}
	}
	q := &tr.levels
	for len(q.active) > 0 && !pl.abandon {
		lv := q.active[len(q.active)-1]
		q.active = q.active[:len(q.active)-1]
		pl.level = lv.d
		for _, x := range lv.sw {
			if e.replaceSwitch(x); pl.abandon {
				break
			}
		}
		q.release(lv)
	}
}

// dirty queues switch x for re-placement in the field under way, once, at its
// distance; a switch no longer reachable at the top, ahead of every level, as
// it forwards nothing whatever its senders do. A switch that turns dirty at or
// above a level being drained below the top, whose senders may have been
// passed already, makes the re-placement give up.
func (e *Evaluator) dirty(x int32) {
	tr := &e.trav
	pl := &tr.pl
	if pl.dirty[x] == tr.group {
		return
	}
	pl.dirty[x] = tr.group
	d := pl.dist[x]
	if d == 0 {
		d = math.MaxInt32
	}
	if d >= pl.level && pl.level < math.MaxInt32 {
		pl.abandon = true
		return
	}
	tr.levels.add(d, x)
}

// replaceSwitch places switch x's flow in the field under way as the sweep
// would and, when its placement changed, dirties its old and new next hops
// and touches the loads over them.
func (e *Evaluator) replaceSwitch(x int32) {
	tr := &e.trav
	pl := &tr.pl
	if x == pl.dst {
		return // never forwards
	}
	if pl.spent++; pl.spent > pl.budget {
		pl.abandon = true
		return
	}
	dist, per, flowK, stamp, wcmp := pl.dist, pl.per, pl.flow, pl.stamp, pl.wcmp
	lo, hi := e.wordOff[x], e.wordOff[x+1]
	arcs := e.arcs[e.arcOff[x]:e.arcOff[x+1]]
	words, sets := e.upBits[lo:hi], pl.sets[lo:hi]

	// Inflow: the seeds, then the senders' shares in adjacency order.
	f, d := 0.0, dist[x]
	if d != 0 {
		if tr.stamp[x] == tr.group {
			f = tr.flow[x]
		}
		for i, bw := range words {
			for ; bw != 0; bw &= bw - 1 {
				a := &arcs[i<<6+bits.TrailingZeros64(bw)]
				if w := a.other; dist[w] == d+a.metric && stamp[w] == pl.group {
					share := per[w]
					if wcmp {
						share = flowK[w] * e.caps[a.li>>1] / share
					}
					f += share
				}
			}
		}
	}
	oldCarry, newCarry := stamp[x] == pl.group, f != 0

	// Next hops: read back, or found and kept, the old ones saved first.
	rebuilt, hopsChanged := newCarry && pl.valid[x] == 0, false
	if rebuilt {
		pl.oldHops = append(pl.oldHops[:0], sets...)
		for i, bw := range words {
			e.SweepArcTests += bits.OnesCount64(bw)
			var h uint64
			for ; bw != 0; bw &= bw - 1 {
				if j := bits.TrailingZeros64(bw); arcs[i<<6+j].nextHop(dist, d) {
					h |= 1 << j
				}
			}
			sets[i] = h
			hopsChanged = hopsChanged || h != pl.oldHops[i]
		}
		pl.valid[x] = 1
		e.HopSetsBuilt++
	} else if newCarry {
		e.HopSetsReused++
	}
	p := 0.0
	if newCarry {
		for i, h := range sets {
			for ; h != 0; h &= h - 1 {
				if wcmp {
					p += e.caps[arcs[i<<6+bits.TrailingZeros64(h)].li>>1]
				} else {
					p++
				}
			}
		}
		if p == 0 {
			panic("routing: internal error: flow stranded at switch with no next hop")
		}
		if !wcmp {
			p = f / p
		}
	}
	if oldCarry == newCarry && (!newCarry || !hopsChanged && math.Float64bits(per[x]) == math.Float64bits(p) &&
		(!wcmp || math.Float64bits(flowK[x]) == math.Float64bits(f))) {
		return
	}

	// Changed: the old next hops lose what x sent them, the new ones gain it.
	switch {
	case oldCarry && rebuilt:
		e.spread(x, lo, arcs, pl.oldHops)
		e.spread(x, lo, arcs, sets)
	case oldCarry || newCarry:
		e.spread(x, lo, arcs, sets)
	}
	if !newCarry {
		stamp[x] = 0
		pl.carrying--
		return
	}
	if !oldCarry {
		pl.carrying++
	}
	per[x], stamp[x] = p, pl.group
	if wcmp {
		flowK[x] = f
	}
}

// spread dirties the switches hops leads x to and touches the loads over them.
func (e *Evaluator) spread(x, lo int32, arcs []arc, hops []uint64) {
	pl := &e.trav.pl
	for i, h := range hops {
		for ; h != 0; h &= h - 1 {
			j := bits.TrailingZeros64(h)
			a := &arcs[i<<6+j]
			e.dirty(a.other)
			if li := a.li; pl.touchedBits[li>>6]>>(li&63)&1 == 0 {
				pl.touchedBits[li>>6] |= 1 << (li & 63)
				pl.touched = append(pl.touched, touchedLoad{li: li, from: x, bit: (lo+int32(i))<<6 + int32(j)})
			}
		}
	}
}

// resum sums every touched load again over the fields in ascending order:
// each field in which its switch forwards over it adds that switch's share.
func (e *Evaluator) resum() {
	tr := &e.trav
	n, words := len(e.ports), len(e.upBits)
	for _, t := range tr.pl.touched {
		s, from := 0.0, int(t.from)
		for k := range tr.live {
			if tr.stampK[k*n+from] == tr.groupK[k] && tr.hopSets[k*words+int(t.bit>>6)]>>(t.bit&63)&1 != 0 {
				share := tr.perK[k*n+from]
				if tr.pl.wcmp {
					share = tr.flowK[k*n+from] * e.caps[t.li>>1] / share
				}
				s += share
			}
		}
		e.load[t.li] = s
		tr.pl.touchedBits[t.li>>6] = 0
	}
	e.LoadsResummed += len(tr.pl.touched)
}

// overCount returns how many circuits end over their bound under the loads:
// re-tested where a load was touched, or everywhere unless the flags were
// kept for this bound and scale, unfunneled.
func (e *Evaluator) overCount(opts CheckOpts, theta float64) int {
	pl := &e.trav.pl
	scale := opts.Scale()
	over := func(c int32) bool {
		bound := theta
		if e.funnelSet && e.funnel[c] {
			bound = theta / opts.FunnelFactor
		}
		return (e.load[2*c]+e.load[2*c+1])*scale/e.caps[c] > bound
	}
	if pl.overOK && !e.funnelSet && pl.theta == theta && pl.scale == scale {
		for _, t := range pl.touched {
			if c := t.li >> 1; over(c) != pl.over[c] {
				if pl.over[c] = !pl.over[c]; pl.over[c] {
					pl.nOver++
				} else {
					pl.nOver--
				}
			}
		}
		return pl.nOver
	}
	if pl.over == nil {
		pl.over = make([]bool, len(e.caps))
	}
	pl.overOK, pl.theta, pl.scale, pl.nOver = !e.funnelSet, theta, scale, 0
	for c := range pl.over {
		if pl.over[c] = over(int32(c)); pl.over[c] {
			pl.nOver++
		}
	}
	return pl.nOver
}
