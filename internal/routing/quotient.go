package routing

import (
	"math"
	"slices"
	"sync"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// The lifted check. A Quotient is an equitable partition of a topology's
// switches — every member of a class has, for every circuit colour and every
// class, as many circuits of that colour into that class as any other member —
// that respects the colours its caller gives. The caller colours whatever a
// view may set apart: the block that operates an element and its base
// activity, so that every view a planner reaches is constant on every class,
// and each demand endpoint by its own identity, so that sources and
// destinations are singletons. Capacity, metric and port budget are colours
// too. Then metric distances to a destination are constant on each class, so
// is a switch's next-hop count, and, by induction over the distance levels
// from the farthest source inward, so is the flow a switch forwards and the
// load every circuit of one circuit class carries in each direction. Routing
// one representative per class, with each quotient arc weighted by its
// multiplicity, yields the load every member carries.
//
// The quotient's float sums multiply where the fabric's add, and group terms
// differently, so they may differ from the fabric's in the last ulps. Check
// therefore answers only where no circuit class lies within a relative
// liftMargin of its bound, and says when it is not sure; the caller then asks
// the full evaluator. Reachability and the port budgets are integer answers
// and need no margin.

// liftMargin is the relative distance from its bound within which a circuit
// class's utilization leaves Check unsure: the lane's cutMargin, orders of
// magnitude above the float error of either placement.
const liftMargin = 1e-9

// Quotient routes one representative per class of an equitable partition of
// a topology (NewQuotient). Its distance fields come from the evaluator's
// engine (traverse.go), run over the partition's adjacency: the classes are
// its switches and the circuit classes between two classes its circuits.
// Between checks the engine keeps the fields of the last check's destinations
// and, while they stay the same, repairs them around the classes that flipped
// instead of traversing again, under the evaluator's cut-over and budget.
// Beside each field the quotient keeps the next-hop list of every class a
// sweep visited with the list's weight under the split mode of the last check
// that swept, read back while the engine's validity byte for it stands. It
// also keeps a load ceiling per circuit class for the last check's θ and
// demand scale, so that a sweep tests each load as it grows and the check ends
// at the first class surely over its bound. It is not safe for concurrent use.
type Quotient struct {
	partition
	engine // a fork of the partition's adjacency

	// Stats counters for the lifetime of the quotient, beside the engine's
	// (BFSes, FieldRepairs, ArcVisits, …).
	Checks         int // number of Check calls
	HopListsBuilt  int // next-hop lists the sweeps built, one scan of a class's arcs each
	HopListsReused int // … and retained ones they read back instead

	// Check scratch, allocated on the first check.
	active []bool          // per class: its representative's activity
	up     []bool          // per circuit class: its representative circuit's up state
	funnel []bool          // per circuit class
	dstCls []topo.SwitchID // the check's destinations as classes

	// ceil is, per circuit class, the load ceiling θ·(1+liftMargin)·cap/scale
	// for the θ and demand scale it was last computed for, ceilTheta and
	// ceilScale: the circuit class is surely over its bound once the loads of
	// its two directions together pass it. During a check each funnel class
	// holds its ceiling at θ/FunnelFactor instead.
	ceil                 []float64
	ceilTheta, ceilScale float64

	// Beside field f of the engine, the next hops of class x are
	// hops[f·len(arcs)+arcOff[x]:][:hopLen[f·len(rep)+x]], in arc order, and
	// their weight is hopW[f·len(rep)+x] — Σ mult under ECMP, Σ mult·cap under
	// WCMP (hopWCMP), summed in that order. The engine's validity byte
	// hopValid[f·len(rep)+x] says whether that list stands for field f, the up
	// state and the split mode as they are.
	hops    []hop
	hopLen  []int32
	hopW    []float64
	hopWCMP bool
}

// partition is what a quotient derives from its topology's structure and the
// colours alone: the classes, the circuit classes and the adjacency over
// classes. Checks only read it, so every quotient of one build shares it.
type partition struct {
	classOf   []int32    // per switch: its class
	rep       []int32    // per class: its lowest-numbered member
	tight     [][2]int32 // (class, port budget) of every class whose members have more circuits than ports
	ckClassOf []int32    // per circuit: its circuit class
	ckSize    []int32    // per circuit class: its members
	ckEnds    []int32    // per circuit class: its representative's circuit and endpoints, three entries each

	// adj is the adjacency over classes in the engine's form, with no up
	// state: the arcs of class x, one per circuit class between x and another
	// class, and the circuit classes' capacities. It carries no port budget;
	// portsFit answers that. Every quotient forks it. The loops of class x are
	// loops[loopOff[x]:loopOff[x+1]], one per circuit class within x. A loop
	// never carries flow — both ends lie at one distance — and counts only
	// toward the port budget.
	adj     engine
	loopOff []int32
	loops   []arc

	// By directional index li (arc.li): the circuits of the class at each
	// member of the sending class. mult[li^1] is the arc's back-multiplicity,
	// mult[li]·|sender|/|receiver|.
	mult []float64
}

// hop is a next hop kept beside a field: the directional index of its quotient
// arc and the class at the arc's far end.
type hop struct{ li, other int32 }

// NewQuotient returns the coarsest equitable partition of t's switches that
// refines the colouring swColour, with circuits coloured by ckColour. Both
// are caller-given non-negative integers; a circuit's class is its colour and
// the classes of its two endpoints.
//
// Refinement is 1-WL colour refinement: each round, a switch's new class is
// its class together with the multiset of (circuit colour, neighbour class)
// pairs over its circuits, hashed commutatively and numbered densely in order
// of first appearance. It stops when a round splits no class. A hash collision
// could only merge classes, so the result is verified afterwards: every
// member's multiset of circuit classes must equal its representative's, and
// NewQuotient returns false when one does not. It also returns false when the
// colours do not fit the topology.
//
// quota caps the circuit classes: NewQuotient returns false when the partition
// would have more than quota of them, and finds out early. Refinement only
// splits classes, so the number of distinct (colour, lower class, higher
// class) keys the circuits make under a round's classes never falls from one
// round to the next, and under the last round's it is the number of circuit
// classes; the build declines as soon as a round's count passes quota. A
// caller that wants the partition whatever its size passes t.NumCircuits().
//
// t's shape (topo.Shape) keeps two builds, each with the colours and quota it
// was made for, compared exactly: the first the shape saw and the latest. A
// replan after an outage clones the topology and changes only activity, and a
// replan returns to the pristine colouring when no outage is in force or
// repeats the latest outage set; a declined build is kept like any other. On
// a match NewQuotient returns the kept partition with fresh check state and
// zeroed counters, which answers every check as a fresh build would: the
// partition is a function of the structure, the colours and the quota, and
// checks only read it.
func NewQuotient(t *topo.Topology, swColour, ckColour []int32, quota int) (*Quotient, bool) {
	n, m := t.NumSwitches(), t.NumCircuits()
	if len(swColour) != n || len(ckColour) != m || n == 0 {
		return nil, false
	}
	for _, c := range swColour {
		if c < 0 {
			return nil, false
		}
	}
	for _, c := range ckColour {
		if c < 0 {
			return nil, false
		}
	}
	kept := t.Shape().Derived(quotientsKey{}, func() any { return new(quotients) }).(*quotients)
	if b := kept.find(swColour, ckColour, quota); b != nil {
		return b.fork()
	}
	b := &build{swColour: slices.Clone(swColour), ckColour: slices.Clone(ckColour), quota: quota}
	if cls, nc, ok := refine(t, swColour, ckColour, quota); ok {
		b.p, b.ok = partitioned(t, cls, nc, ckColour, quota)
	}
	kept.keep(b)
	return b.fork()
}

// quotientsKey keys a shape's quotients on it.
type quotientsKey struct{}

// quotients is what a shape keeps of NewQuotient's builds: the first and the
// latest.
type quotients struct {
	mu            sync.Mutex
	first, latest *build
}

// build is one NewQuotient build: its colours and quota, and its partition
// when it did not decline.
type build struct {
	swColour, ckColour []int32
	quota              int
	p                  partition
	ok                 bool
}

// find returns the kept build for the colours and the quota, or nil.
func (qs *quotients) find(swColour, ckColour []int32, quota int) *build {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	for _, b := range [...]*build{qs.first, qs.latest} {
		if b != nil && b.quota == quota && slices.Equal(b.swColour, swColour) && slices.Equal(b.ckColour, ckColour) {
			return b
		}
	}
	return nil
}

// keep makes b the latest build, and the first when there is none.
func (qs *quotients) keep(b *build) {
	qs.mu.Lock()
	defer qs.mu.Unlock()
	if qs.first == nil {
		qs.first = b
	}
	qs.latest = b
}

// fork returns a quotient of the build's partition with fresh check state,
// and false when the build declined.
func (b *build) fork() (*Quotient, bool) {
	if !b.ok {
		return nil, false
	}
	return &Quotient{partition: b.p, engine: b.p.adj.fork()}, true
}

// refine returns the classes of colour refinement and their number, and false
// as soon as a round's classes make more than quota circuit keys.
func refine(t *topo.Topology, swColour, ckColour []int32, quota int) ([]int32, int, bool) {
	n := t.NumSwitches()
	// The far end of every circuit of every switch, in one flat run aligned
	// with the switches' circuit lists.
	far := make([]int32, 0, 2*t.NumCircuits())
	for s := 0; s < n; s++ {
		for _, c := range t.Switch(topo.SwitchID(s)).Circuits() {
			o := t.Circuit(c).A
			if o == topo.SwitchID(s) {
				o = t.Circuit(c).B
			}
			far = append(far, int32(o))
		}
	}
	var tab, keys pairTable
	cls := make([]int32, n)
	next := make([]int32, n)
	for s, c := range swColour {
		cls[s] = tab.id(uint64(c), 0)
	}
	for k := tab.n; ; k = tab.n {
		tab.reset()
		i := 0
		for s := range next {
			var h uint64
			for _, c := range t.Switch(topo.SwitchID(s)).Circuits() {
				h += mix64(uint64(ckColour[c])<<32 | uint64(cls[far[i]]))
				i++
			}
			next[s] = tab.id(uint64(cls[s]), h)
		}
		cls, next = next, cls
		if tab.n == k {
			return cls, int(k), true
		}
		if !keysFit(t, cls, ckColour, quota, &keys) {
			return nil, 0, false
		}
	}
}

// keysFit reports whether the circuits make at most quota distinct (colour,
// lower class, higher class) keys under the switch classes cls, counting in
// keys and stopping at the first key past quota.
func keysFit(t *topo.Topology, cls, ckColour []int32, quota int, keys *pairTable) bool {
	keys.reset()
	for c, colour := range ckColour {
		ck := t.Circuit(topo.CircuitID(c))
		x, y := cls[ck.A], cls[ck.B]
		keys.id(uint64(colour), uint64(min(x, y))<<32|uint64(max(x, y)))
		if int(keys.n) > quota {
			return false
		}
	}
	return true
}

// partitioned builds the partition of t over the switch classes cls,
// numbered 0..nc-1, and reports false when it is not equitable or has more
// than quota circuit classes.
func partitioned(t *topo.Topology, cls []int32, nc int, ckColour []int32, quota int) (partition, bool) {
	m := t.NumCircuits()
	q := &partition{classOf: cls, rep: make([]int32, nc)}
	for i := range q.rep {
		q.rep[i] = -1
	}
	for s, x := range cls {
		if q.rep[x] < 0 {
			q.rep[x] = int32(s)
			// Only a class with more circuits than ports can ever be over.
			if sw := t.Switch(topo.SwitchID(s)); sw.Ports > 0 && len(sw.Circuits()) > sw.Ports {
				q.tight = append(q.tight, [2]int32{x, int32(sw.Ports)})
			}
		}
	}

	// Circuit classes: (lower endpoint class, higher endpoint class, colour),
	// numbered in that order. Three stable counting sorts, colour first, line
	// the circuits up by key, and the classes are the runs.
	ends := func(c int32) (x, y int32) {
		ck := t.Circuit(topo.CircuitID(c))
		x, y = cls[ck.A], cls[ck.B]
		return min(x, y), max(x, y)
	}
	colours := int32(0)
	for _, c := range ckColour {
		colours = max(colours, c+1)
	}
	order, buf := make([]int32, m), make([]int32, m)
	for c := range order {
		order[c] = int32(c)
	}
	cnt := make([]int32, max(nc, int(colours))+1)
	for _, key := range []func(c int32) int32{
		func(c int32) int32 { return ckColour[c] },
		func(c int32) int32 { _, y := ends(c); return y },
		func(c int32) int32 { x, _ := ends(c); return x },
	} {
		clear(cnt)
		for _, c := range order {
			cnt[key(c)+1]++
		}
		for i := 1; i < len(cnt); i++ {
			cnt[i] += cnt[i-1]
		}
		for _, c := range order {
			k := key(c)
			buf[cnt[k]] = c
			cnt[k]++
		}
		order, buf = buf, order
	}
	q.ckClassOf = buf // the spare run, no longer read
	ncc := int32(0)
	for i, c := range order {
		if i > 0 {
			p := order[i-1]
			px, py := ends(p)
			if x, y := ends(c); x != px || y != py || ckColour[c] != ckColour[p] {
				ncc++
			}
		}
		q.ckClassOf[c] = ncc
	}
	if m > 0 {
		ncc++
	}
	if int(ncc) > quota {
		return partition{}, false
	}
	q.ckSize = make([]int32, ncc)
	q.ckEnds = make([]int32, 3*ncc)
	q.adj.caps = make([]float64, ncc)
	for c, k := range q.ckClassOf {
		if q.ckSize[k] == 0 {
			ck := t.Circuit(topo.CircuitID(c))
			q.ckEnds[3*k], q.ckEnds[3*k+1], q.ckEnds[3*k+2] = int32(c), int32(ck.A), int32(ck.B)
			q.adj.caps[k] = ck.Capacity
		}
		q.ckSize[k]++
	}
	if !q.equitable(t) {
		return partition{}, false
	}
	q.buildArcs(t)
	return *q, true
}

// equitable reports whether every switch has its representative's multiset
// of circuit classes. A circuit class fixes the far end's class, so this is
// the partition's equitability over (circuit colour, neighbour class) pairs.
// cnt holds the representative's counts while its members are compared, each
// member decrementing and then restoring them.
func (q *partition) equitable(t *topo.Topology) bool {
	cnt := make([]int32, len(q.ckSize))
	// Members in class order: a counting sort.
	start := make([]int32, len(q.rep)+1)
	for _, x := range q.classOf {
		start[x+1]++
	}
	for x := range q.rep {
		start[x+1] += start[x]
	}
	order := make([]int32, len(q.classOf))
	fill := append([]int32(nil), start[:len(q.rep)]...)
	for s, x := range q.classOf {
		order[fill[x]] = int32(s)
		fill[x]++
	}
	for x, r := range q.rep {
		rc := t.Switch(topo.SwitchID(r)).Circuits()
		for _, c := range rc {
			cnt[q.ckClassOf[c]]++
		}
		for _, s := range order[start[x]+1 : start[x+1]] {
			sc := t.Switch(topo.SwitchID(s)).Circuits()
			if len(sc) != len(rc) {
				return false
			}
			fits := true
			for _, c := range sc {
				k := q.ckClassOf[c]
				cnt[k]--
				fits = fits && cnt[k] >= 0
			}
			for _, c := range sc {
				cnt[q.ckClassOf[c]]++
			}
			if !fits {
				return false
			}
		}
		for _, c := range rc {
			cnt[q.ckClassOf[c]] = 0
		}
	}
	return true
}

// buildArcs lays out the quotient adjacency from each representative's
// circuits: per circuit class incident to it, one arc (or loop) whose
// multiplicity is how many of the representative's circuits are in it.
func (q *partition) buildArcs(t *topo.Topology) {
	nc := len(q.rep)
	mult := make([]float64, 2*len(q.ckSize))
	adj := &q.adj
	adj.arcOff = make([]int32, nc+1)
	adj.wordOff = make([]int32, nc+1)
	adj.ports = make([]int32, nc)
	q.loopOff = make([]int32, nc+1)
	loops := 0
	for k := range q.ckSize {
		if e := q.ckEnds[3*k+1:]; q.classOf[e[0]] == q.classOf[e[1]] {
			loops++
		}
	}
	adj.arcs = make([]arc, 0, 2*(len(q.ckSize)-loops))
	q.loops = make([]arc, 0, loops)
	for x, r := range q.rep {
		for _, c := range t.Switch(topo.SwitchID(r)).Circuits() {
			k := q.ckClassOf[c]
			o := q.classOf[t.Circuit(c).Other(topo.SwitchID(r))]
			li := 2 * k
			if o < int32(x) {
				li++
			}
			if mult[li] == 0 {
				a := arc{other: o, metric: t.Circuit(c).Metric, li: li}
				if o == int32(x) {
					q.loops = append(q.loops, a)
				} else {
					adj.arcs = append(adj.arcs, a)
				}
			}
			mult[li]++
		}
		adj.arcOff[x+1] = int32(len(adj.arcs))
		adj.wordOff[x+1] = adj.wordOff[x] + (adj.arcOff[x+1]-adj.arcOff[x]+63)/64
		q.loopOff[x+1] = int32(len(q.loops))
	}
	q.mult = mult
}

// ClassOf returns the class of switch s.
func (q *Quotient) ClassOf(s topo.SwitchID) int32 { return q.classOf[s] }

// CircuitClassOf returns the circuit class of circuit c.
func (q *Quotient) CircuitClassOf(c topo.CircuitID) int32 { return q.ckClassOf[c] }

// Classes returns the number of switch classes and of circuit classes.
func (q *Quotient) Classes() (switches, circuits int) { return len(q.rep), len(q.ckSize) }

// CircuitClasses returns the circuit classes the circuits cs make up, and
// false when they are not a union of whole classes. Duplicates in cs count
// once.
func (q *Quotient) CircuitClasses(cs []topo.CircuitID) ([]int32, bool) {
	seen := make([]uint64, (len(q.ckClassOf)+63)/64)
	cnt := make([]int32, len(q.ckSize))
	var out []int32
	for _, c := range cs {
		if seen[c>>6]>>(c&63)&1 != 0 {
			continue
		}
		seen[c>>6] |= 1 << (c & 63)
		k := q.ckClassOf[c]
		if cnt[k] == 0 {
			out = append(out, k)
		}
		cnt[k]++
	}
	for _, k := range out {
		if cnt[k] != q.ckSize[k] {
			return nil, false
		}
	}
	return out, true
}

// Check answers what Evaluator.Check's OK would for the view, the demands and
// the options, routing the quotient instead of the fabric, and reports
// whether it is sure. funnel lists the circuit classes held to
// Theta/FunnelFactor when the factor is above 1 (CircuitClasses);
// opts.FunnelCircuits is not read. It is not sure, and the caller must ask
// the full evaluator, when the demands have more than 64 destinations or a
// rate that is negative or not finite, and when a circuit class's utilization
// lies within a relative liftMargin of its bound. The answer is exact only
// when the view is constant on every class and every demand endpoint is a
// class of its own; Check takes both from the caller's colours and verifies
// neither.
//
// The destinations' distance fields come from the engine (batchDistances),
// repaired or traversed over classes as the evaluator's are over switches.
// Then one sweep per destination group, in ascending group order, places the
// group's flow from the farthest source class inward. A class at distance d
// splits its inflow over the up arcs toward distance d − metric: by the
// multiplicities under ECMP, by multiplicity × capacity under WCMP. Each
// circuit of the arc's class carries one share, and each member of the far
// class receives back-multiplicity shares. Loads only grow, so the check ends
// at the first share that takes a circuit class's two directions together
// over its ceiling; otherwise a final pass holds every up circuit class's
// utilization to its bound and margins.
func (q *Quotient) Check(v *topo.View, ds *demand.Set, opts CheckOpts, funnel []int32) (ok, sure bool) {
	q.Checks++
	theta := opts.Theta
	if theta <= 0 {
		theta = 0.75
	}
	scale := opts.Scale()
	q.setCeilings(theta, scale)
	dsts, byDst := ds.DestinationIndex()
	if len(dsts) > batchWidth {
		return false, false
	}
	for i := range ds.Demands {
		d := &ds.Demands[i]
		if !(d.Rate >= 0) || math.IsInf(d.Rate, 1) {
			return false, false
		}
	}
	q.sync(v)
	if !q.portsFit() {
		return false, true
	}

	// Nothing routes to an inactive destination. Like a port rejection, this
	// leaves the kept fields as they are, and the engine's marks say how far
	// behind.
	q.dstCls = q.dstCls[:0]
	for _, dst := range dsts {
		x := q.classOf[dst]
		if !q.active[x] {
			return false, true
		}
		q.dstCls = append(q.dstCls, topo.SwitchID(x))
	}
	fields := q.batchDistances(q.active, q.dstCls)
	wcmp := opts.Split == SplitCapacityWeighted
	q.keepHops(wcmp)

	if opts.FunnelFactor > 1 {
		b := theta / opts.FunnelFactor
		for _, k := range funnel {
			q.funnel[k] = true
			q.ceil[k] = q.ceiling(b, k, scale)
		}
		defer func() {
			for _, k := range funnel {
				q.funnel[k] = false
				q.ceil[k] = q.ceiling(theta, k, scale)
			}
		}()
	}
	bound := func(k int32) float64 {
		if q.funnel[k] && opts.FunnelFactor > 1 {
			return theta / opts.FunnelFactor
		}
		return theta
	}
	clear(q.load)
	for gi, group := range byDst {
		field := fields[gi]
		q.beginGroup()
		for _, di := range group {
			d := &ds.Demands[di]
			x := q.classOf[d.Src]
			if !q.active[x] || field[x] == 0 {
				return false, true // unreachable
			}
			q.seed(field, topo.SwitchID(x), d.Rate)
		}
		if q.sweep(gi, field, q.dstCls[gi], wcmp) {
			return false, true
		}
	}
	sure = true
	for k := range q.caps {
		if !q.up[k] {
			continue
		}
		b := bound(int32(k))
		if util := (q.load[2*k] + q.load[2*k+1]) * scale / q.caps[k]; !(util <= b*(1-liftMargin)) {
			if util > b*(1+liftMargin) {
				return false, true
			}
			sure = false // within the margin, or not a number
		}
	}
	return sure, sure
}

// ceiling returns circuit class k's load ceiling under the bound b and the
// demand scale.
func (q *Quotient) ceiling(b float64, k int32, scale float64) float64 {
	return b * (1 + liftMargin) * q.caps[k] / scale
}

// setCeilings brings every circuit class's ceiling to θ and the demand scale,
// allocating them on the first call; it recomputes them only when either
// changed.
func (q *Quotient) setCeilings(theta, scale float64) {
	if q.ceil != nil && theta == q.ceilTheta && scale == q.ceilScale {
		return
	}
	if q.ceil == nil {
		q.ceil = make([]float64, len(q.caps))
	}
	q.ceilTheta, q.ceilScale = theta, scale
	for k := range q.ceil {
		q.ceil[k] = q.ceiling(theta, int32(k), scale)
	}
}

// sync reads the up state of the view off the representatives and brings the
// engine's in step with it, allocating the check scratch on the first call.
func (q *Quotient) sync(v *topo.View) {
	if q.active == nil {
		q.active = make([]bool, len(q.rep))
		q.up = make([]bool, len(q.ckSize))
		q.funnel = make([]bool, len(q.ckSize))
	}
	sw, ck := v.Activity()
	for x, r := range q.rep {
		q.active[x] = sw[r]
	}
	for k := range q.up {
		e := q.ckEnds[3*k : 3*k+3]
		q.up[k] = ck[e[0]] && sw[e[1]] && sw[e[2]]
	}
	q.syncUp(q.active, q.up, q.circuitEnds)
}

// circuitEnds returns the classes at the two ends of circuit class k.
func (q *Quotient) circuitEnds(k int) (x, y int32) {
	e := q.ckEnds[3*k+1 : 3*k+3]
	return q.classOf[e[0]], q.classOf[e[1]]
}

// portsFit reports whether every active class's up-degree — its up arcs and
// loops weighted by multiplicity — is within its port budget.
func (q *Quotient) portsFit() bool {
	for _, xp := range q.tight {
		x, p := xp[0], xp[1]
		if !q.active[x] {
			continue
		}
		deg := 0.0
		for _, a := range q.arcs[q.arcOff[x]:q.arcOff[x+1]] {
			if q.up[a.li>>1] {
				deg += q.mult[a.li]
			}
		}
		for _, a := range q.loops[q.loopOff[x]:q.loopOff[x+1]] {
			if q.up[a.li>>1] {
				deg += q.mult[a.li]
			}
		}
		if deg > float64(p) {
			return false
		}
	}
	return true
}

// keepHops gives the next-hop lists room beside the engine's fields, with the
// validity bytes, on the first check and whenever the fields grew; otherwise
// it drops every list when the split mode changed, since the kept weights are
// sums under the other.
func (q *Quotient) keepHops(wcmp bool) {
	tr := &q.trav
	if tr.hopValid == nil {
		nc := len(q.rep)
		tr.hopValid = make([]uint8, len(tr.dist))
		q.hops = make([]hop, len(tr.dist)/nc*len(q.arcs))
		q.hopLen = make([]int32, len(tr.dist))
		q.hopW = make([]float64, len(tr.dist))
	} else if wcmp != q.hopWCMP {
		clear(tr.hopValid)
	}
	q.hopWCMP = wcmp
}

// sweep places the seeded flow of the current group over field, the group's
// field fi, toward the destination class dc, farthest level first, adding
// each circuit class's per-circuit share to its directional load. It reports
// whether a share took a circuit class's two directions together over its
// ceiling, and stops there: that class is surely over its bound. The next
// hops of a class and their weight are its retained list where that is valid;
// where it is not, one scan of the class's arcs finds the hops, sums their
// weight in arc order and keeps both, so every float sum is the one a scan
// would make.
func (q *Quotient) sweep(fi int, field []int32, dc topo.SwitchID, wcmp bool) (over bool) {
	arcs, off, up, mult, caps, ceil := q.arcs, q.arcOff, q.up, q.mult, q.caps, q.ceil
	tr := &q.trav
	flow, stamp, load, group := tr.flow, tr.stamp, q.load, tr.group
	nc, na := len(q.rep), len(arcs)
	hops := q.hops[fi*na : (fi+1)*na]
	hopLen, hopW, valid := q.hopLen[fi*nc:(fi+1)*nc], q.hopW[fi*nc:(fi+1)*nc], tr.hopValid[fi*nc:(fi+1)*nc]
	built, reused := 0, 0
	lq := &tr.levels
	for len(lq.active) > 0 && !over {
		top := len(lq.active) - 1
		lv := lq.active[top]
		lq.active = lq.active[:top]
		var next *level
	classes:
		for _, x := range lv.sw {
			f := flow[x]
			if f == 0 || x == int32(dc) {
				continue
			}
			lo := off[x]
			if valid[x] != 0 {
				reused++
			} else {
				dx, n, weight := field[x], lo, 0.0
				for _, a := range arcs[lo:off[x+1]] {
					if a.nextHop(field, dx) && up[a.li>>1] {
						hops[n] = hop{a.li, a.other}
						n++
						if wcmp {
							weight += mult[a.li] * caps[a.li>>1]
						} else {
							weight += mult[a.li]
						}
					}
				}
				hopLen[x], hopW[x], valid[x] = n-lo, weight, 1
				built++
			}
			weight := hopW[x]
			if weight == 0 {
				panic("routing: internal error: lifted flow stranded at a class with no next hop")
			}
			share := f / weight // per circuit of the class, under ECMP
			for _, h := range hops[lo : lo+hopLen[x]] {
				if wcmp {
					share = f * caps[h.li>>1] / weight
				}
				load[h.li] += share
				w := h.other
				if stamp[w] != group {
					stamp[w] = group
					flow[w] = 0
					if d := field[w]; next == nil || next.d != d {
						next = lq.at(d)
					}
					next.sw = append(next.sw, w)
				}
				flow[w] += share * mult[h.li^1]
				if load[h.li]+load[h.li^1] > ceil[h.li>>1] {
					over = true
					break classes
				}
			}
		}
		lq.release(lv)
	}
	q.HopListsBuilt += built
	q.HopListsReused += reused
	return over
}

// mix64 is the splitmix64 finalizer: the per-pair hash whose sum is a
// switch's refinement signature.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// pairTable numbers distinct key pairs densely in order of first appearance:
// an open-addressed table that doubles when half full, so it holds a few
// entries per class and nothing per switch.
type pairTable struct {
	keys [][2]uint64
	ids  []int32 // id+1; 0 is empty
	n    int32
}

func (p *pairTable) reset() {
	clear(p.ids)
	p.n = 0
}

func (p *pairTable) id(a, b uint64) int32 {
	if 2*(int(p.n)+1) > len(p.ids) {
		p.grow()
	}
	mask := uint64(len(p.ids) - 1)
	for i := mix64(a^mix64(b)) & mask; ; i = (i + 1) & mask {
		if p.ids[i] == 0 {
			p.keys[i] = [2]uint64{a, b}
			p.n++
			p.ids[i] = p.n
			return p.n - 1
		}
		if p.keys[i] == [2]uint64{a, b} {
			return p.ids[i] - 1
		}
	}
}

func (p *pairTable) grow() {
	keys, ids := p.keys, p.ids
	size := max(64, 2*len(ids))
	p.keys, p.ids = make([][2]uint64, size), make([]int32, size)
	mask := uint64(size - 1)
	for j, id := range ids {
		if id == 0 {
			continue
		}
		k := keys[j]
		i := mix64(k[0]^mix64(k[1])) & mask
		for p.ids[i] != 0 {
			i = (i + 1) & mask
		}
		p.keys[i], p.ids[i] = k, id
	}
}
