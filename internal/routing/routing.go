// Package routing evaluates traffic placement on datacenter topologies.
//
// Klotski checks the safety of every intermediate network state a migration
// plan passes through (paper Eq. 4–6): every demand must have a path, and
// no circuit's utilization may exceed a bound θ. Following the paper (§5),
// the model is macro-scale: traffic is placed with equal-cost multi-path
// (ECMP) routing over hop-shortest paths, splitting equally at every hop,
// and only aggregate per-circuit load is tracked — no queueing or
// micro-scale congestion.
//
// Cost model. Demands are grouped by destination (typically tens of groups
// even when the set has hundreds of entries), and a full check does three
// things (traverse.go):
//
//  1. brings the up state in step with the view: one bit per arc in each
//     switch's adjacency order, plus, per switch, whether every arc is up
//     and whether the switch is over its port budget. The evaluator keeps
//     its own copy of the activity flags that state was derived from and
//     compares the view's flags against it by content, so the work is a
//     flag comparison plus a rebuild of the switches the difference
//     reaches — on a planner lane, where consecutive checks differ by one
//     block, about 2 % of a large fabric — and no caller has to say which
//     view it is passing or what changed in it. The port constraint is
//     answered from the same pass. No per-circuit or per-switch flag is
//     tested again after it, and an evaluator (or fork) owns |arcs|/8 bytes
//     of mask rather than a copy of the arcs;
//  2. brings every group's distance field up to date. The fields of the
//     previous check are still in the batch scratch, and when this check
//     asks for the same active destinations and step 1 rebuilt no more than
//     a sixteenth of the fabric in between, they are repaired in place: the
//     arcs that flipped all lie between two rebuilt switches, so per field
//     the entries that lost their last tight arc to a standing parent are
//     un-set in ascending distance, tight children following, and labels
//     are then relaxed outward from the arcs that came up and from the
//     un-set entries' best standing neighbours. Distances are integers, so
//     the repaired field equals the recomputed one entry for entry and
//     nothing downstream can tell which ran. On a planner lane of a large
//     fabric nine routed checks in ten are served this way, rewriting about
//     one field entry in a hundred and testing a ninth of the arcs a
//     traversal visits; a repair that finds itself moving much of a field
//     gives up at half a traversal's arc count. Otherwise — first check,
//     another destination list, a far jump, a small fabric where one block
//     is a tenth of the switches — every field is computed in ONE
//     bit-parallel traversal per batch of up to 64 destinations: a switch's
//     arcs are scanned once per distinct distance at which any destination
//     of the batch settles it, all riding in a 64-bit mask. On a Clos fabric
//     most destinations reach a given switch at one of two or three
//     distances, so the scan count is a small multiple of |arcs| instead of
//     |D_dst|·|arcs| (suite E × 0.25, 14 groups: 29 k arc visits per check
//     against 135 k for one search per destination). A switch with every arc
//     up — seven visits in ten on that fabric — is scanned by ranging over
//     its static arcs in place; only a switch with a down arc is scanned
//     through its mask. Same arcs, same order;
//  3. places each group's flow with a sweep that visits only the switches
//     carrying that group's flow, farthest first. A visited switch adds up
//     what its upstream neighbours marked for it — each of them, when it was
//     visited, set the bit of the arc it forwards over in the receiver's own
//     words — then divides the sum over its next hops and marks those in
//     turn, so placing flow looks at the arcs that carry it and at no others.
//     Which arcs of a switch are next hops is a function of (the group's
//     distance field, the up state) alone, the two things steps 1 and 2
//     already keep and bring up to date in place, so the check keeps that
//     too: one mask per (field, switch), found by one scan of the switch's up
//     arcs the first time the switch carries the group's flow and read back
//     afterwards. The masks are dropped by the code that outdates them and by
//     nothing else: a traversal drops the batch's, the repair drops those of
//     the switches step 1 rebuilt and, per field, those of the neighbours of
//     every entry it writes. The masks are allocated by the first check that
//     finds its fields kept from the one before, so an evaluator whose checks
//     all traverse — a small fabric, a fork's first check — holds none and
//     stores nothing.
//
// One engine, two sweeps. Steps 1 and 2 are the distance-field engine
// (traverse.go: the up-state diff and rebuild, the traversal, the field
// repair and its policy), and the package has no other. A lifted check
// (quotient.go) runs the same engine over the quotient of the fabric instead:
// one representative per class of an equitable partition whose colours every
// view a planner reaches respects, the classes as the engine's switches and
// the circuit classes between two classes as its circuits. Per check it reads
// the activity of every class and circuit class off the representatives and
// hands those flags to the engine, which repairs or traverses the fields as
// it does for the evaluator, under the same cut-over and budget. Only step 3
// is the quotient's own, because its arithmetic differs: its sweep pushes
// each class's inflow over its next hops weighted by multiplicity, reading
// back each class's next-hop list and the list's weight where the engine's
// validity byte for it stands, and tests each share it adds against a
// per-circuit-class load ceiling, θ·(1+margin)·capacity/scale, kept between
// checks; the check ends at the first class over it. Its cost is that of the
// full steps over a fabric as small as the quotient: on suite E × 0.25 the
// 1 236 switches and 11 672 directed arcs become 429 classes and 2 556
// quotient arcs, at × 1 the 10 028 switches and 142 592 arcs become 738 and
// 4 800. Building the partition costs O(circuits) per refinement round, five
// rounds on suite E (the last splits nothing), about 1.4 ms at × 0.25 and 13
// ms at × 1 on a 2-vCPU host. The quotient's float sums differ from the
// fabric's in the last ulps, so it says when a circuit class lies too near its
// bound to be sure, and its caller then runs the full check.
//
// Summation-order contract. Every load the evaluator reports is a function
// of (adjacency order, up state, demands, distance field) and of nothing
// else — in particular not of the order in which a traversal happened to
// reach switches, nor of which other destinations shared its batch. The
// sweep guarantees it by construction: a switch's inflow is its seeded
// demand rates in demand order, plus the shares of its upstream neighbours
// in the switch's own adjacency order, whatever order they were marked in;
// each directional circuit load of a group is assigned exactly once; and
// totals are folded group by group in ascending destination order. This is
// what lets a check that repaired its fields and one that traversed, one that
// read its next hops back and one that scanned for them, on whatever
// evaluator and after whatever earlier views, report bitwise identical loads,
// and what makes the reported Violation a deterministic function of (view,
// demands, options).
package routing

import (
	"fmt"
	"math"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// ViolationKind classifies why a network state failed its safety check.
type ViolationKind uint8

// Violation kinds.
const (
	ViolationNone        ViolationKind = iota
	ViolationUnreachable               // a demand has no path (Eq. 4)
	ViolationUtilization               // a circuit exceeds the utilization bound (Eq. 5)
	ViolationPorts                     // a switch exceeds its port budget (Eq. 6)
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationNone:
		return "none"
	case ViolationUnreachable:
		return "unreachable demand"
	case ViolationUtilization:
		return "circuit over utilization bound"
	case ViolationPorts:
		return "switch over port budget"
	}
	return fmt.Sprintf("ViolationKind(%d)", uint8(k))
}

// Violation describes the first constraint failure found during a check.
// The zero value means "no violation".
type Violation struct {
	Kind    ViolationKind
	Circuit topo.CircuitID // for utilization violations
	Switch  topo.SwitchID  // for port violations
	Demand  demand.Demand  // for unreachable-demand violations
	Util    float64        // offending utilization, for utilization violations
}

// OK reports whether the violation is empty (the state passed).
func (v Violation) OK() bool { return v.Kind == ViolationNone }

func (v Violation) String() string {
	switch v.Kind {
	case ViolationNone:
		return "ok"
	case ViolationUnreachable:
		return fmt.Sprintf("unreachable: %s (%d -> %d)", v.Demand.Name, v.Demand.Src, v.Demand.Dst)
	case ViolationUtilization:
		return fmt.Sprintf("utilization %.3f on circuit %d", v.Util, v.Circuit)
	case ViolationPorts:
		return fmt.Sprintf("port budget exceeded on switch %d", v.Switch)
	}
	return v.Kind.String()
}

// SplitMode selects how traffic divides among equal-cost next hops.
type SplitMode uint8

const (
	// SplitEqual is plain ECMP: equal shares per next-hop circuit. The
	// paper's evaluation model (§5).
	SplitEqual SplitMode = iota

	// SplitCapacityWeighted divides flow proportionally to next-hop
	// circuit capacity (WCMP). This models the temporary routing
	// configurations operators install when parallel paths have
	// asymmetric capacity — the paper's §7.1 outage: equal ECMP across
	// HGRID v1 and v2 overloads the smaller generation.
	SplitCapacityWeighted
)

func (m SplitMode) String() string {
	if m == SplitCapacityWeighted {
		return "capacity-weighted"
	}
	return "equal"
}

// CheckOpts parameterizes a safety check.
type CheckOpts struct {
	// Theta is the maximum allowed circuit utilization (paper default 0.75).
	Theta float64

	// Split selects ECMP (default) or capacity-weighted WCMP splitting.
	Split SplitMode

	// FunnelFactor, when > 1, models transient traffic funneling (paper
	// §2.2, §7.2): circuits listed in FunnelCircuits are held to the
	// tighter bound Theta/FunnelFactor, leaving headroom for the moment
	// when sibling circuits drain asynchronously and traffic piles onto
	// the survivors. Zero or 1 disables the adjustment.
	FunnelFactor   float64
	FunnelCircuits []topo.CircuitID

	// DemandScale, when > 0 and ≠ 1, multiplies every demand rate at
	// comparison time — the time-indexed demand of paper §7.1: a boundary
	// state reached k steps into the migration is checked against
	// forecasted demand Forecast.ScaleAt(k) without materializing a scaled
	// Set per check. Scaling is applied to utilization comparisons and
	// reported loads only; reachability and port constraints are
	// rate-independent and unaffected. Zero means 1 (no scaling).
	DemandScale float64
}

// Scale returns the effective demand multiplier for the check: DemandScale,
// or 1 when that is zero (or negative).
func (o CheckOpts) Scale() float64 {
	if o.DemandScale <= 0 {
		return 1
	}
	return o.DemandScale
}

// Result summarizes a full (non-early-exit) evaluation of a network state.
type Result struct {
	MaxUtil        float64        // highest circuit utilization observed
	MaxUtilCircuit topo.CircuitID // circuit achieving MaxUtil
	PlacedMaxUtil  float64        // MaxUtil of the same loads at demand scale 1; equal to MaxUtil when the scale is 1
	MinResidual    float64        // lowest spare fraction (1 - util) over up circuits that carry load or could
	Unreachable    int            // number of demands with no path
	TotalLoad      float64        // sum of per-circuit loads (Tbps·hops)
}

// Evaluator computes ECMP traffic placement over views of one topology.
// It reuses internal buffers across calls and is therefore not safe for
// concurrent use; create one evaluator per goroutine with Fork or
// NewEvaluator.
type Evaluator struct {
	t *topo.Topology

	// The fabric's static adjacency, shared by forks, with the up state, the
	// retained distance fields and the directional loads of this evaluator
	// (traverse.go). The loads are cleared per call that places anything;
	// placed is false while they still hold an earlier call's values because
	// the most recent one was rejected on the port constraint before placing.
	engine
	placed bool

	// Per-circuit funneling flag for the current call; nil until a funneled
	// check asks for it.
	funnel    []bool
	funnelSet bool

	// Stats counters for the lifetime of the evaluator, beside the engine's
	// (BFSes, FieldRepairs, FieldEntriesRepaired, ArcVisits, ArcVisitsInPlace,
	// UpRebuilds).
	Checks        int // number of Check/Evaluate calls
	SweepArcTests int // arcs classified as next hop or not, while building next-hop masks
	HopSetsBuilt  int // next-hop masks the sweeps built, one scan of a switch's up arcs each
	HopSetsReused int // … and retained ones they read back instead
}

// NewEvaluator returns an evaluator for views over t: a Fork of the static
// adjacency t's shape keeps (topo.Shape), built at the shape's first
// NewEvaluator, with t as its topology. Every evaluator of one structure
// shares that adjacency and owns its check scratch, so a replan, an audit or
// a world over a clone pays for the scratch alone, and answers as an
// evaluator built from nothing would: the adjacency is a function of the
// structure, and checks only read it.
func NewEvaluator(t *topo.Topology) *Evaluator {
	base := t.Shape().Derived(adjacencyKey{}, func() any { return newAdjacency(t) }).(*Evaluator)
	e := base.Fork()
	e.t = t
	return e
}

// adjacencyKey keys the evaluator's static adjacency on a topology's shape.
type adjacencyKey struct{}

// newAdjacency returns an evaluator holding t's static adjacency, capacities
// and port budgets, and no topology or check scratch: the base NewEvaluator
// forks.
func newAdjacency(t *topo.Topology) *Evaluator {
	n, m := t.NumSwitches(), t.NumCircuits()
	e := &Evaluator{engine: engine{
		caps:    make([]float64, m),
		ports:   make([]int32, n),
		arcOff:  make([]int32, n+1),
		wordOff: make([]int32, n+1),
	}}
	for c := 0; c < m; c++ {
		e.caps[c] = t.Circuit(topo.CircuitID(c)).Capacity
	}
	for i := 0; i < n; i++ {
		s := t.Switch(topo.SwitchID(i))
		e.ports[i] = int32(s.Ports)
		deg := int32(len(s.Circuits()))
		e.arcOff[i+1] = e.arcOff[i] + deg
		e.wordOff[i+1] = e.wordOff[i] + (deg+63)/64
	}
	e.arcs = make([]arc, 0, e.arcOff[n])
	bitOf := make([]int32, 2*m) // by directional load index: the mask bit of the arc that carries it
	for i := 0; i < n; i++ {
		u := topo.SwitchID(i)
		for j, cid := range t.Switch(u).Circuits() {
			ck := t.Circuit(cid)
			dir := int32(0)
			if ck.B == u { // flow from u travels B→A
				dir = 1
			}
			e.arcs = append(e.arcs, arc{other: int32(ck.Other(u)), metric: ck.Metric, li: 2*int32(cid) + dir})
			bitOf[2*int32(cid)+dir] = e.wordOff[i]<<6 + int32(j)
		}
	}
	for i := range e.arcs {
		e.arcs[i].back = bitOf[e.arcs[i].li^1]
	}
	return e
}

// Fork returns an independent evaluator over the same topology that shares
// e's immutable precompute — the static CSR adjacency, its offsets, and the
// per-circuit capacities and per-switch port budgets — while owning fresh
// mutable scratch. A fork is safe to use
// concurrently with e and with other forks; it is the cheap way to stamp out
// per-worker evaluators, costing a handful of scratch allocations instead of
// an adjacency rebuild.
func (e *Evaluator) Fork() *Evaluator {
	return &Evaluator{t: e.t, engine: e.fork()}
}

// sync brings the engine's up state in step with the view.
func (e *Evaluator) sync(v *topo.View) {
	sw, ck := v.Activity()
	e.syncUp(sw, ck, e.circuitEnds)
}

// circuitEnds returns the endpoints of circuit c.
func (e *Evaluator) circuitEnds(c int) (a, b int32) {
	ck := e.t.Circuit(topo.CircuitID(c))
	return int32(ck.A), int32(ck.B)
}

// Check verifies the demand and port constraints on the view and returns
// the first violation found, exiting as early as possible. A zero Violation
// (Kind == ViolationNone) means the state is safe.
func (e *Evaluator) Check(v *topo.View, ds *demand.Set, opts CheckOpts) Violation {
	viol := e.run(v, ds, opts, true, nil)
	if checkHook != nil {
		checkHook(e, v, ds, opts, viol)
	}
	return viol
}

// checkHook, when set, is called with every Check and its answer. Tests set
// it to hold a planner's every routed check to a fresh evaluator's answer; it
// is nil otherwise.
var checkHook func(e *Evaluator, v *topo.View, ds *demand.Set, opts CheckOpts, viol Violation)

// CheckDelta is Check, touched sets ignored: bench/ still calls it (ROADMAP item 5(g) drops it).
func (e *Evaluator) CheckDelta(v *topo.View, _ []topo.SwitchID, _ []topo.CircuitID, ds *demand.Set, opts CheckOpts) Violation {
	return e.Check(v, ds, opts)
}

// CheckDemandDelta is Check, changed indices ignored: bench/ still calls it (ROADMAP item 5(g) drops it).
func (e *Evaluator) CheckDemandDelta(v *topo.View, _ []int32, ds *demand.Set, opts CheckOpts) Violation {
	return e.Check(v, ds, opts)
}

// Evaluate places all demands and returns aggregate statistics without
// early exit. Constraint violations are still detected: if the returned
// Violation is non-zero the Result fields describe the full placement
// anyway (useful for greedy baselines that rank states by residual
// capacity).
func (e *Evaluator) Evaluate(v *topo.View, ds *demand.Set, opts CheckOpts) (Result, Violation) {
	var res Result
	viol := e.run(v, ds, opts, false, &res)
	return res, viol
}

// CircuitLoad returns the directional loads placed on circuit c by the most
// recent Check or Evaluate call: zero when that call was a Check that
// rejected the view on the port constraint, which it does before placing
// anything. Valid until the next call.
func (e *Evaluator) CircuitLoad(c topo.CircuitID) (ab, ba float64) {
	if !e.placed {
		return 0, 0
	}
	return e.load[2*c], e.load[2*c+1]
}

func (e *Evaluator) run(v *topo.View, ds *demand.Set, opts CheckOpts, earlyExit bool, res *Result) Violation {
	e.Checks++
	theta := opts.Theta
	if theta <= 0 {
		theta = 0.75
	}

	// Bring the up arcs in step with the view; every traversal below reads
	// them. Port constraints (Eq. 6) fall out of the same pass: the number of
	// up circuits on a switch must not exceed its physical port budget.
	e.sync(v)
	pending := e.portViolation()
	e.placed = !earlyExit || pending.OK()
	if !e.placed {
		return pending
	}
	// Otherwise the first port violation is recorded but evaluation goes on,
	// so the caller still gets full placement statistics.
	return e.evalDemands(v, ds, opts, theta, earlyExit, res, pending)
}

func (e *Evaluator) evalDemands(v *topo.View, ds *demand.Set, opts CheckOpts, theta float64, earlyExit bool, res *Result, pending Violation) Violation {
	clear(e.load)
	e.setFunnel(opts)
	scale := opts.Scale()

	firstViol := pending
	record := func(viol Violation) bool {
		if firstViol.Kind == ViolationNone {
			firstViol = viol
		}
		return earlyExit
	}

	// Destination groups come from the prebuilt destination index, in
	// batches of up to batchWidth: one multi-destination traversal yields
	// every distance field of the batch, then each group is seeded, swept
	// and folded into the totals in ascending group order.
	swActive, _ := v.Activity()
	dsts, byDst := ds.DestinationIndex()
	for lo := 0; lo < len(dsts); lo += batchWidth {
		hi := min(lo+batchWidth, len(dsts))
		fields := e.batchDistances(swActive, dsts[lo:hi])
		live := 0 // the field under the sweep: the batch numbers its fields in order, inactive destinations left out
		for gi := lo; gi < hi; gi++ {
			group := byDst[gi]
			dist := fields[gi-lo]
			if dist == nil { // destination inactive: nothing routes to it
				for _, di := range group {
					if res != nil {
						res.Unreachable++
					}
					if record(Violation{Kind: ViolationUnreachable, Demand: ds.Demands[di]}) {
						return firstViol
					}
				}
				continue
			}

			e.beginGroup()
			for _, di := range group {
				d := ds.Demands[di]
				if !swActive[d.Src] || dist[d.Src] == 0 {
					if res != nil {
						res.Unreachable++
					}
					if record(Violation{Kind: ViolationUnreachable, Demand: d}) {
						return firstViol
					}
					continue
				}
				e.seed(dist, d.Src, d.Rate)
			}
			lis, vals := e.sweep(live, dist, dsts[gi], opts.Split)
			live++

			// Fold the group's contribution into the totals and check the
			// utilization bound on every circuit it loaded. A group loads a
			// circuit in one direction only and loads only grow, so checking
			// as each entry lands yields the same verdict as checking after
			// the whole fold.
			for j, li := range lis {
				e.load[li] += vals[j]
				cid := topo.CircuitID(li >> 1)
				util := (e.load[2*cid] + e.load[2*cid+1]) * scale / e.caps[cid]
				bound := theta
				if e.funnelSet && e.funnel[cid] {
					bound = theta / opts.FunnelFactor
				}
				if util > bound {
					record(Violation{Kind: ViolationUtilization, Circuit: cid, Util: util})
				}
			}
			if earlyExit && firstViol.Kind != ViolationNone {
				return firstViol
			}
		}
	}

	if res != nil {
		e.fillResult(v, scale, res)
	}
	return firstViol
}

// setFunnel populates the per-circuit funneling flags for this call.
func (e *Evaluator) setFunnel(opts CheckOpts) {
	if e.funnelSet {
		clear(e.funnel)
		e.funnelSet = false
	}
	if opts.FunnelFactor > 1 && len(opts.FunnelCircuits) > 0 {
		if e.funnel == nil {
			e.funnel = make([]bool, len(e.caps))
		}
		for _, c := range opts.FunnelCircuits {
			e.funnel[c] = true
		}
		e.funnelSet = true
	}
}

func (e *Evaluator) fillResult(v *topo.View, scale float64, res *Result) {
	t := e.t
	res.MinResidual = math.Inf(1)
	res.MaxUtilCircuit = topo.NoCircuit
	for c := 0; c < t.NumCircuits(); c++ {
		cid := topo.CircuitID(c)
		if !v.CircuitUp(cid) {
			continue
		}
		ck := t.Circuit(cid)
		load := (e.load[2*c] + e.load[2*c+1]) * scale
		util := load / ck.Capacity
		res.TotalLoad += load
		if util > res.MaxUtil {
			res.MaxUtil = util
			res.MaxUtilCircuit = cid
		}
		if resid := 1 - util; resid < res.MinResidual {
			res.MinResidual = resid
		}
		if scale != 1 {
			if u := (e.load[2*c] + e.load[2*c+1]) / ck.Capacity; u > res.PlacedMaxUtil {
				res.PlacedMaxUtil = u
			}
		}
	}
	if scale == 1 {
		res.PlacedMaxUtil = res.MaxUtil
	}
	if math.IsInf(res.MinResidual, 1) {
		res.MinResidual = 0
	}
}
