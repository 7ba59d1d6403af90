package routing

import (
	"math/rand"
	"testing"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// TestQuotientRejectsNonEquitable hands the build partitions that merge
// switches whose circuits differ — in number, or in the classes at their far
// ends — and requires it to refuse them, while it accepts refinement's own.
// Without the check, a merged class would route its representative's circuits
// for every member.
func TestQuotientRejectsNonEquitable(t *testing.T) {
	// A path X – A – H – B – Y – Z, symmetric about its middle circuit.
	tp := topo.New("path")
	var s [6]topo.SwitchID
	for i, name := range []string{"X", "A", "H", "B", "Y", "Z"} {
		s[i] = tp.AddSwitch(topo.Switch{Name: name})
	}
	for i := 0; i+1 < len(s); i++ {
		tp.AddCircuit(s[i], s[i+1], 1)
	}
	ck := make([]int32, tp.NumCircuits())
	for _, c := range []struct {
		name string
		cls  []int32
		nc   int
	}{
		{"X merged with A (circuit counts)", []int32{0, 0, 1, 2, 3, 4}, 5},
		{"A merged with B (far ends)", []int32{0, 1, 2, 1, 3, 4}, 5},
		{"X with Z and A with Y, H and B apart (far ends)", []int32{0, 1, 2, 3, 1, 0}, 4},
	} {
		if _, ok := partitioned(tp, c.cls, c.nc, ck, tp.NumCircuits()); ok {
			t.Errorf("%s: the build accepted a partition that is not equitable", c.name)
		}
	}
	cls, nc, _ := refine(tp, make([]int32, tp.NumSwitches()), ck, tp.NumCircuits())
	p, ok := partitioned(tp, cls, nc, ck, tp.NumCircuits())
	if !ok {
		t.Fatal("the build refused refinement's own partition")
	}
	q := newQuotient(p)
	if sw, _ := q.Classes(); sw != 3 || q.ClassOf(s[0]) != q.ClassOf(s[5]) || q.ClassOf(s[1]) != q.ClassOf(s[4]) || q.ClassOf(s[2]) != q.ClassOf(s[3]) {
		t.Errorf("refinement of a path of six: %d classes %v, want X=Z, A=Y, H=B", sw, cls)
	}
}

// fuzzColours colours a fabric as a planner's lane does: a switch by its
// block, base activity and port budget, or alone when it is a demand endpoint;
// a circuit by its block, base activity, capacity and metric.
func fuzzColours(tp *topo.Topology, swBlock, ckBlock []int, ds *demand.Set) (sw, ck []int32) {
	type swKey struct {
		block, ports int
		base         bool
	}
	type ckKey struct {
		block    int
		base     bool
		capacity float64
		metric   int32
	}
	endpoint := make([]bool, tp.NumSwitches())
	for _, d := range ds.Demands {
		endpoint[d.Src], endpoint[d.Dst] = true, true
	}
	sws, cks := map[swKey]int32{}, map[ckKey]int32{}
	sw = make([]int32, tp.NumSwitches())
	next := int32(0)
	for i := range sw {
		id := topo.SwitchID(i)
		k := swKey{swBlock[i], tp.Switch(id).Ports, tp.SwitchActive(id)}
		c, seen := sws[k]
		switch {
		case endpoint[i]:
			c = next
			next++
		case !seen:
			c = next
			sws[k] = c
			next++
		}
		sw[i] = c
	}
	ck = make([]int32, tp.NumCircuits())
	for i := range ck {
		c := tp.Circuit(topo.CircuitID(i))
		k := ckKey{ckBlock[i], tp.CircuitActive(c.ID), c.Capacity, c.Metric}
		id, seen := cks[k]
		if !seen {
			id = int32(len(cks))
			cks[k] = id
		}
		ck[i] = id
	}
	return sw, ck
}

// planted is a random fabric with planted symmetry: copies of one random pod
// on shared spines, with random blocks, port budgets and base outages, laid
// out alike in every copy or drawn per element.
type planted struct {
	tp               *topo.Topology
	swBlock, ckBlock []int  // per element: the block that operates it, or -1
	drains           []bool // per block: whether it drains or undrains
	spines           []topo.SwitchID
}

// plant draws a planted fabric of the given number of pod copies. One fabric
// in three gives its switches port budgets.
func plant(rng *rand.Rand, copies int) *planted {
	tp := topo.New("planted")
	// Blocks, drain or undrain. In a symmetric draw every copy of a template
	// element has the template's block (one block operates the element in
	// every pod, as a plane's block does), port budget and base activity;
	// otherwise each element draws its own.
	nBlocks := 1 + rng.Intn(4)
	drains := make([]bool, nBlocks)
	for b := range drains {
		drains[b] = rng.Intn(2) == 0
	}
	symmetric := rng.Intn(4) != 0
	block := func() int {
		if rng.Intn(3) != 0 {
			return -1
		}
		return rng.Intn(nBlocks)
	}
	budget := 0
	if rng.Intn(3) == 0 {
		budget = 2 + rng.Intn(4)
	}
	ports := func() int {
		if rng.Intn(2) == 0 {
			return budget
		}
		return 0
	}
	var swBlock, ckBlock []int
	var swOut, ckOut []bool
	addSwitch := func(b, p int, out bool) topo.SwitchID {
		s := tp.AddSwitch(topo.Switch{Ports: p})
		swBlock, swOut = append(swBlock, b), append(swOut, out)
		return s
	}
	addCircuit := func(a, b topo.SwitchID, capacity float64, metric int32, blk int, out bool) {
		c := tp.AddCircuit(a, b, capacity)
		tp.SetMetric(c, metric)
		ckBlock, ckOut = append(ckBlock, blk), append(ckOut, out)
	}

	spines := make([]topo.SwitchID, 2+rng.Intn(2))
	for i := range spines {
		spines[i] = addSwitch(block(), ports(), false)
	}
	// The pod template: a chain of switches, random chords, an uplink from
	// every spine and random others, each circuit with a capacity and a
	// metric.
	type elem struct {
		a, b     int // pod switch, or -1-spine
		capacity float64
		metric   int32
		block    int
		ports    int
		out      bool
	}
	draw := func() elem {
		return elem{capacity: float64(1 + rng.Intn(3)), metric: int32(1 + rng.Intn(2)*rng.Intn(3)),
			block: block(), ports: ports(), out: rng.Intn(40) == 0}
	}
	podSize := 2 + rng.Intn(4)
	nodes := make([]elem, podSize)
	for i := range nodes {
		nodes[i] = draw()
	}
	var links []elem
	link := func(a, b int) {
		l := draw()
		l.a, l.b = a, b
		links = append(links, l)
	}
	for i := 1; i < podSize; i++ {
		link(i-1, i)
	}
	for i := 0; i < podSize; i++ {
		for j := i + 2; j < podSize; j++ {
			if rng.Intn(4) == 0 {
				link(i, j)
			}
		}
		for sp := range spines {
			if sp%podSize == i || rng.Intn(3) == 0 {
				link(i, -1-sp)
			}
		}
	}
	for p := 0; p < copies; p++ {
		pod := make([]topo.SwitchID, podSize)
		for i, e := range nodes {
			if !symmetric {
				e = draw()
			}
			pod[i] = addSwitch(e.block, e.ports, e.out)
		}
		for _, l := range links {
			b := spines[0]
			if l.b >= 0 {
				b = pod[l.b]
			} else {
				b = spines[-1-l.b]
			}
			if !symmetric {
				l.block, l.out = block(), rng.Intn(40) == 0
			}
			addCircuit(pod[l.a], b, l.capacity, l.metric, l.block, l.out)
		}
	}
	for s, b := range swBlock {
		if b >= 0 && !drains[b] || swOut[s] {
			tp.SetSwitchActive(topo.SwitchID(s), false)
		}
	}
	for c, b := range ckBlock {
		if b >= 0 && !drains[b] || ckOut[c] {
			tp.SetCircuitActive(topo.CircuitID(c), false)
		}
	}
	return &planted{tp: tp, swBlock: swBlock, ckBlock: ckBlock, drains: drains, spines: spines}
}

// demands draws one to six demands between endpoints that are mostly spines,
// so that the pods stay copies of one another and carry the flow between
// them.
func (p *planted) demands(rng *rand.Rand) demand.Set {
	endpoint := func() topo.SwitchID {
		if rng.Intn(4) != 0 {
			return p.spines[rng.Intn(len(p.spines))]
		}
		return topo.SwitchID(rng.Intn(p.tp.NumSwitches()))
	}
	var ds demand.Set
	for i := 1 + rng.Intn(6); i > 0; i-- {
		ds.Add(demand.Demand{Src: endpoint(), Dst: endpoint(), Rate: 0.1 + rng.Float64()})
	}
	return ds
}

// view returns the view the applied blocks reach.
func (p *planted) view(applied []bool) *topo.View {
	v := p.tp.NewView()
	for s, b := range p.swBlock {
		if b >= 0 && applied[b] {
			v.SetSwitchActive(topo.SwitchID(s), !p.drains[b])
		}
	}
	for c, b := range p.ckBlock {
		if b >= 0 && applied[b] {
			v.SetCircuitActive(topo.CircuitID(c), !p.drains[b])
		}
	}
	return v
}

// FuzzQuotientCheck plants symmetry in a random fabric (plant), with demands
// mostly between spines so that the copies carry the flow, and requires every
// verdict the lifted check is sure of to equal the full check's, over random
// views the blocks reach, under ECMP and WCMP, a demand scale and funneling.
// θ is drawn around the view's maximum utilization so that both verdicts, and
// the margin, occur.
func FuzzQuotientCheck(f *testing.F) {
	for _, seed := range []int64{1, 2, 15, 42, 46, 20261017} {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := plant(rng, 1+int(shape%4))
		tp := p.tp
		ds := p.demands(rng)

		sw, ck := fuzzColours(tp, p.swBlock, p.ckBlock, &ds)
		q, ok := NewQuotient(tp, sw, ck, tp.NumCircuits())
		if !ok {
			t.Fatal("the build refused refinement's own partition")
		}
		// A quota declines the build exactly when the partition has more
		// circuit classes than it allows.
		_, ncc := q.Classes()
		for _, quota := range []int{ncc - 1, ncc, rng.Intn(tp.NumCircuits() + 1)} {
			if _, ok := NewQuotient(tp, sw, ck, quota); ok != (ncc <= quota) {
				t.Fatalf("%d circuit classes: the build under a quota of %d returned %v", ncc, quota, ok)
			}
		}
		ev := NewEvaluator(tp)
		for trial := 0; trial < 12; trial++ {
			applied := make([]bool, len(p.drains))
			for b := range applied {
				applied[b] = rng.Intn(2) == 0
			}
			v := p.view(applied)
			opts := CheckOpts{Split: SplitMode(rng.Intn(2))}
			if rng.Intn(3) == 0 {
				opts.DemandScale = 0.5 + rng.Float64()
			}
			var funnel []int32
			if rng.Intn(3) == 0 {
				opts.FunnelFactor = 2
				for c := 0; c < tp.NumCircuits(); c++ {
					if k := q.CircuitClassOf(topo.CircuitID(c)); k%3 == int32(trial%3) {
						opts.FunnelCircuits = append(opts.FunnelCircuits, topo.CircuitID(c))
					}
				}
				var whole bool
				if funnel, whole = q.CircuitClasses(opts.FunnelCircuits); !whole {
					t.Fatal("a union of circuit classes is not one")
				}
			}
			probe := opts
			probe.Theta = 1
			res, _ := ev.Evaluate(v, &ds, probe)
			opts.Theta = res.MaxUtil * []float64{0.5, 0.9, 1, 1.1, 2}[rng.Intn(5)]
			if opts.Theta <= 0 {
				opts.Theta = 0.75
			}
			want := ev.Check(v, &ds, opts)
			got, sure := q.Check(v, &ds, opts, funnel)
			if sure && got != want.OK() {
				t.Fatalf("trial %d (θ %v, %v, scale %v, funnel %v): lifted %v, the full check %v", trial, opts.Theta, opts.Split, opts.DemandScale, opts.FunnelFactor, got, want)
			}
		}
	})
}

// FuzzQuotientRetained runs one long-lived quotient through a random script
// of views and requires it to answer every step as a quotient built afresh
// for that step does, and to keep exactly what a fresh one computes
// (retainedMismatch): after every step each ceiling is the step's, and after
// every step that reached the fields, each kept field equals a fresh
// traversal's, each next-hop list it holds valid equals a fresh scan of the
// class's arcs and its weight a fresh sum under the step's split mode, every
// load is the fresh one bit for bit, and at most one circuit class is over its
// ceiling. The script mixes one-block steps, multi-block jumps, re-checks of
// the same view, a destination going inactive for a step and coming back,
// port-rejected states between checks (every element up), and swaps between
// two demand sets so that the destinations change; each step draws its split
// mode and θ, and now and then a demand scale and a funnel set of whole
// circuit classes. Seed #6 is there for the sweep's ceiling test: with it
// holding one direction's load alone, seeds #4 and #6 see a check run on past
// its first class over.
func FuzzQuotientRetained(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 20261017, 10} {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		p := plant(rng, 1+int(shape%4))
		tp := p.tp
		sets := [2]demand.Set{p.demands(rng), p.demands(rng)}
		var both demand.Set
		for _, ds := range sets {
			for _, d := range ds.Demands {
				both.Add(d)
			}
		}
		// Every endpoint of either set is a class of its own.
		sw, ck := fuzzColours(tp, p.swBlock, p.ckBlock, &both)
		q, ok := NewQuotient(tp, sw, ck, tp.NumCircuits())
		if !ok {
			t.Fatal("the build refused refinement's own partition")
		}
		applied := make([]bool, len(p.drains))
		ds := &sets[0]
		for step := 0; step < 48; step++ {
			op := rng.Intn(8)
			switch op {
			case 0, 1, 2: // one block
				b := rng.Intn(len(applied))
				applied[b] = !applied[b]
			case 3: // a jump
				for b := range applied {
					applied[b] = rng.Intn(2) == 0
				}
			case 4: // swap the demand set
				if ds == &sets[0] {
					ds = &sets[1]
				} else {
					ds = &sets[0]
				}
			}
			v := p.view(applied)
			switch op {
			case 5: // a destination goes down for this step only
				v.SetSwitchActive(ds.Demands[rng.Intn(len(ds.Demands))].Dst, false)
			case 6: // every element up: over a port budget wherever one binds
				for s := 0; s < tp.NumSwitches(); s++ {
					v.SetSwitchActive(topo.SwitchID(s), true)
				}
				for c := 0; c < tp.NumCircuits(); c++ {
					v.SetCircuitActive(topo.CircuitID(c), true)
				}
			}
			opts := CheckOpts{Split: SplitMode(rng.Intn(2)), Theta: []float64{0.25, 0.5, 1, 2, 4}[rng.Intn(5)]}
			if rng.Intn(3) == 0 {
				opts.DemandScale = 0.5 + rng.Float64()
			}
			var funnel []int32
			if rng.Intn(3) == 0 {
				opts.FunnelFactor = 2
				for c := 0; c < tp.NumCircuits(); c++ {
					if k := q.CircuitClassOf(topo.CircuitID(c)); k%3 == int32(step%3) {
						opts.FunnelCircuits = append(opts.FunnelCircuits, topo.CircuitID(c))
					}
				}
				var whole bool
				if funnel, whole = q.CircuitClasses(opts.FunnelCircuits); !whole {
					t.Fatal("a union of circuit classes is not one")
				}
			}
			fresh, _ := NewQuotient(tp, sw, ck, tp.NumCircuits())
			wantOK, wantSure := fresh.Check(v, ds, opts, funnel)
			gotOK, gotSure := q.Check(v, ds, opts, funnel)
			if gotOK != wantOK || gotSure != wantSure {
				t.Fatalf("step %d (op %d): retained (%v, %v), fresh (%v, %v)", step, op, gotOK, gotSure, wantOK, wantSure)
			}
			if msg := q.retainedMismatch(fresh, opts, funnel); msg != "" {
				t.Fatalf("step %d (op %d): %s", step, op, msg)
			}
		}
	})
}
