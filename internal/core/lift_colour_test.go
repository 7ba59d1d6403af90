package core

import (
	"testing"

	"klotski/internal/demand"
	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// diamond is the fabric of TestQuotientKeepsColours: one demand of rate 1
// from R to D over two parallel ways R – M1 – D and R – M2 – D, the circuits
// c0 R–M1, c1 R–M2, c2 M1–D, c3 M2–D in that order, all of capacity 1 and
// metric 1, with one drain and one undrain type and no block yet. ECMP puts
// 0.5 on every circuit: safe under θ = 0.75, and M1 and M2 are twins until
// a case sets one of them apart.
func diamond() (task *migration.Task, drain migration.ActionType, sw [4]topo.SwitchID, ck [4]topo.CircuitID) {
	tp := topo.New("diamond")
	for i, name := range []string{"R", "M1", "M2", "D"} {
		sw[i] = tp.AddSwitch(topo.Switch{Name: name})
	}
	ck[0] = tp.AddCircuit(sw[0], sw[1], 1)
	ck[1] = tp.AddCircuit(sw[0], sw[2], 1)
	ck[2] = tp.AddCircuit(sw[1], sw[3], 1)
	ck[3] = tp.AddCircuit(sw[2], sw[3], 1)
	task = &migration.Task{Name: "diamond", Topo: tp}
	drain = task.AddType(migration.ActionTypeInfo{Name: "drain", Op: migration.Drain})
	task.AddType(migration.ActionTypeInfo{Name: "undrain", Op: migration.Undrain})
	task.Demands.Add(demand.Demand{Name: "d", Src: sw[0], Dst: sw[3], Rate: 1})
	return task, drain, sw, ck
}

// TestQuotientKeepsColours builds pairs of switches or circuits that differ
// in one colour of the lifted check's partition alone — capacity, metric,
// operating block, base activity, port budget, funnel membership, endpoint
// identity — and
// requires the pair to land in different classes, with a lifted verdict equal
// to the full check's. Built without that colour, the partition merges the
// pair, and the lifted verdict is one the full check contradicts: each colour
// is needed. A pair that differs in funnel membership alone differs in a
// neighbour's block: without it the block's funnel set cuts a circuit class,
// which CircuitClasses must report, since lifting the classes the set covers
// whole contradicts the full check.
func TestQuotientKeepsColours(t *testing.T) {
	type pair struct {
		switches [2]topo.SwitchID
		circuits [2]topo.CircuitID
		isSwitch bool
	}
	type setup struct {
		task    *migration.Task
		applied []int // blocks applied to the view
		opts    Options
		funnel  int // the in-flight block of a funneled check, or -1
		pair    pair
	}
	cases := []struct {
		name  string
		drop  colourKind
		build func() setup
	}{
		{"capacity", colourCapacity, func() setup {
			task, _, _, ck := diamond()
			task.Topo.SetCapacity(ck[1], 0.6) // 0.5/0.6 > 0.75
			return setup{task: task, funnel: -1, pair: pair{circuits: [2]topo.CircuitID{ck[0], ck[1]}}}
		}},
		{"metric", colourMetric, func() setup {
			task, _, _, ck := diamond()
			task.Topo.SetMetric(ck[1], 2) // every share takes R – M1 – D
			return setup{task: task, funnel: -1, pair: pair{circuits: [2]topo.CircuitID{ck[0], ck[1]}}}
		}},
		{"switch block", colourBlock, func() setup {
			task, drain, sw, _ := diamond()
			b := task.AddBlock(migration.Block{Type: drain, Switches: []topo.SwitchID{sw[2]}})
			return setup{task: task, applied: []int{b}, funnel: -1, pair: pair{switches: [2]topo.SwitchID{sw[1], sw[2]}, isSwitch: true}}
		}},
		{"circuit block", colourBlock, func() setup {
			task, drain, _, ck := diamond()
			b := task.AddBlock(migration.Block{Type: drain, Circuits: []topo.CircuitID{ck[1]}})
			return setup{task: task, applied: []int{b}, funnel: -1, pair: pair{circuits: [2]topo.CircuitID{ck[0], ck[1]}}}
		}},
		{"port budget", colourPorts, func() setup {
			task, _, sw, _ := diamond()
			task.Topo.SetPorts(sw[2], 1) // M2 has two up circuits
			return setup{task: task, funnel: -1, pair: pair{switches: [2]topo.SwitchID{sw[1], sw[2]}, isSwitch: true}}
		}},
		{"switch base activity", colourBase, func() setup {
			task, _, sw, _ := diamond()
			task.Topo.SetSwitchActive(sw[2], false)
			return setup{task: task, funnel: -1, pair: pair{switches: [2]topo.SwitchID{sw[1], sw[2]}, isSwitch: true}}
		}},
		{"circuit base activity", colourBase, func() setup {
			task, _, _, ck := diamond()
			task.Topo.SetCircuitActive(ck[1], false)
			return setup{task: task, funnel: -1, pair: pair{circuits: [2]topo.CircuitID{ck[0], ck[1]}}}
		}},
		{"endpoint identity", colourEndpoint, func() setup {
			// R2 is R's twin and sources nothing: alone, R's rate puts 0.5
			// on M1 – D and M2 – D, utilization 0.42; merged, R2 would
			// send as much again, 0.83.
			task, _, sw, ck := diamond()
			tp := task.Topo
			r2 := tp.AddSwitch(topo.Switch{Name: "R2"})
			tp.AddCircuit(r2, sw[1], 1)
			tp.AddCircuit(r2, sw[2], 1)
			tp.SetCapacity(ck[2], 1.2)
			tp.SetCapacity(ck[3], 1.2)
			return setup{task: task, funnel: -1, pair: pair{switches: [2]topo.SwitchID{sw[0], r2}, isSwitch: true}}
		}},
		{"funnel membership", colourBlock, func() setup {
			// X1 hangs off M1 and X2 off M2; draining X2 holds M2's other
			// circuits, c1 among them, to θ/2 = 0.375.
			task, drain, sw, ck := diamond()
			tp := task.Topo
			x1 := tp.AddSwitch(topo.Switch{Name: "X1"})
			x2 := tp.AddSwitch(topo.Switch{Name: "X2"})
			tp.AddCircuit(sw[1], x1, 1)
			tp.AddCircuit(sw[2], x2, 1)
			b := task.AddBlock(migration.Block{Type: drain, Switches: []topo.SwitchID{x2}})
			return setup{task: task, applied: []int{b}, opts: Options{FunnelFactor: 2}, funnel: b,
				pair: pair{circuits: [2]topo.CircuitID{ck[0], ck[1]}}}
		}},
	}
	for _, c := range cases {
		s := c.build()
		if err := s.task.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		view := s.task.Topo.NewView()
		for _, b := range s.applied {
			s.task.Apply(view, b)
		}
		copts := routing.CheckOpts{Theta: s.opts.theta()}
		if s.funnel >= 0 {
			copts.FunnelFactor = s.opts.FunnelFactor
			copts.FunnelCircuits = funnelCircuits(s.task, s.funnel)
		}
		full := routing.NewEvaluator(s.task.Topo).Check(view, &s.task.Demands, copts).OK()

		for _, drop := range []colourKind{0, c.drop} {
			sw, ck := liftColours(s.task, drop)
			q, ok := routing.NewQuotient(s.task.Topo, sw, ck, s.task.Topo.NumCircuits())
			if !ok {
				t.Fatalf("%s (dropped %b): the build refused refinement's own partition", c.name, drop)
			}
			merged := q.CircuitClassOf(s.pair.circuits[0]) == q.CircuitClassOf(s.pair.circuits[1])
			if s.pair.isSwitch {
				merged = q.ClassOf(s.pair.switches[0]) == q.ClassOf(s.pair.switches[1])
			}
			funnel, whole := q.CircuitClasses(copts.FunnelCircuits)
			if !whole {
				// Lift the classes the set covers whole, as a check that did
				// not ask would.
				funnel = funnelCoveredWhole(q, s.task.Topo, copts.FunnelCircuits)
			}
			lifted, sure := q.Check(view, &s.task.Demands, copts, funnel)
			if drop == 0 {
				if merged || !whole || !sure || lifted != full {
					t.Errorf("%s: merged %v, funnel whole %v, lifted %v (sure %v), full %v; want apart, whole and agreeing", c.name, merged, whole, lifted, sure, full)
				}
				continue
			}
			if !merged || !sure || lifted == full || (s.funnel >= 0) == whole {
				t.Errorf("%s without its colour: merged %v, funnel whole %v, lifted %v (sure %v), full %v; want merged and contradicted", c.name, merged, whole, lifted, sure, full)
			}
		}
	}
}

// funnelCoveredWhole returns the circuit classes every member of which is in
// cs.
func funnelCoveredWhole(q *routing.Quotient, tp *topo.Topology, cs []topo.CircuitID) []int32 {
	in := map[topo.CircuitID]bool{}
	for _, c := range cs {
		in[c] = true
	}
	whole := map[int32]bool{}
	for c := 0; c < tp.NumCircuits(); c++ {
		k := q.CircuitClassOf(topo.CircuitID(c))
		if _, seen := whole[k]; !seen {
			whole[k] = true
		}
		whole[k] = whole[k] && in[topo.CircuitID(c)]
	}
	var out []int32
	for k := int32(0); int(k) < len(whole); k++ {
		if whole[k] {
			out = append(out, k)
		}
	}
	return out
}
