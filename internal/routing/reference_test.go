package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// randomLayeredTopo builds a random 4-layer network: RSW sources, two
// middle layers, EBB sinks, with random extra edges, capacities, and
// metrics. Layered structure keeps the reference evaluator's recursion
// bounded while still exercising convergent/divergent ECMP DAGs.
func randomLayeredTopo(rng *rand.Rand) (*topo.Topology, []topo.SwitchID, []topo.SwitchID) {
	t := topo.New("rand")
	layers := [][]topo.SwitchID{}
	roles := []topo.Role{topo.RoleRSW, topo.RoleFSW, topo.RoleSSW, topo.RoleEBB}
	for li, role := range roles {
		n := 2 + rng.Intn(3)
		var layer []topo.SwitchID
		for i := 0; i < n; i++ {
			layer = append(layer, t.AddSwitch(topo.Switch{
				Name: role.String() + "-" + string(rune('a'+li)) + string(rune('0'+i)),
				Role: role,
			}))
		}
		layers = append(layers, layer)
	}
	// Wire consecutive layers: every node gets at least one uplink, plus
	// random extras with random capacity and occasional metric 2.
	for li := 0; li+1 < len(layers); li++ {
		for _, a := range layers[li] {
			up := layers[li+1][rng.Intn(len(layers[li+1]))]
			cid := t.AddCircuit(a, up, 1+4*rng.Float64())
			if rng.Intn(4) == 0 {
				t.SetMetric(cid, 2)
			}
			for _, b := range layers[li+1] {
				if b != up && rng.Intn(3) == 0 {
					cid := t.AddCircuit(a, b, 1+4*rng.Float64())
					if rng.Intn(4) == 0 {
						t.SetMetric(cid, 2)
					}
				}
			}
		}
	}
	return t, layers[0], layers[len(layers)-1]
}

// randomMeshTopo builds a seeded random connected fabric of n switches with
// the features the layered generator never produces: metrics drawn from a
// set that mixes unit, small and large (≥ 1000) values so that ties across
// different hop counts occur, parallel circuits between one pair of
// switches, and unequal capacities.
func randomMeshTopo(rng *rand.Rand, n int) (*topo.Topology, []topo.SwitchID) {
	t := topo.New("mesh")
	var sw []topo.SwitchID
	for i := 0; i < n; i++ {
		sw = append(sw, t.AddSwitch(topo.Switch{Name: fmt.Sprintf("s%d", i), Role: topo.RoleFSW}))
	}
	metrics := []int32{1, 1, 2, 3, 1000, 1000, 2000, 3000}
	wire := func(a, b topo.SwitchID) {
		c := t.AddCircuit(a, b, 1+7*rng.Float64())
		t.SetMetric(c, metrics[rng.Intn(len(metrics))])
		if rng.Intn(5) == 0 { // parallel circuit, same metric or not
			p := t.AddCircuit(a, b, 1+7*rng.Float64())
			if rng.Intn(2) == 0 {
				t.SetMetric(p, t.Circuit(c).Metric)
			}
		}
	}
	for i := 1; i < n; i++ { // random spanning tree keeps it connected
		wire(sw[i], sw[rng.Intn(i)])
	}
	for i := 0; i < n; i++ { // plus about one extra circuit per switch
		a, b := sw[rng.Intn(n)], sw[rng.Intn(n)]
		if a != b {
			wire(a, b)
		}
	}
	return t, sw
}

// randomFabric builds a random multi-layer fabric with rng: three tiers of
// switches wired tier-to-tier with random capacities and metrics, plus a
// few random port budgets.
func randomFabric(rng *rand.Rand) (*topo.Topology, []topo.SwitchID) {
	t := topo.New("rand")
	tiers := [][]topo.SwitchID{}
	roles := []topo.Role{topo.RoleRSW, topo.RoleFSW, topo.RoleSSW}
	for ti, role := range roles {
		n := 2 + rng.Intn(4)
		var tier []topo.SwitchID
		for i := 0; i < n; i++ {
			ports := 0
			if rng.Intn(4) == 0 {
				ports = 2 + rng.Intn(6)
			}
			tier = append(tier, t.AddSwitch(topo.Switch{
				Name:  fmt.Sprintf("t%d-%d", ti, i),
				Role:  role,
				Ports: ports,
			}))
		}
		tiers = append(tiers, tier)
	}
	var all []topo.SwitchID
	for _, tier := range tiers {
		all = append(all, tier...)
	}
	for ti := 0; ti+1 < len(tiers); ti++ {
		for _, a := range tiers[ti] {
			for _, b := range tiers[ti+1] {
				if rng.Float64() < 0.8 {
					c := t.AddCircuit(a, b, 5+rng.Float64()*20)
					if rng.Intn(3) == 0 {
						t.SetMetric(c, int32(1+rng.Intn(3)))
					}
				}
			}
		}
	}
	// A few same-tier cross links for path diversity.
	for _, tier := range tiers {
		for i := 0; i+1 < len(tier); i++ {
			if rng.Float64() < 0.3 {
				t.AddCircuit(tier[i], tier[i+1], 5+rng.Float64()*10)
			}
		}
	}
	return t, all
}

func randomDemands(rng *rand.Rand, sw []topo.SwitchID) demand.Set {
	var ds demand.Set
	n := 3 + rng.Intn(10)
	for i := 0; i < n; i++ {
		src := sw[rng.Intn(len(sw))]
		dst := sw[rng.Intn(len(sw))]
		if src == dst {
			continue
		}
		ds.Add(demand.Demand{
			Name: fmt.Sprintf("d%d", i),
			Src:  src,
			Dst:  dst,
			Rate: 0.5 + rng.Float64()*4,
		})
	}
	if ds.Len() == 0 {
		ds.Add(demand.Demand{Name: "d0", Src: sw[0], Dst: sw[len(sw)-1], Rate: 1})
	}
	return ds
}

// checkAgainstReference compares one full evaluation with ReferenceLoads.
func checkAgainstReference(t *testing.T, label string, tp *topo.Topology, view *topo.View, ds *demand.Set, split SplitMode) {
	t.Helper()
	want, routed := ReferenceLoads(tp, view, ds, split)
	eval := NewEvaluator(tp)
	_, viol := eval.Evaluate(view, ds, CheckOpts{Theta: 1e9, Split: split})
	gotRouted := viol.Kind != ViolationUnreachable
	if routed != gotRouted {
		t.Fatalf("%s split %v: routability disagreement (ref %v, eval %v: %v)",
			label, split, routed, gotRouted, viol)
	}
	for c := 0; c < tp.NumCircuits(); c++ {
		cid := topo.CircuitID(c)
		ab, ba := eval.CircuitLoad(cid)
		got := ab + ba
		if math.Abs(got-want[cid]) > 1e-9*(1+want[cid]) {
			t.Fatalf("%s split %v circuit %d: eval %v, reference %v",
				label, split, cid, got, want[cid])
		}
	}
}

// TestEvaluatorMatchesReference cross-validates the production evaluator
// (batched multi-destination traversal, level-ordered pull sweep, shared
// scratch) against the independent reference implementation (Bellman-Ford +
// memoized top-down recursion) on randomized layered topologies, random
// drains, and both splitting policies; then on random meshes with non-unit
// and large metrics, parallel circuits, drained sources and destinations,
// and more destination groups than one traversal batch carries; then on
// fabrics whose hubs have more circuits than one word of the up mask holds.
func TestEvaluatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 80; trial++ {
		tp, srcs, dsts := randomLayeredTopo(rng)
		view := tp.NewView()
		// Random drains (avoiding sources and sinks).
		for i := 0; i < tp.NumSwitches()/4; i++ {
			id := topo.SwitchID(rng.Intn(tp.NumSwitches()))
			if tp.Switch(id).Role == topo.RoleFSW || tp.Switch(id).Role == topo.RoleSSW {
				view.DrainSwitch(id)
			}
		}
		var ds demand.Set
		for i := 0; i < 1+rng.Intn(4); i++ {
			ds.Add(demand.Demand{
				Name: "d" + string(rune('0'+i)),
				Src:  srcs[rng.Intn(len(srcs))],
				Dst:  dsts[rng.Intn(len(dsts))],
				Rate: 0.5 + 2*rng.Float64(),
			})
		}
		for _, split := range []SplitMode{SplitEqual, SplitCapacityWeighted} {
			checkAgainstReference(t, fmt.Sprintf("layered trial %d", trial), tp, view, &ds, split)
		}
	}

	for trial := 0; trial < 24; trial++ {
		// Odd trials use enough switches for > batchWidth destination
		// groups, so the batch boundary is crossed.
		n := 10 + rng.Intn(14)
		if trial%2 == 1 {
			n = batchWidth + 8 + rng.Intn(16)
		}
		tp, sw := randomMeshTopo(rng, n)
		view := tp.NewView()
		for i := 0; i < n/8; i++ { // drains hit sources and destinations too
			view.DrainSwitch(sw[rng.Intn(n)])
		}
		for i := 0; i < n/6; i++ {
			view.DrainCircuit(topo.CircuitID(rng.Intn(tp.NumCircuits())))
		}
		var ds demand.Set
		add := func(src, dst topo.SwitchID) {
			if src != dst {
				ds.Add(demand.Demand{Name: fmt.Sprintf("d%d", ds.Len()), Src: src, Dst: dst, Rate: 0.5 + 2*rng.Float64()})
			}
		}
		if trial%2 == 1 {
			for _, dst := range sw { // one group per switch
				add(sw[rng.Intn(n)], dst)
			}
		}
		for i := 0; i < 6+rng.Intn(10); i++ {
			add(sw[rng.Intn(n)], sw[rng.Intn(n)])
		}
		if dsts, _ := ds.DestinationIndex(); trial%2 == 1 && len(dsts) <= batchWidth {
			t.Fatalf("mesh trial %d: %d destination groups do not cross the batch boundary", trial, len(dsts))
		}
		for _, split := range []SplitMode{SplitEqual, SplitCapacityWeighted} {
			checkAgainstReference(t, fmt.Sprintf("mesh trial %d", trial), tp, view, &ds, split)
		}
	}

	// Hubs with more than 64 and more than 128 circuits, so their up masks
	// span several words, with drains on both sides of every word boundary.
	for trial := 0; trial < 6; trial++ {
		tp, sw := randomMeshTopo(rng, 24)
		hubs := sw[:2]
		for hi, hub := range hubs {
			for len(tp.Switch(hub).Circuits()) < 70+70*hi {
				c := tp.AddCircuit(hub, sw[2+rng.Intn(len(sw)-2)], 1+7*rng.Float64())
				tp.SetMetric(c, int32(1+rng.Intn(3)))
			}
		}
		view := tp.NewView()
		for _, hub := range hubs {
			cks := tp.Switch(hub).Circuits()
			for _, j := range []int{0, 62, 63, 64, 65, 127, 128, len(cks) - 1} {
				if j < len(cks) && rng.Intn(2) == 0 {
					view.DrainCircuit(cks[j])
				}
			}
		}
		view.DrainSwitch(sw[2+rng.Intn(len(sw)-2)])
		var ds demand.Set
		for i := 0; i < 12; i++ {
			if src, dst := sw[rng.Intn(len(sw))], sw[rng.Intn(len(sw))]; src != dst {
				ds.Add(demand.Demand{Name: fmt.Sprintf("d%d", ds.Len()), Src: src, Dst: dst, Rate: 0.5 + 2*rng.Float64()})
			}
		}
		for _, split := range []SplitMode{SplitEqual, SplitCapacityWeighted} {
			checkAgainstReference(t, fmt.Sprintf("hub trial %d", trial), tp, view, &ds, split)
		}
	}
}

// TestGroupFoldMatchesReference holds the group-by-group fold of one reused
// evaluator, both split modes in turn, against the naive reference
// implementation on the small tier fabrics.
func TestGroupFoldMatchesReference(t *testing.T) {
	for seed := int64(100); seed < 106; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tp, sw := randomFabric(rng)
		ds := randomDemands(rng, sw)
		e := NewEvaluator(tp)
		v := tp.NewView()
		for _, split := range []SplitMode{SplitEqual, SplitCapacityWeighted} {
			_, viol := e.Evaluate(v, &ds, CheckOpts{Theta: 100, Split: split})
			want, routed := ReferenceLoads(tp, v, &ds, split)
			if routed != (viol.Kind != ViolationUnreachable) {
				t.Fatalf("seed %d split %v: routed=%v but viol=%v", seed, split, routed, viol)
			}
			for c, w := range want {
				ab, ba := e.CircuitLoad(c)
				if got := ab + ba; math.Abs(got-w) > 1e-6 {
					t.Fatalf("seed %d split %v circuit %d: load %v, want %v", seed, split, c, got, w)
				}
			}
		}
	}
}
