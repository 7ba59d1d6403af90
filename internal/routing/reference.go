package routing

import (
	"math"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// ReferenceLoads computes per-circuit traffic placement with a deliberately
// independent, obviously-correct algorithm: Bellman-Ford distances and
// memoized top-down flow recursion, no shared buffers, no versioned
// arrays, no early exits. It exists to cross-validate Evaluator in tests
// (see TestEvaluatorMatchesReference); production code uses Evaluator.
//
// The returned map holds total (both-direction) load per up circuit; the
// bool reports whether every demand was routable.
func ReferenceLoads(t *topo.Topology, v *topo.View, ds *demand.Set, split SplitMode) (map[topo.CircuitID]float64, bool) {
	loads := make(map[topo.CircuitID]float64)
	allRouted := true
	for _, d := range ds.Demands {
		if !v.SwitchActive(d.Src) || !v.SwitchActive(d.Dst) {
			allRouted = false
			continue
		}
		dist := bellmanFord(t, v, d.Dst)
		if math.IsInf(dist[d.Src], 1) {
			allRouted = false
			continue
		}
		// Memoized top-down: flow(u) splits among shortest next hops.
		memoShare := make(map[topo.SwitchID][]nextHop)
		var route func(u topo.SwitchID, f float64)
		route = func(u topo.SwitchID, f float64) {
			if u == d.Dst || f == 0 {
				return
			}
			hops, ok := memoShare[u]
			if !ok {
				hops = nextHops(t, v, dist, u, split)
				memoShare[u] = hops
			}
			total := 0.0
			for _, h := range hops {
				total += h.weight
			}
			for _, h := range hops {
				share := f * h.weight / total
				loads[h.circuit] += share
				route(h.to, share)
			}
		}
		route(d.Src, d.Rate)
	}
	return loads, allRouted
}

type nextHop struct {
	circuit topo.CircuitID
	to      topo.SwitchID
	weight  float64
}

func nextHops(t *topo.Topology, v *topo.View, dist []float64, u topo.SwitchID, split SplitMode) []nextHop {
	var hops []nextHop
	for _, cid := range t.Switch(u).Circuits() {
		if !v.CircuitUp(cid) {
			continue
		}
		ck := t.Circuit(cid)
		w := ck.Other(u)
		if dist[w] == dist[u]-float64(ck.Metric) {
			weight := 1.0
			if split == SplitCapacityWeighted {
				weight = ck.Capacity
			}
			hops = append(hops, nextHop{circuit: cid, to: w, weight: weight})
		}
	}
	return hops
}

// bellmanFord computes metric distances to dst by plain relaxation —
// O(V·E), slow, simple, and entirely unlike the production batched
// level-synchronous traversal.
func bellmanFord(t *topo.Topology, v *topo.View, dst topo.SwitchID) []float64 {
	n := t.NumSwitches()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[dst] = 0
	for round := 0; round < n; round++ {
		changed := false
		for c := 0; c < t.NumCircuits(); c++ {
			cid := topo.CircuitID(c)
			if !v.CircuitUp(cid) {
				continue
			}
			ck := t.Circuit(cid)
			m := float64(ck.Metric)
			if dist[ck.B]+m < dist[ck.A] {
				dist[ck.A] = dist[ck.B] + m
				changed = true
			}
			if dist[ck.A]+m < dist[ck.B] {
				dist[ck.B] = dist[ck.A] + m
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}
