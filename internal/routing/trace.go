package routing

import (
	"fmt"
	"math/bits"
	"sort"

	"klotski/internal/topo"
)

// PathDAG is the ECMP forwarding structure of one (src, dst) pair on a
// given network state: every switch that lies on a metric-shortest path,
// with the circuits it forwards on. Operators use it to answer "where will
// this demand actually flow at step 7 of the plan?".
type PathDAG struct {
	Src, Dst topo.SwitchID

	// Cost is the metric distance from Src to Dst.
	Cost int32

	// NextHops maps each on-path switch to the circuits it uses toward
	// Dst, each entry sorted by circuit ID. Dst itself has no entry.
	NextHops map[topo.SwitchID][]topo.CircuitID
}

// Switches returns the on-path switches (including Src, excluding Dst),
// sorted by ID.
func (p *PathDAG) Switches() []topo.SwitchID {
	out := make([]topo.SwitchID, 0, len(p.NextHops))
	for s := range p.NextHops {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Width returns the ECMP fan-out at the source — how many parallel
// first-hop circuits carry the demand.
func (p *PathDAG) Width() int { return len(p.NextHops[p.Src]) }

// Trace computes the ECMP forwarding DAG for src→dst on the view. It
// returns an error when either endpoint is inactive or no path exists.
func (e *Evaluator) Trace(v *topo.View, src, dst topo.SwitchID) (*PathDAG, error) {
	t := e.t
	if !v.SwitchActive(src) || !v.SwitchActive(dst) {
		return nil, fmt.Errorf("routing: trace %s -> %s: endpoint inactive",
			t.Switch(src).Name, t.Switch(dst).Name)
	}
	e.sync(v)
	dist := make([]int32, t.NumSwitches())
	e.distances([]topo.SwitchID{dst}, [][]int32{dist})
	if dist[src] == 0 {
		return nil, fmt.Errorf("routing: trace %s -> %s: no path",
			t.Switch(src).Name, t.Switch(dst).Name)
	}
	dag := &PathDAG{
		Src: src, Dst: dst,
		Cost:     dist[src] - 1, // the field is biased by +1
		NextHops: make(map[topo.SwitchID][]topo.CircuitID),
	}
	// Walk the shortest-path DAG forward from src.
	stack := []topo.SwitchID{src}
	seen := map[topo.SwitchID]bool{src: true}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == dst {
			continue
		}
		words, arcs := e.upWords(int32(u))
		for k, bw := range words {
			for ; bw != 0; bw &= bw - 1 {
				a := &arcs[k<<6+bits.TrailingZeros64(bw)]
				if !a.nextHop(dist, dist[u]) {
					continue
				}
				w := topo.SwitchID(a.other)
				dag.NextHops[u] = append(dag.NextHops[u], topo.CircuitID(a.li>>1))
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Slice(dag.NextHops[u], func(i, j int) bool { return dag.NextHops[u][i] < dag.NextHops[u][j] })
	}
	return dag, nil
}
