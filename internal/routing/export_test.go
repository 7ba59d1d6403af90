package routing

import (
	"fmt"
	"math"
	"slices"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// SetCheckHook installs f as checkHook for the external tests; nil removes it.
func SetCheckHook(f func(e *Evaluator, v *topo.View, ds *demand.Set, opts CheckOpts, viol Violation)) {
	checkHook = f
}

// retainedMismatch says how q's kept fields, next-hop lists, weights,
// ceilings and loads differ from what its last check, made with opts and the
// funnel classes funnel, must leave, and returns "" when they agree. fresh is
// a quotient of the same partition whose one check had the view, demands,
// options and funnel of q's last. Every ceiling is θ(1+liftMargin)·cap/scale of
// that check whatever it returned. When the check computed fields, each kept
// field is fresh's, each valid next-hop list is a scan of its class's arcs and
// its weight a sum over the list under the check's split mode, bit for bit,
// every load is fresh's bit for bit, and at most one circuit class is over
// its ceiling for the check — θ/FunnelFactor on a funnel class — since the
// check ends at the first.
func (q *Quotient) retainedMismatch(fresh *Quotient, opts CheckOpts, funnel []int32) string {
	theta, scale := opts.Theta, opts.Scale()
	if theta <= 0 {
		theta = 0.75
	}
	for k, c := range q.caps {
		if want := theta * (1 + liftMargin) * c / scale; math.Float64bits(q.ceil[k]) != math.Float64bits(want) {
			return fmt.Sprintf("circuit class %d: ceiling %v kept, θ(1+liftMargin)·cap/scale is %v", k, q.ceil[k], want)
		}
	}
	kept := q.trav.kept
	if len(fresh.trav.kept) == 0 {
		return ""
	}
	if !slices.Equal(kept, fresh.trav.kept) || q.nMarked != 0 {
		return fmt.Sprintf("the fields kept are those of %v with %d classes rebuilt since, want those of %v over the current up state", kept, q.nMarked, fresh.trav.kept)
	}
	nc, na := len(q.rep), len(q.arcs)
	for f := range kept {
		field := q.trav.dist[f*nc : (f+1)*nc]
		if want := fresh.trav.dist[f*nc : (f+1)*nc]; !slices.Equal(field, want) {
			return fmt.Sprintf("field %d is %v, a traversal gives %v", f, field, want)
		}
		for x := range q.rep {
			if q.trav.hopValid[f*nc+x] == 0 {
				continue
			}
			var scan []hop
			weight := 0.0
			for _, a := range q.arcs[q.arcOff[x]:q.arcOff[x+1]] {
				if field[a.other] == field[x]-a.metric && q.up[a.li>>1] {
					scan = append(scan, hop{a.li, a.other})
					if opts.Split == SplitCapacityWeighted {
						weight += q.mult[a.li] * q.caps[a.li>>1]
					} else {
						weight += q.mult[a.li]
					}
				}
			}
			lo := f*na + int(q.arcOff[x])
			if kept := q.hops[lo : lo+int(q.hopLen[f*nc+x])]; !slices.Equal(kept, scan) {
				return fmt.Sprintf("field %d, class %d: next-hop list %v kept, a scan gives %v", f, x, kept, scan)
			}
			if kept := q.hopW[f*nc+x]; math.Float64bits(kept) != math.Float64bits(weight) {
				return fmt.Sprintf("field %d, class %d: weight %v kept, a sum over the list under %v gives %v", f, x, kept, opts.Split, weight)
			}
		}
	}
	for li := range q.load {
		if math.Float64bits(q.load[li]) != math.Float64bits(fresh.load[li]) {
			return fmt.Sprintf("load %d is %v, a fresh quotient's %v", li, q.load[li], fresh.load[li])
		}
	}
	var over []int
	for k, c := range q.caps {
		b := theta
		if opts.FunnelFactor > 1 && slices.Contains(funnel, int32(k)) {
			b = theta / opts.FunnelFactor
		}
		if q.load[2*k]+q.load[2*k+1] > b*(1+liftMargin)*c/scale {
			over = append(over, k)
		}
	}
	if len(over) > 1 {
		return fmt.Sprintf("circuit classes %v are over their ceilings: the check went on past the first", over)
	}
	return ""
}
