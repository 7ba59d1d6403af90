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

// retainedMismatch says how q's kept fields, next-hop lists and loads differ
// from those of fresh, a quotient of the same partition whose one check had
// the view, demands and options of q's last, and returns "" when they agree.
// When that check returned before it computed fields, there is nothing to
// compare.
func (q *Quotient) retainedMismatch(fresh *Quotient) string {
	if len(fresh.kept) == 0 {
		return ""
	}
	if !slices.Equal(q.kept, fresh.kept) || !slices.Equal(q.keptUp, q.up) {
		return fmt.Sprintf("the fields kept are those of %v over another up state, want those of %v over the current one", q.kept, fresh.kept)
	}
	nc, na := len(q.rep), len(q.arcs)
	for f := range q.kept {
		field := q.dist[f*nc : (f+1)*nc]
		if want := fresh.dist[f*nc : (f+1)*nc]; !slices.Equal(field, want) {
			return fmt.Sprintf("field %d is %v, a traversal gives %v", f, field, want)
		}
		for x := range q.rep {
			if !q.hopOK[f*nc+x] {
				continue
			}
			var scan []int32
			for i := q.arcOff[x]; i < q.arcOff[x+1]; i++ {
				if a := q.arcs[i]; field[a.other] == field[x]-a.metric && q.up[a.li>>1] {
					scan = append(scan, i)
				}
			}
			lo := f*na + int(q.arcOff[x])
			if kept := q.hopArcs[lo : lo+int(q.hopLen[f*nc+x])]; !slices.Equal(kept, scan) {
				return fmt.Sprintf("field %d, class %d: next-hop list %v kept, a scan gives %v", f, x, kept, scan)
			}
		}
	}
	for li := range q.load {
		if math.Float64bits(q.load[li]) != math.Float64bits(fresh.load[li]) {
			return fmt.Sprintf("load %d is %v, a fresh quotient's %v", li, q.load[li], fresh.load[li])
		}
	}
	return ""
}
