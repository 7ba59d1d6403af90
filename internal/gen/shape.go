package gen

import (
	"fmt"
	"strings"

	"klotski/internal/demand"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// Per-layer capacity shaping.
//
// Production layers are sized deliberately: the layer being migrated is the
// narrow waist, lower layers have rebalancing slack, and the backbone
// boundary is fat. The generators reproduce this by evaluating the base
// traffic placement and then rescaling each layer's (uniform) circuit
// capacity so that the layer's peak utilization hits a prescribed target.
// ECMP placement depends only on topology and metrics — never on capacity —
// so shaping is exact and does not perturb routing.

// layer is a circuit's layer as an integer: its endpoint roles ordered
// bottom-up, lo*NumRoles + hi. Shaping keys every circuit by it, so a
// layer's name is only made for the targets and the returned peaks.
type layer int

const numLayers = int(topo.NumRoles) * int(topo.NumRoles)

// layerOf returns the layer of a circuit.
func layerOf(t *topo.Topology, c *topo.Circuit) layer {
	ra, rb := t.Switch(c.A).Role, t.Switch(c.B).Role
	if rb < ra {
		ra, rb = rb, ra
	}
	return layerBetween(ra, rb)
}

// layerBetween returns the layer from role lo up to role hi.
func layerBetween(lo, hi topo.Role) layer {
	return layer(int(lo)*int(topo.NumRoles) + int(hi))
}

// String returns the layer's name, e.g. "SSW-FADU".
func (l layer) String() string {
	return topo.Role(int(l)/int(topo.NumRoles)).String() + "-" + topo.Role(int(l)%int(topo.NumRoles)).String()
}

// parseLayer returns the layer a name such as "SSW-FADU" denotes: exactly
// the layer's String, so a name no circuit's layer has (a misspelt role,
// or roles top-down) has no layer.
func parseLayer(name string) (layer, bool) {
	a, b, _ := strings.Cut(name, "-")
	ra, rb := roleNamed(a), roleNamed(b)
	if ra == topo.NumRoles || rb == topo.NumRoles || rb < ra {
		return 0, false
	}
	return layerBetween(ra, rb), true
}

// roleNamed returns the role whose String is exactly name, or NumRoles.
func roleNamed(name string) topo.Role {
	r := topo.Role(0)
	for r < topo.NumRoles && r.String() != name {
		r++
	}
	return r
}

// ShapeLayerCapacities rescales every circuit's capacity so that each
// layer's peak utilization under the given demands (in the base activity
// state) equals targets[layer]. Layers missing from targets keep their
// capacities. It returns the per-layer peak utilizations after shaping, and
// the base state's maximum circuit utilization after shaping: what
// Calibrate would measure on t, re-read from the loads shaping placed (they
// do not depend on capacity) at the new capacities, in Evaluate's circuit
// order and with its strict comparison.
//
// Targets are utilizations at the current demand level; global demand
// calibration afterwards preserves their ratios, so in practice they read
// as "relative tightness": the layer with the highest target becomes the
// binding layer of the generated region.
func ShapeLayerCapacities(t *topo.Topology, ds *demand.Set, targets map[string]float64) (map[string]float64, float64, error) {
	eval := routing.NewEvaluator(t)
	view := t.NewView()
	res, viol := eval.Evaluate(view, ds, routing.CheckOpts{Theta: 1e9})
	if viol.Kind == routing.ViolationUnreachable || res.Unreachable > 0 {
		return nil, 0, fmt.Errorf("gen: cannot shape capacities: %s", viol)
	}

	var peak [numLayers]float64
	for c := 0; c < t.NumCircuits(); c++ {
		cid := topo.CircuitID(c)
		if !t.CircuitUp(cid) {
			continue
		}
		ck := t.Circuit(cid)
		ab, ba := eval.CircuitLoad(cid)
		if u, l := (ab+ba)/ck.Capacity, layerOf(t, ck); u > peak[l] {
			peak[l] = u
		}
	}

	// scale[l] is 0 for a layer shaping leaves alone.
	var scale, target [numLayers]float64
	for name, tg := range targets {
		if tg <= 0 {
			return nil, 0, fmt.Errorf("gen: non-positive shaping target for layer %s", name)
		}
		if l, ok := parseLayer(name); ok && peak[l] > 0 {
			scale[l], target[l] = peak[l]/tg, tg
		}
	}
	baseMax := 0.0
	for c := 0; c < t.NumCircuits(); c++ {
		cid := topo.CircuitID(c)
		ck := t.Circuit(cid)
		if f := scale[layerOf(t, ck)]; f != 0 {
			t.SetCapacity(ck.ID, ck.Capacity*f)
		}
		if view.CircuitUp(cid) {
			ab, ba := eval.CircuitLoad(cid)
			if u := (ab + ba) / ck.Capacity; u > baseMax {
				baseMax = u
			}
		}
	}
	out := make(map[string]float64)
	for l, p := range peak {
		if scale[l] != 0 {
			p = target[l]
		}
		if p > 0 {
			out[layer(l).String()] = p
		}
	}
	return out, baseMax, nil
}

// layerCapacity returns the capacity of the first base-active circuit whose
// endpoints have the given roles — the uniform per-circuit capacity of that
// layer after shaping. It panics when the layer has no circuits, which
// always indicates a generator bug.
func layerCapacity(t *topo.Topology, a, b topo.Role) float64 {
	for c := 0; c < t.NumCircuits(); c++ {
		cid := topo.CircuitID(c)
		ck := t.Circuit(cid)
		ra, rb := t.Switch(ck.A).Role, t.Switch(ck.B).Role
		if (ra == a && rb == b) || (ra == b && rb == a) {
			if t.CircuitUp(cid) {
				return ck.Capacity
			}
		}
	}
	panic(fmt.Sprintf("gen: no active %s-%s circuit in topology", a, b))
}

// Default shaping targets per scenario kind. The migrated layer carries the
// highest target (it becomes the binding layer); adjacent layers sit close
// enough that wide drains spill over, lower layers have rebalancing slack,
// and rack uplinks plus the backbone never bind.
var (
	// The migrated SSW-FADU layer binds; the layers above it sit well
	// clear, because their EB-attachment pattern is not plane-symmetric —
	// if they were near-binding, which *set* of grids is down would matter
	// beyond the per-type counts, breaking the within-type
	// interchangeability that Klotski's compact representation (and the
	// operation-block policy, paper §4.1) relies on.
	hgridShape = map[string]float64{
		"RSW-FSW":   0.15,
		"FSW-SSW":   0.80,
		"SSW-FADU":  1.00,
		"FADU-FAUU": 0.60,
		"FAUU-EB":   0.60,
		"EB-DR":     0.30,
		"DR-EBB":    0.30,
	}
	forkliftShape = map[string]float64{
		"RSW-FSW":   0.15,
		"FSW-SSW":   0.85,
		"SSW-FADU":  1.00,
		"FADU-FAUU": 0.60,
		"FAUU-EB":   0.60,
		"EB-DR":     0.30,
		"DR-EBB":    0.30,
	}
	dmagShape = map[string]float64{
		"RSW-FSW":   0.15,
		"FSW-SSW":   0.60,
		"SSW-FADU":  0.70,
		"FADU-FAUU": 0.80,
		"FAUU-EB":   1.00,
		"EB-DR":     0.30,
		"DR-EBB":    0.30,
	}
)
