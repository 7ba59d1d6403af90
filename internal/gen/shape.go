package gen

import (
	"fmt"

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

// LayerOf returns the canonical layer key of a circuit: the two endpoint
// roles joined bottom-up, e.g. "SSW-FADU".
func LayerOf(t *topo.Topology, c *topo.Circuit) string {
	ra, rb := t.Switch(c.A).Role, t.Switch(c.B).Role
	if rb < ra {
		ra, rb = rb, ra
	}
	return ra.String() + "-" + rb.String()
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

	peak := make(map[string]float64)
	for c := 0; c < t.NumCircuits(); c++ {
		cid := topo.CircuitID(c)
		if !t.CircuitUp(cid) {
			continue
		}
		ck := t.Circuit(cid)
		ab, ba := eval.CircuitLoad(cid)
		if u := (ab + ba) / ck.Capacity; u > peak[LayerOf(t, ck)] {
			peak[LayerOf(t, ck)] = u
		}
	}

	scale := make(map[string]float64)
	for layer, target := range targets {
		if target <= 0 {
			return nil, 0, fmt.Errorf("gen: non-positive shaping target for layer %s", layer)
		}
		if p := peak[layer]; p > 0 {
			scale[layer] = p / target
		}
	}
	out := make(map[string]float64)
	baseMax := 0.0
	for c := 0; c < t.NumCircuits(); c++ {
		cid := topo.CircuitID(c)
		ck := t.Circuit(cid)
		layer := LayerOf(t, ck)
		if f, ok := scale[layer]; ok {
			t.SetCapacity(ck.ID, ck.Capacity*f)
		}
		if view.CircuitUp(cid) {
			ab, ba := eval.CircuitLoad(cid)
			if u := (ab + ba) / ck.Capacity; u > baseMax {
				baseMax = u
			}
		}
	}
	for layer, p := range peak {
		if _, ok := scale[layer]; ok {
			out[layer] = targets[layer]
		} else {
			out[layer] = p
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
