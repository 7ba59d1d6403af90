package gen

import (
	"fmt"

	"klotski/internal/demand"
	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// Scenario is a ready-to-plan migration: a task over a generated region,
// with calibrated demands.
type Scenario struct {
	Name        string
	Description string
	Task        *migration.Task
	Region      *Region

	// BaseUtil is the maximum circuit utilization of the pre-migration
	// network after demand calibration.
	BaseUtil float64
}

// DemandSpec parameterizes synthetic demand generation. The three demand
// kinds follow the paper's methodology (§6.1): RSW→EBB (egress), EBB→RSW
// (ingress), and RSW→RSW (east-west, cross-DC).
type DemandSpec struct {
	SourcesPerDC int     // representative RSWs per DC (default 2)
	UpWeight     float64 // relative egress volume per source (default 1)
	DownWeight   float64 // relative ingress volume per source (default 0.8)
	EastWeight   float64 // relative east-west volume per DC pair (default 1.5)

	// BaseUtil is the target maximum circuit utilization of the
	// pre-migration network; demand rates are scaled so the most loaded
	// circuit sits exactly here (default 0.40, leaving enough headroom
	// that migrations stay plannable down to the θ = 0.55 end of the
	// paper's Fig. 12 sweep).
	BaseUtil float64
}

func (s *DemandSpec) setDefaults() {
	if s.SourcesPerDC == 0 {
		s.SourcesPerDC = 2
	}
	if s.UpWeight == 0 {
		s.UpWeight = 1
	}
	if s.DownWeight == 0 {
		s.DownWeight = 0.8
	}
	if s.EastWeight == 0 {
		s.EastWeight = 1.5
	}
	if s.BaseUtil == 0 {
		s.BaseUtil = 0.40
	}
}

// BuildDemands synthesizes a demand set over the region per the spec. The
// set deliberately uses few distinct destinations — satisfiability-check
// cost is linear in that count — while still exercising every layer:
// egress and ingress cross the HGRID and backbone boundary; east-west
// crosses the HGRID between DCs.
func BuildDemands(r *Region, spec DemandSpec) demand.Set {
	spec.setDefaults()
	var ds demand.Set
	reps := representativeRSWs(r, spec.SourcesPerDC)
	nEBB := len(r.EBBSw)

	for d, rsws := range reps {
		for i, rsw := range rsws {
			ebb := r.EBBSw[(d+i)%nEBB]
			ds.Add(demand.Demand{
				Name: fmt.Sprintf("up-d%d-%d", d, i),
				Src:  rsw, Dst: ebb, Rate: spec.UpWeight,
			})
			ds.Add(demand.Demand{
				Name: fmt.Sprintf("down-d%d-%d", d, i),
				Src:  ebb, Dst: rsw, Rate: spec.DownWeight,
			})
		}
	}
	// East-west: one demand per adjacent DC pair, between representatives
	// already in use (keeping the distinct-destination count bounded).
	nDC := len(reps)
	for d := 0; d+1 < nDC; d++ {
		src := reps[d][0]
		dst := reps[d+1][0]
		ds.Add(demand.Demand{
			Name: fmt.Sprintf("east-d%d-d%d", d, d+1),
			Src:  src, Dst: dst, Rate: spec.EastWeight,
		})
		ds.Add(demand.Demand{
			Name: fmt.Sprintf("west-d%d-d%d", d+1, d),
			Src:  dst, Dst: src, Rate: spec.EastWeight,
		})
	}
	return ds
}

// representativeRSWs picks spread-out rack switches per DC: one from every
// len/sources-th position of the DC's RSW list, which the generators lay
// out pod-major so the picks land in different pods.
func representativeRSWs(r *Region, perDC int) [][]topo.SwitchID {
	out := make([][]topo.SwitchID, len(r.RSWs))
	for d, rsws := range r.RSWs {
		n := perDC
		if n > len(rsws) {
			n = len(rsws)
		}
		for i := 0; i < n; i++ {
			out[d] = append(out[d], rsws[i*len(rsws)/n])
		}
	}
	return out
}

// Calibrate scales the demand set so the most utilized circuit of the base
// network state sits at exactly targetUtil. It returns the scaled set and
// the pre-scaling maximum utilization, or an error when any demand is
// unroutable in the base state.
func Calibrate(t *topo.Topology, ds demand.Set, targetUtil float64) (demand.Set, float64, error) {
	eval := routing.NewEvaluator(t)
	view := t.NewView()
	res, viol := eval.Evaluate(view, &ds, routing.CheckOpts{Theta: 1e9})
	if viol.Kind == routing.ViolationUnreachable || res.Unreachable > 0 {
		return demand.Set{}, 0, fmt.Errorf("gen: base topology cannot route demands: %s", viol)
	}
	return calibrateTo(ds, res.MaxUtil, targetUtil)
}

// calibrateTo is Calibrate given the base state's maximum utilization.
func calibrateTo(ds demand.Set, baseMax, targetUtil float64) (demand.Set, float64, error) {
	if baseMax <= 0 {
		return demand.Set{}, 0, fmt.Errorf("gen: base topology carries no load; cannot calibrate")
	}
	return ds.Scaled(targetUtil / baseMax), baseMax, nil
}

// finishScenario validates the task, calibrates the (already built) demands
// and wraps everything into a Scenario. baseMax is the base state's maximum
// utilization that ShapeLayerCapacities measured: everything a builder adds
// after shaping is down in the base state, so routing the finished topology
// again would place the same loads.
func finishScenario(name, desc string, r *Region, task *migration.Task, spec DemandSpec, ds demand.Set, baseMax float64) (*Scenario, error) {
	spec.setDefaults()
	ds, _, err := calibrateTo(ds, baseMax, spec.BaseUtil)
	if err != nil {
		return nil, err
	}
	task.Demands = ds
	if err := r.Topo.Validate(); err != nil {
		return nil, err
	}
	if err := task.Validate(); err != nil {
		return nil, err
	}
	return &Scenario{
		Name:        name,
		Description: desc,
		Task:        task,
		Region:      r,
		BaseUtil:    spec.BaseUtil,
	}, nil
}
