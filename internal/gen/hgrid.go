package gen

import (
	"fmt"

	"klotski/internal/migration"
	"klotski/internal/topo"
)

// HGRIDScenarioParams parameterizes the HGRID V1→V2 migration (paper §2.4,
// Fig. 3a): every v1 grid is decommissioned and replaced by a new
// generation with more, smaller nodes and larger aggregate capacity.
type HGRIDScenarioParams struct {
	Region RegionParams
	Demand DemandSpec

	// V2GridFactor is how many v2 grids replace each v1 grid (default 2 —
	// the disaggregated generation has more nodes, Fig. 2c).
	V2GridFactor int

	// V2CapFactor is the per-circuit capacity of v2 links relative to v1
	// (default 0.55: smaller per node, but V2GridFactor×V2CapFactor > 1
	// total, "larger capacity").
	V2CapFactor float64

	// V2FADUPerGrid and V2FAUUPerGrid size the new grids (defaults: ¾ of
	// the v1 grid's, reflecting smaller disaggregated nodes).
	V2FADUPerGrid int
	V2FAUUPerGrid int

	// PortHeadroomGrids is how many v2 grids' worth of downlink ports each
	// SSW has spare before any v1 drain frees ports (default 1). This is
	// the hard physical constraint that forces drains and undrains to
	// interleave (§2.3 "port constraints").
	PortHeadroomGrids int

	// SplitRoles keeps a grid's FADU and FAUU sub-switches in separate
	// operation blocks with separate action types (|A| = 4 instead of 2).
	// The paper's production policy merges them (Fig. 5: "merge six
	// operations on symmetry blocks to one operation on the operation
	// block"); this option exists for the action-type-granularity ablation
	// — more types mean finer crew scheduling, a deeper search space, and
	// a heuristic with more dynamic range.
	SplitRoles bool
}

func (p *HGRIDScenarioParams) setDefaults() {
	if p.V2GridFactor == 0 {
		p.V2GridFactor = 2
	}
	if p.V2CapFactor == 0 {
		// 0.55 per link × factor 2 grids = 1.1× total capacity after the
		// migration ("larger capacity"), but only 0.55× while just the
		// first half of the v2 grids is up — which is what forces drains
		// and undrains to interleave in capacity-bound waves.
		p.V2CapFactor = 0.55
	}
	if p.V2FADUPerGrid == 0 {
		p.V2FADUPerGrid = (p.Region.HGRID.FADUPerGrid*3 + 3) / 4
	}
	if p.V2FAUUPerGrid == 0 {
		p.V2FAUUPerGrid = (p.Region.HGRID.FAUUPerGrid*3 + 3) / 4
	}
	if p.PortHeadroomGrids == 0 {
		p.PortHeadroomGrids = 1
	}
}

// HGRIDScenario builds the HGRID V1→V2 migration task: the v2 grids are
// added to the universe inactive, SSWs are wired to both generations, and
// SSW port budgets are set so only PortHeadroomGrids v2 grids fit before a
// v1 drain frees ports. Operation blocks are one per grid, per the
// production organization policy (§5): drain-v1-grid and undrain-v2-grid.
func HGRIDScenario(name string, p HGRIDScenarioParams) (*Scenario, error) {
	p.Region.setDefaults()
	p.setDefaults()
	r := BuildRegion(p.Region)
	t := r.Topo
	h := p.Region.HGRID
	g1 := h.Grids
	g2 := g1 * p.V2GridFactor

	// Demands are built before shaping so the shaping evaluation sees the
	// real traffic; shaping then makes the SSW-FADU layer the region's
	// narrow waist (see shape.go).
	ds := BuildDemands(r, p.Demand)
	_, baseMax, err := ShapeLayerCapacities(t, &ds, hgridShape)
	if err != nil {
		return nil, err
	}

	// v2 circuit capacities derive from the shaped v1 capacities: each v2
	// link carries V2CapFactor of its v1 counterpart, and grid-internal /
	// uplink capacities are scaled so a full v2 grid pair provides
	// V2GridFactor × V2CapFactor of the v1 grid it replaces.
	linkCap := layerCapacity(t, topo.RoleSSW, topo.RoleFADU)
	internalCap := layerCapacity(t, topo.RoleFADU, topo.RoleFAUU)
	uplinkCap := layerCapacity(t, topo.RoleFAUU, topo.RoleEB)
	v2cap := linkCap * p.V2CapFactor
	v2internal := internalCap * p.V2CapFactor *
		float64(h.FADUPerGrid*h.FAUUPerGrid) / float64(p.V2FADUPerGrid*p.V2FAUUPerGrid)
	v2uplink := uplinkCap * p.V2CapFactor * float64(h.FAUUPerGrid) / float64(p.V2FAUUPerGrid)

	// Build the v2 grids, inactive: switches exist physically (space has
	// been prepared) but carry no traffic until undrained.
	v2grids := make([]Grid, g2)
	for g := 0; g < g2; g++ {
		grid := Grid{}
		for i := 0; i < p.V2FADUPerGrid; i++ {
			id := t.AddSwitch(topo.Switch{
				Name: fmt.Sprintf("fadu-v2-g%d-%d", g, i), Role: topo.RoleFADU,
				DC: -1, Pod: -1, Plane: -1, Grid: g1 + g, Generation: h.Generation + 1,
			})
			t.SetSwitchActive(id, false)
			grid.FADUs = append(grid.FADUs, id)
		}
		for i := 0; i < p.V2FAUUPerGrid; i++ {
			id := t.AddSwitch(topo.Switch{
				Name: fmt.Sprintf("fauu-v2-g%d-%d", g, i), Role: topo.RoleFAUU,
				DC: -1, Pod: -1, Plane: -1, Grid: g1 + g, Generation: h.Generation + 1,
			})
			t.SetSwitchActive(id, false)
			grid.FAUUs = append(grid.FAUUs, id)
			for _, fd := range grid.FADUs {
				t.AddCircuit(fd, id, v2internal)
			}
			n := 2
			if n > p.Region.EBs {
				n = p.Region.EBs
			}
			for k := 0; k < n; k++ {
				t.AddCircuit(id, r.EBSw[(g+i+k*(p.Region.EBs/2+1))%p.Region.EBs], v2uplink)
			}
		}
		v2grids[g] = grid
	}

	// Wire every SSW to its v2 grids: the SSW attached to v1 grid gBase
	// serves v2 grids {gBase + k·g1}. Port budgets are set afterwards from
	// the *active* (v1) degree, so the extra physical wiring is what the
	// migration plan must fit within the port budget over time.
	for d := range r.SSWs {
		for q := range r.SSWs[d] {
			for j, ssw := range r.SSWs[d][q] {
				gBase := v1GridOf(q, j, g1, len(r.SSWs[d]))
				for k := 0; k < p.V2GridFactor; k++ {
					grid := &v2grids[gBase+k*g1]
					for l := 0; l < h.SSWDownlinks; l++ {
						fadu := grid.FADUs[(j+l)%len(grid.FADUs)]
						t.AddCircuit(ssw, fadu, v2cap)
					}
				}
				budget := t.ActiveDegree(ssw) + p.PortHeadroomGrids*h.SSWDownlinks
				t.SetPorts(ssw, budget)
			}
		}
	}

	// Task: one operation block per grid (or per grid × role under
	// SplitRoles). Canonical drain order walks grids 0..g1−1, one per
	// plane residue, matching how field crews phase the rollout.
	task := &migration.Task{Name: name, Topo: t}
	if p.SplitRoles {
		buildSplitRoleBlocks(task, r, v2grids, g1, p.V2GridFactor)
	} else {
		drainType := task.AddType(migration.ActionTypeInfo{
			Name: "drain-hgrid-v1-grid", Op: migration.Drain, Role: topo.RoleFADU,
		})
		undrainType := task.AddType(migration.ActionTypeInfo{
			Name: "undrain-hgrid-v2-grid", Op: migration.Undrain, Role: topo.RoleFADU,
		})
		for g := 0; g < g1; g++ {
			task.AddBlock(migration.Block{
				Type: drainType, Name: fmt.Sprintf("v1-grid-%d", g), DC: -1,
				Switches: r.Grids[g].Switches(),
			})
		}
		// One undrain block per stripe, containing every v2 grid that
		// replaces the stripe's v1 grid. Operation blocks must be
		// interchangeable within their action type for the compact
		// representation to be lossless (paper §4.1–4.2); splitting a
		// stripe's replacement across blocks would make block order matter
		// through the shared SSW ports. The port budget (one spare grid's
		// worth of downlinks) then forces the real structure: a stripe's
		// replacement cannot onboard until its v1 grid drains, so plans
		// alternate capacity-bounded drain waves with the matching
		// onboarding waves.
		for gBase := 0; gBase < g1; gBase++ {
			var sw []topo.SwitchID
			for k := 0; k < p.V2GridFactor; k++ {
				sw = append(sw, v2grids[gBase+k*g1].Switches()...)
			}
			task.AddBlock(migration.Block{
				Type: undrainType, Name: fmt.Sprintf("v2-stripe-%d", gBase), DC: -1,
				Switches: sw,
			})
		}
	}

	desc := fmt.Sprintf("HGRID V1→V2: replace %d v1 grids with %d v2 grids (cap ×%.2g per link)",
		g1, g2, p.V2CapFactor)
	return finishScenario(name, desc, r, task, p.Demand, ds, baseMax)
}

// buildSplitRoleBlocks interns four action types — drain/undrain ×
// FADU/FAUU — and emits one block per grid (or stripe) per role. FAUUs
// drain before their grid's FADUs become useless and undrain after the new
// FADUs land, but the planner discovers that ordering itself; nothing here
// encodes it.
func buildSplitRoleBlocks(task *migration.Task, r *Region, v2grids []Grid, g1, factor int) {
	drainFADU := task.AddType(migration.ActionTypeInfo{
		Name: "drain-hgrid-v1-fadu", Op: migration.Drain, Role: topo.RoleFADU,
	})
	drainFAUU := task.AddType(migration.ActionTypeInfo{
		Name: "drain-hgrid-v1-fauu", Op: migration.Drain, Role: topo.RoleFAUU,
	})
	undrainFADU := task.AddType(migration.ActionTypeInfo{
		Name: "undrain-hgrid-v2-fadu", Op: migration.Undrain, Role: topo.RoleFADU,
	})
	undrainFAUU := task.AddType(migration.ActionTypeInfo{
		Name: "undrain-hgrid-v2-fauu", Op: migration.Undrain, Role: topo.RoleFAUU,
	})
	for g := 0; g < g1; g++ {
		task.AddBlock(migration.Block{
			Type: drainFADU, Name: fmt.Sprintf("v1-grid-%d-fadu", g), DC: -1,
			Switches: append([]topo.SwitchID(nil), r.Grids[g].FADUs...),
		})
	}
	for g := 0; g < g1; g++ {
		task.AddBlock(migration.Block{
			Type: drainFAUU, Name: fmt.Sprintf("v1-grid-%d-fauu", g), DC: -1,
			Switches: append([]topo.SwitchID(nil), r.Grids[g].FAUUs...),
		})
	}
	for gBase := 0; gBase < g1; gBase++ {
		var fadus, fauus []topo.SwitchID
		for k := 0; k < factor; k++ {
			fadus = append(fadus, v2grids[gBase+k*g1].FADUs...)
			fauus = append(fauus, v2grids[gBase+k*g1].FAUUs...)
		}
		task.AddBlock(migration.Block{
			Type: undrainFADU, Name: fmt.Sprintf("v2-stripe-%d-fadu", gBase), DC: -1,
			Switches: fadus,
		})
		task.AddBlock(migration.Block{
			Type: undrainFAUU, Name: fmt.Sprintf("v2-stripe-%d-fauu", gBase), DC: -1,
			Switches: fauus,
		})
	}
}
