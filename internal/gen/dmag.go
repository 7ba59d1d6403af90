package gen

import (
	"fmt"

	"klotski/internal/migration"
	"klotski/internal/topo"
)

// DMAGParams parameterizes the DMAG migration (paper §2.4, Fig. 3c): a new
// metro-aggregation layer is inserted between the FAUUs and the EBs, and
// the direct FAUU→EB circuits are decommissioned. This migration changes
// the network's layer structure, which is what the MRC and Janus baselines
// cannot plan (Fig. 9).
type DMAGParams struct {
	Region RegionParams
	Demand DemandSpec

	// MAPerEB is how many MA switches serve each EB (default 2).
	MAPerEB int

	// MASubBlocks splits each EB's MA group into this many undrain blocks
	// (default 2): EB port budgets only admit the first sub-block before
	// the direct circuits drain and free ports.
	MASubBlocks int

	// MACapFactor is each MA's capacity relative to the direct circuits it
	// shadows (default 0.8; the full MA group provides
	// MAPerEB × MACapFactor ≥ 1 of the direct capacity).
	MACapFactor float64
}

func (p *DMAGParams) setDefaults() {
	if p.MAPerEB == 0 {
		p.MAPerEB = 2
	}
	if p.MASubBlocks == 0 {
		p.MASubBlocks = 2
	}
	if p.MASubBlocks > p.MAPerEB {
		p.MASubBlocks = p.MAPerEB
	}
	if p.MACapFactor == 0 {
		p.MACapFactor = 0.8
	}
}

// DMAGScenario builds the DMAG migration task. For every EB, MAPerEB MA
// switches are added (inactive), each mirroring the EB's direct FAUU
// circuits at MACapFactor capacity plus one fat MA→EB uplink. Blocks:
//
//   - undrain-ma: per (EB, sub-block), canonical order sub-block-major so
//     every EB gets its first MA before any gets its second;
//   - drain-fauu-eb: per EB, a circuit-only block draining all the EB's
//     direct FAUU circuits (ports are then free for the remaining MAs).
func DMAGScenario(name string, p DMAGParams) (*Scenario, error) {
	p.Region.setDefaults()
	p.setDefaults()
	r := BuildRegion(p.Region)
	t := r.Topo

	// Collect each EB's direct FAUU circuits and raise their routing
	// metric to 2: the FAUU→MA→EB detour then has equal path cost, so
	// ECMP splits traffic across both while they coexist. This models the
	// temporary routing configurations operators install during layer
	// insertions (paper §7.1) — without it, hop-count ECMP would ignore
	// the MA layer entirely until the last direct circuit drained.
	direct := make([][]topo.CircuitID, len(r.EBSw))
	for i, eb := range r.EBSw {
		for _, cid := range t.Switch(eb).Circuits() {
			if t.Switch(t.Circuit(cid).Other(eb)).Role == topo.RoleFAUU {
				direct[i] = append(direct[i], cid)
				t.SetMetric(cid, 2)
			}
		}
	}

	// Shape capacities with the metric already in place (metrics change
	// path lengths for the shaping evaluation); the FAUU-EB layer is this
	// scenario's narrow waist.
	ds := BuildDemands(r, p.Demand)
	_, baseMax, err := ShapeLayerCapacities(t, &ds, dmagShape)
	if err != nil {
		return nil, err
	}

	// Build the MA layer, inactive.
	mas := make([][]topo.SwitchID, len(r.EBSw))
	for i, eb := range r.EBSw {
		for m := 0; m < p.MAPerEB; m++ {
			id := t.AddSwitch(topo.Switch{
				Name: fmt.Sprintf("ma-e%d-%d", i, m), Role: topo.RoleMA,
				DC: -1, Pod: -1, Plane: -1, Grid: -1, Generation: 1,
			})
			t.SetSwitchActive(id, false)
			mas[i] = append(mas[i], id)
			total := 0.0
			for _, cid := range direct[i] {
				c := t.Circuit(cid)
				cap := c.Capacity * p.MACapFactor
				t.AddCircuit(c.Other(eb), id, cap)
				total += cap
			}
			if total == 0 {
				return nil, fmt.Errorf("gen: EB %d has no direct FAUU circuits to shadow", i)
			}
			t.AddCircuit(id, eb, total)
		}
		// EB port budget: current active degree plus room for the first
		// MA sub-block only; the rest must wait for the direct circuits
		// to drain ("decommission circuits first to free up ports", §2.3).
		perSub := (p.MAPerEB + p.MASubBlocks - 1) / p.MASubBlocks
		t.SetPorts(eb, t.ActiveDegree(eb)+perSub)
	}

	task := &migration.Task{Name: name, Topo: t, TopologyChanging: true}
	undrainType := task.AddType(migration.ActionTypeInfo{
		Name: "undrain-ma", Op: migration.Undrain, Role: topo.RoleMA,
	})
	drainType := task.AddType(migration.ActionTypeInfo{
		Name: "drain-fauu-eb-circuits", Op: migration.Drain, Role: topo.RoleEB,
	})
	// Undrain blocks, sub-block-major.
	for s := 0; s < p.MASubBlocks; s++ {
		for i := range r.EBSw {
			lo, hi := s*p.MAPerEB/p.MASubBlocks, (s+1)*p.MAPerEB/p.MASubBlocks
			if lo == hi {
				continue
			}
			task.AddBlock(migration.Block{
				Type: undrainType, Name: fmt.Sprintf("ma-e%d-s%d", i, s), DC: -1,
				Switches: append([]topo.SwitchID(nil), mas[i][lo:hi]...),
			})
		}
	}
	// Drain blocks: per EB, circuit-only.
	for i := range r.EBSw {
		task.AddBlock(migration.Block{
			Type: drainType, Name: fmt.Sprintf("direct-e%d", i), DC: -1,
			Circuits: append([]topo.CircuitID(nil), direct[i]...),
		})
	}

	desc := fmt.Sprintf("DMAG: insert %d MAs between FAUUs and %d EBs, decommission %d direct circuit groups",
		p.MAPerEB*len(r.EBSw), len(r.EBSw), len(r.EBSw))
	return finishScenario(name, desc, r, task, p.Demand, ds, baseMax)
}
