package gen

import (
	"fmt"

	"klotski/internal/migration"
	"klotski/internal/topo"
)

// ForkliftParams parameterizes the SSW forklift migration (paper §2.4,
// Fig. 3b): every spine switch in one DC is replaced by new-generation
// hardware with more capacity, in place.
type ForkliftParams struct {
	Region RegionParams
	Demand DemandSpec

	// DC selects which building's spines to forklift (default 0).
	DC int

	// GroupsPerPlane is the number of operation blocks each plane's SSWs
	// are split into (the §5 organization policy: "we split SSWs on a
	// plane into several operation blocks, considering the traffic
	// demand"). Default 4.
	GroupsPerPlane int

	// NewCapFactor is the capacity multiplier of new-generation circuits
	// (default 1.5).
	NewCapFactor float64

	// PortHeadroomFrac is the fraction of a neighbor's new-generation
	// links that fit before old drains free ports (default 0.5).
	PortHeadroomFrac float64
}

func (p *ForkliftParams) setDefaults() {
	if p.GroupsPerPlane == 0 {
		p.GroupsPerPlane = 4
	}
	if p.NewCapFactor == 0 {
		p.NewCapFactor = 1.5
	}
	if p.PortHeadroomFrac == 0 {
		p.PortHeadroomFrac = 0.5
	}
}

// ForkliftScenario builds the SSW forklift task: new SSWs mirror the old
// wiring (same FSW and FADU neighbors) at NewCapFactor capacity, and the
// FSW/FADU port budgets only admit a fraction of the new links until old
// SSWs drain. Blocks are per-plane groups ordered round-robin across
// planes, so operating a canonical prefix degrades every plane evenly.
func ForkliftScenario(name string, p ForkliftParams) (*Scenario, error) {
	p.Region.setDefaults()
	p.setDefaults()
	r := BuildRegion(p.Region)
	t := r.Topo
	d := p.DC
	if d < 0 || d >= len(r.SSWs) {
		return nil, fmt.Errorf("gen: forklift DC %d out of range (%d DCs)", d, len(r.SSWs))
	}

	// Shape capacities before mirroring so new-generation circuits copy
	// the shaped values.
	ds := BuildDemands(r, p.Demand)
	_, baseMax, err := ShapeLayerCapacities(t, &ds, forkliftShape)
	if err != nil {
		return nil, err
	}

	// Track how many new links each neighbor will receive so its port
	// budget can be set afterwards.
	newLinks := make(map[topo.SwitchID]int)

	// Create new-generation SSWs mirroring the old wiring.
	newSSWs := make([][]topo.SwitchID, len(r.SSWs[d]))
	for q := range r.SSWs[d] {
		for j, old := range r.SSWs[d][q] {
			id := t.AddSwitch(topo.Switch{
				Name: fmt.Sprintf("d%d-ssw2-q%d-%d", d, q, j), Role: topo.RoleSSW,
				DC: d, Pod: -1, Plane: q, Grid: -1, Generation: 2,
			})
			t.SetSwitchActive(id, false)
			newSSWs[q] = append(newSSWs[q], id)
			for _, cid := range t.Switch(old).Circuits() {
				c := t.Circuit(cid)
				nb := c.Other(old)
				t.AddCircuit(id, nb, c.Capacity*p.NewCapFactor)
				newLinks[nb]++
			}
		}
	}

	// Port budgets on the neighbors (FSWs and FADUs): current active
	// degree plus a fraction of the incoming new links.
	for nb, n := range newLinks {
		headroom := int(float64(n)*p.PortHeadroomFrac + 0.999)
		t.SetPorts(nb, t.ActiveDegree(nb)+headroom)
	}

	task := &migration.Task{Name: name, Topo: t}
	drainType := task.AddType(migration.ActionTypeInfo{
		Name: "drain-ssw-gen1", Op: migration.Drain, Role: topo.RoleSSW,
	})
	undrainType := task.AddType(migration.ActionTypeInfo{
		Name: "undrain-ssw-gen2", Op: migration.Undrain, Role: topo.RoleSSW,
	})

	// Blocks: group i of plane q holds SSWs [i·m/G, (i+1)·m/G). Insertion
	// is group-major: group 0 of every plane, then group 1, … so canonical
	// prefixes spread the capacity loss across planes.
	planes := len(r.SSWs[d])
	addGroups := func(ty migration.ActionType, label string, ssws [][]topo.SwitchID) {
		for i := 0; i < p.GroupsPerPlane; i++ {
			for q := 0; q < planes; q++ {
				m := len(ssws[q])
				lo, hi := i*m/p.GroupsPerPlane, (i+1)*m/p.GroupsPerPlane
				if lo == hi {
					continue
				}
				task.AddBlock(migration.Block{
					Type: ty, Name: fmt.Sprintf("%s-q%d-g%d", label, q, i), DC: d,
					Switches: append([]topo.SwitchID(nil), ssws[q][lo:hi]...),
				})
			}
		}
	}
	addGroups(drainType, "ssw1", r.SSWs[d])
	addGroups(undrainType, "ssw2", newSSWs)

	desc := fmt.Sprintf("SSW forklift in DC %d: replace %d planes × %d spines (cap ×%.2g)",
		d, planes, len(r.SSWs[d][0]), p.NewCapFactor)
	return finishScenario(name, desc, r, task, p.Demand, ds, baseMax)
}
