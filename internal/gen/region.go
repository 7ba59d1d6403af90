// Package gen builds synthetic Meta-style datacenter regions and the three
// production migration scenarios of the Klotski paper (§2.4): HGRID V1→V2,
// SSW forklift, and DMAG. It also provides the Table-3 topology suite
// (A–E, E-DMAG, E-SSW) used by the evaluation harness.
//
// Real NPD exports of Meta datacenters are proprietary; these generators
// reproduce the properties that drive planner behaviour — layering,
// plane/grid structure, meshing patterns, coexisting hardware generations,
// port pressure, and capacity headroom — at parameterized scale
// (see DESIGN.md, "Substitutions").
package gen

import (
	"strconv"

	"klotski/internal/topo"
)

// FabricParams describes one datacenter building's fabric.
type FabricParams struct {
	Pods        int // pods in the fabric
	RSWPerPod   int // rack switches per pod
	FSWPerPod   int // fabric switches per pod (Meta uses 4)
	Planes      int // spine planes (4, or 8 for upgraded generations)
	SSWPerPlane int // spine switches per plane
	FSWUplinks  int // SSWs each FSW connects to, per plane it serves

	RSWUplinkCap float64 // Tbps per RSW→FSW circuit
	FSWUplinkCap float64 // Tbps per FSW→SSW circuit
}

func (p *FabricParams) setDefaults() {
	if p.FSWPerPod == 0 {
		p.FSWPerPod = 4
	}
	if p.Planes == 0 {
		p.Planes = 4
	}
	if p.FSWUplinks == 0 || p.FSWUplinks > p.SSWPerPlane {
		p.FSWUplinks = p.SSWPerPlane
	}
	if p.RSWUplinkCap == 0 {
		// Rack uplinks are deliberately overprovisioned: RSWs are never
		// migrated, so they must not be the binding constraint.
		p.RSWUplinkCap = 8.0
	}
	if p.FSWUplinkCap == 0 {
		// Fabric uplinks carry the cross-plane rebalancing when a plane's
		// aggregation drains; their slack bounds how much of the HGRID can
		// be down at once (tuned so they sit near the HGRID layer's
		// utilization at the calibrated base point).
		p.FSWUplinkCap = 0.3
	}
}

// HGRIDParams describes the regional fabric-aggregation layer.
type HGRIDParams struct {
	Grids        int // grids (≈ one per spine plane for generation 1)
	FADUPerGrid  int
	FAUUPerGrid  int
	SSWDownlinks int // FADU circuits per SSW per grid it attaches to

	LinkCap         float64 // SSW→FADU circuit capacity, Tbps
	GridInternalCap float64 // FADU→FAUU circuit capacity
	UplinkCap       float64 // FAUU→EB circuit capacity
	Generation      int
}

func (p *HGRIDParams) setDefaults() {
	if p.SSWDownlinks == 0 {
		p.SSWDownlinks = 2
	}
	if p.SSWDownlinks > p.FADUPerGrid {
		p.SSWDownlinks = p.FADUPerGrid
	}
	if p.LinkCap == 0 {
		p.LinkCap = 1.0
	}
	if p.GridInternalCap == 0 {
		p.GridInternalCap = 2.0
	}
	if p.UplinkCap == 0 {
		p.UplinkCap = 2.0
	}
	if p.Generation == 0 {
		p.Generation = 1
	}
}

// RegionParams describes a full region: several DC buildings sharing an
// HGRID aggregation layer and a backbone boundary.
type RegionParams struct {
	Name  string
	DCs   []FabricParams
	HGRID HGRIDParams

	EBs  int
	DRs  int
	EBBs int

	EBCap float64 // EB→DR circuit capacity
	DRCap float64 // DR→EBB circuit capacity
}

func (p *RegionParams) setDefaults() {
	for i := range p.DCs {
		p.DCs[i].setDefaults()
	}
	p.HGRID.setDefaults()
	if p.EBs == 0 {
		p.EBs = 2
	}
	if p.DRs == 0 {
		p.DRs = 2
	}
	if p.EBBs == 0 {
		p.EBBs = 1
	}
	if p.EBCap == 0 {
		p.EBCap = 8
	}
	if p.DRCap == 0 {
		p.DRCap = 16
	}
}

// v1GridOf maps an SSW (plane q, index j) to its v1 grid: planes map to
// grid residues, and when there are more grids than planes the plane's
// SSWs are striped across the extra grids.
func v1GridOf(q, j, grids, planes int) int {
	per := grids / planes
	if per < 1 {
		per = 1
	}
	return (q + planes*(j%per)) % grids
}

// Grid holds the switch IDs of one HGRID grid.
type Grid struct {
	FADUs []topo.SwitchID
	FAUUs []topo.SwitchID
}

// Switches returns all the grid's switches, FADUs first.
func (g *Grid) Switches() []topo.SwitchID {
	out := make([]topo.SwitchID, 0, len(g.FADUs)+len(g.FAUUs))
	out = append(out, g.FADUs...)
	out = append(out, g.FAUUs...)
	return out
}

// Region is a built topology plus the structural references the scenario
// builders need.
type Region struct {
	Params RegionParams
	Topo   *topo.Topology

	RSWs  [][]topo.SwitchID   // [dc][i]
	FSWs  [][]topo.SwitchID   // [dc][i]
	SSWs  [][][]topo.SwitchID // [dc][plane][i]
	Grids []Grid              // generation-1 grids
	EBSw  []topo.SwitchID
	DRSw  []topo.SwitchID
	EBBSw []topo.SwitchID
}

// BuildRegion constructs the generation-1 region topology: fabrics wired to
// HGRID v1 grids, FAUUs uplinked to EBs, and the EB→DR→EBB backbone
// boundary. All elements are active.
func BuildRegion(p RegionParams) *Region {
	p.setDefaults()
	r := &Region{Params: p, Topo: topo.New(p.Name)}
	t := r.Topo

	// Backbone boundary, top-down so lower layers can reference it.
	for i := 0; i < p.EBBs; i++ {
		r.EBBSw = append(r.EBBSw, t.AddSwitch(topo.Switch{
			Name: "ebb" + strconv.Itoa(i), Role: topo.RoleEBB,
			DC: -1, Pod: -1, Plane: -1, Grid: -1, Generation: 1,
		}))
	}
	for i := 0; i < p.DRs; i++ {
		id := t.AddSwitch(topo.Switch{
			Name: "dr" + strconv.Itoa(i), Role: topo.RoleDR,
			DC: -1, Pod: -1, Plane: -1, Grid: -1, Generation: 1,
		})
		r.DRSw = append(r.DRSw, id)
		for _, ebb := range r.EBBSw {
			t.AddCircuit(id, ebb, p.DRCap)
		}
	}
	for i := 0; i < p.EBs; i++ {
		id := t.AddSwitch(topo.Switch{
			Name: "eb" + strconv.Itoa(i), Role: topo.RoleEB,
			DC: -1, Pod: -1, Plane: -1, Grid: -1, Generation: 1,
		})
		r.EBSw = append(r.EBSw, id)
		// Each EB homes to two DRs (or all, when fewer exist).
		n := 2
		if n > p.DRs {
			n = p.DRs
		}
		for k := 0; k < n; k++ {
			t.AddCircuit(id, r.DRSw[(i+k)%p.DRs], p.EBCap)
		}
	}

	// HGRID v1 grids.
	h := p.HGRID
	for g := 0; g < h.Grids; g++ {
		grid := Grid{}
		for i := 0; i < h.FADUPerGrid; i++ {
			grid.FADUs = append(grid.FADUs, t.AddSwitch(topo.Switch{
				Name: "fadu-v1-g" + strconv.Itoa(g) + "-" + strconv.Itoa(i), Role: topo.RoleFADU,
				DC: -1, Pod: -1, Plane: -1, Grid: g, Generation: h.Generation,
			}))
		}
		for i := 0; i < h.FAUUPerGrid; i++ {
			id := t.AddSwitch(topo.Switch{
				Name: "fauu-v1-g" + strconv.Itoa(g) + "-" + strconv.Itoa(i), Role: topo.RoleFAUU,
				DC: -1, Pod: -1, Plane: -1, Grid: g, Generation: h.Generation,
			})
			grid.FAUUs = append(grid.FAUUs, id)
			// Full bipartite FADU↔FAUU inside the grid.
			for _, fd := range grid.FADUs {
				t.AddCircuit(fd, id, h.GridInternalCap)
			}
			// Each FAUU uplinks to two EBs, spread by grid and index.
			n := 2
			if n > p.EBs {
				n = p.EBs
			}
			for k := 0; k < n; k++ {
				t.AddCircuit(id, r.EBSw[(g+i+k*(p.EBs/2+1))%p.EBs], h.UplinkCap)
			}
		}
		r.Grids = append(r.Grids, grid)
	}

	// Fabrics, one per DC.
	for d := range p.DCs {
		r.buildFabric(d)
	}
	return r
}

func (r *Region) buildFabric(d int) {
	p := r.Params.DCs[d]
	h := r.Params.HGRID
	t := r.Topo
	dc := "d" + strconv.Itoa(d)

	// Spine planes.
	ssws := make([][]topo.SwitchID, p.Planes)
	for q := 0; q < p.Planes; q++ {
		for j := 0; j < p.SSWPerPlane; j++ {
			id := t.AddSwitch(topo.Switch{
				Name: dc + "-ssw-q" + strconv.Itoa(q) + "-" + strconv.Itoa(j), Role: topo.RoleSSW,
				DC: d, Pod: -1, Plane: q, Grid: -1, Generation: 1,
			})
			ssws[q] = append(ssws[q], id)
			// SSW downlinks to its v1 grid: planes map to grid residues,
			// and when there are more grids than planes the plane's SSWs
			// are striped across the extra grids.
			g := v1GridOf(q, j, h.Grids, p.Planes)
			for k := 0; k < h.SSWDownlinks; k++ {
				fadu := r.Grids[g].FADUs[(j+k)%h.FADUPerGrid]
				t.AddCircuit(id, fadu, h.LinkCap)
			}
		}
	}
	r.SSWs = append(r.SSWs, ssws)

	// Pods: FSWs and RSWs.
	var fsws, rsws []topo.SwitchID
	for pod := 0; pod < p.Pods; pod++ {
		podName := dc + "-p" + strconv.Itoa(pod)
		podFSWs := make([]topo.SwitchID, 0, p.FSWPerPod)
		for i := 0; i < p.FSWPerPod; i++ {
			id := t.AddSwitch(topo.Switch{
				Name: podName + "-fsw" + strconv.Itoa(i), Role: topo.RoleFSW,
				DC: d, Pod: pod, Plane: -1, Grid: -1, Generation: 1,
			})
			podFSWs = append(podFSWs, id)
			fsws = append(fsws, id)
			// FSW i serves planes q ≡ i (mod FSWPerPod).
			for q := i % p.FSWPerPod; q < p.Planes; q += p.FSWPerPod {
				for u := 0; u < p.FSWUplinks; u++ {
					// Spread pods across the plane's SSWs.
					j := (pod*p.FSWUplinks + u) % p.SSWPerPlane
					t.AddCircuit(id, ssws[q][j], p.FSWUplinkCap)
				}
			}
		}
		for rk := 0; rk < p.RSWPerPod; rk++ {
			id := t.AddSwitch(topo.Switch{
				Name: podName + "-rsw" + strconv.Itoa(rk), Role: topo.RoleRSW,
				DC: d, Pod: pod, Plane: -1, Grid: -1, Generation: 1,
			})
			rsws = append(rsws, id)
			for _, f := range podFSWs {
				t.AddCircuit(id, f, p.RSWUplinkCap)
			}
		}
	}
	r.FSWs = append(r.FSWs, fsws)
	r.RSWs = append(r.RSWs, rsws)
}
