// Package npd implements the Network Product Definition format: the
// declarative JSON description of regional datacenter networks that feeds
// the EDP-Lite pipeline (paper §5).
//
// NPD describes a DCN in six parts — Fabric, HGRID, MA, EB, DR, and BB —
// recording switches by role and position and how the parts interconnect,
// plus hardware properties (port budgets) and the migration to plan. The
// pipeline converts a document into a concrete topology via the generators
// and hands the result to the planners; planner output is serialized back
// as an ordered list of topology phases (one per migration run).
package npd

import (
	"encoding/json"
	"fmt"
	"io"

	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/topo"
)

// Version is the current NPD document version.
const Version = 1

// Document is one NPD file: a region description plus, optionally, the
// migration to perform on it.
type Document struct {
	Version int    `json:"version"`
	Name    string `json:"name"`

	// The six NPD parts (§5). Fabric has one entry per DC building.
	Fabric []FabricPart `json:"fabric"`
	HGRID  *HGRIDPart   `json:"hgrid,omitempty"`
	MA     *MAPart      `json:"ma,omitempty"`
	EB     *EBPart      `json:"eb,omitempty"`
	DR     *DRPart      `json:"dr,omitempty"`
	BB     *BBPart      `json:"bb,omitempty"`

	Hardware  []Hardware     `json:"hardware,omitempty"`
	Demand    *DemandPart    `json:"demand,omitempty"`
	Migration *MigrationPart `json:"migration,omitempty"`
}

// FabricPart describes one building's fabric.
type FabricPart struct {
	DC          int     `json:"dc"`
	Pods        int     `json:"pods"`
	RSWPerPod   int     `json:"rswPerPod"`
	FSWPerPod   int     `json:"fswPerPod,omitempty"`
	Planes      int     `json:"planes"`
	SSWPerPlane int     `json:"sswPerPlane"`
	FSWUplinks  int     `json:"fswUplinks,omitempty"`
	RSWLinkTbps float64 `json:"rswLinkTbps,omitempty"`
	FSWLinkTbps float64 `json:"fswLinkTbps,omitempty"`
}

// HGRIDPart describes the fabric-aggregation layer.
type HGRIDPart struct {
	Generation       int     `json:"generation,omitempty"`
	Grids            int     `json:"grids"`
	FADUPerGrid      int     `json:"faduPerGrid"`
	FAUUPerGrid      int     `json:"fauuPerGrid"`
	SSWDownlinks     int     `json:"sswDownlinks,omitempty"`
	LinkTbps         float64 `json:"linkTbps,omitempty"`
	GridInternalTbps float64 `json:"gridInternalTbps,omitempty"`
	UplinkTbps       float64 `json:"uplinkTbps,omitempty"`
}

// MAPart describes the metro-aggregation (DMAG) layer, present only when
// the region has one or is gaining one through a DMAG migration.
type MAPart struct {
	PerEB     int     `json:"perEB"`
	CapFactor float64 `json:"capFactor,omitempty"`
}

// EBPart describes the backbone-side border routers.
type EBPart struct {
	Count    int     `json:"count"`
	LinkTbps float64 `json:"linkTbps,omitempty"`
}

// DRPart describes the datacenter routers at the DC/backbone boundary.
type DRPart struct {
	Count    int     `json:"count"`
	LinkTbps float64 `json:"linkTbps,omitempty"`
}

// BBPart describes the express-backbone core.
type BBPart struct {
	EBBs int `json:"ebbs"`
}

// Hardware records per-role hardware properties. A Ports value caps the
// physical port budget of every switch with the matching role (and
// generation, when non-zero): scenario builders derive budgets from
// wiring, and the hardware catalog bounds them from above — a chassis
// cannot grow ports because a migration would like it to. Ports of 0
// leaves the scenario-derived budget untouched.
type Hardware struct {
	Role       string `json:"role"`
	Generation int    `json:"generation,omitempty"`
	Ports      int    `json:"ports,omitempty"`
}

// DemandPart parameterizes the forecasted traffic attached to the region.
type DemandPart struct {
	SourcesPerDC int     `json:"sourcesPerDC,omitempty"`
	UpWeight     float64 `json:"upWeight,omitempty"`
	DownWeight   float64 `json:"downWeight,omitempty"`
	EastWeight   float64 `json:"eastWeight,omitempty"`
	BaseUtil     float64 `json:"baseUtil,omitempty"`
}

// Migration kinds accepted in MigrationPart.Kind.
const (
	MigrationHGRID    = "hgrid-v1-v2"
	MigrationForklift = "ssw-forklift"
	MigrationDMAG     = "dmag"
)

// MigrationPart selects and parameterizes the migration to plan.
type MigrationPart struct {
	Kind string `json:"kind"`

	// HGRID V1→V2 parameters.
	V2GridFactor  int     `json:"v2GridFactor,omitempty"`
	V2CapFactor   float64 `json:"v2CapFactor,omitempty"`
	V2FADUPerGrid int     `json:"v2FaduPerGrid,omitempty"`
	V2FAUUPerGrid int     `json:"v2FauuPerGrid,omitempty"`

	// SSW forklift parameters.
	DC             int     `json:"dc,omitempty"`
	GroupsPerPlane int     `json:"groupsPerPlane,omitempty"`
	NewCapFactor   float64 `json:"newCapFactor,omitempty"`

	// DMAG parameters come from the MA part.

	// BlockFactor re-blocks the default operation blocks (Fig. 11);
	// 0 or 1 keeps the organization policy's default.
	BlockFactor float64 `json:"blockFactor,omitempty"`
}

// Decode reads and validates an NPD document from JSON.
func Decode(r io.Reader) (*Document, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var d Document
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("npd: decode: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Encode writes the document as indented JSON.
func (d *Document) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		return fmt.Errorf("npd: encode: %w", err)
	}
	return nil
}

// Validate checks structural consistency of the document.
func (d *Document) Validate() error {
	if d.Version != Version {
		return fmt.Errorf("npd: unsupported version %d (want %d)", d.Version, Version)
	}
	if d.Name == "" {
		return fmt.Errorf("npd: document has no name")
	}
	if len(d.Fabric) == 0 {
		return fmt.Errorf("npd: document has no fabric parts")
	}
	seen := make(map[int]bool)
	for i, f := range d.Fabric {
		if f.Pods <= 0 || f.RSWPerPod <= 0 || f.Planes <= 0 || f.SSWPerPlane <= 0 {
			return fmt.Errorf("npd: fabric part %d has non-positive dimensions", i)
		}
		if seen[f.DC] {
			return fmt.Errorf("npd: duplicate fabric part for DC %d", f.DC)
		}
		seen[f.DC] = true
	}
	if d.HGRID == nil {
		return fmt.Errorf("npd: document has no HGRID part")
	}
	if d.HGRID.Grids <= 0 || d.HGRID.FADUPerGrid <= 0 || d.HGRID.FAUUPerGrid <= 0 {
		return fmt.Errorf("npd: HGRID part has non-positive dimensions")
	}
	if d.EB == nil || d.EB.Count <= 0 {
		return fmt.Errorf("npd: document needs an EB part with count > 0")
	}
	if d.DR == nil || d.DR.Count <= 0 {
		return fmt.Errorf("npd: document needs a DR part with count > 0")
	}
	if d.BB == nil || d.BB.EBBs <= 0 {
		return fmt.Errorf("npd: document needs a BB part with ebbs > 0")
	}
	for i, h := range d.Hardware {
		if _, err := topoParseRole(h.Role); err != nil {
			return fmt.Errorf("npd: hardware entry %d: %w", i, err)
		}
		if h.Ports < 0 {
			return fmt.Errorf("npd: hardware entry %d has negative ports", i)
		}
	}
	if d.Migration != nil {
		switch d.Migration.Kind {
		case MigrationHGRID, MigrationForklift:
		case MigrationDMAG:
			if d.MA == nil || d.MA.PerEB <= 0 {
				return fmt.Errorf("npd: DMAG migration requires an MA part with perEB > 0")
			}
		default:
			return fmt.Errorf("npd: unknown migration kind %q", d.Migration.Kind)
		}
		if f := d.Migration.BlockFactor; f < 0 {
			return fmt.Errorf("npd: negative block factor %v", f)
		}
		if d.Migration.Kind == MigrationForklift {
			if d.Migration.DC < 0 || d.Migration.DC >= len(d.Fabric) {
				return fmt.Errorf("npd: forklift DC %d out of range", d.Migration.DC)
			}
		}
	}
	return nil
}

// RegionParams converts the document's topology parts into generator
// parameters.
func (d *Document) RegionParams() gen.RegionParams {
	p := gen.RegionParams{Name: d.Name}
	for _, f := range d.Fabric {
		p.DCs = append(p.DCs, gen.FabricParams{
			Pods: f.Pods, RSWPerPod: f.RSWPerPod, FSWPerPod: f.FSWPerPod,
			Planes: f.Planes, SSWPerPlane: f.SSWPerPlane, FSWUplinks: f.FSWUplinks,
			RSWUplinkCap: f.RSWLinkTbps, FSWUplinkCap: f.FSWLinkTbps,
		})
	}
	p.HGRID = gen.HGRIDParams{
		Grids: d.HGRID.Grids, FADUPerGrid: d.HGRID.FADUPerGrid,
		FAUUPerGrid: d.HGRID.FAUUPerGrid, SSWDownlinks: d.HGRID.SSWDownlinks,
		LinkCap: d.HGRID.LinkTbps, GridInternalCap: d.HGRID.GridInternalTbps,
		UplinkCap: d.HGRID.UplinkTbps, Generation: d.HGRID.Generation,
	}
	p.EBs = d.EB.Count
	p.DRs = d.DR.Count
	p.EBBs = d.BB.EBBs
	p.EBCap = d.EB.LinkTbps
	p.DRCap = d.DR.LinkTbps
	return p
}

// DemandSpec converts the demand part (which may be nil) into generator
// parameters.
func (d *Document) DemandSpec() gen.DemandSpec {
	if d.Demand == nil {
		return gen.DemandSpec{}
	}
	return gen.DemandSpec{
		SourcesPerDC: d.Demand.SourcesPerDC,
		UpWeight:     d.Demand.UpWeight,
		DownWeight:   d.Demand.DownWeight,
		EastWeight:   d.Demand.EastWeight,
		BaseUtil:     d.Demand.BaseUtil,
	}
}

// Task builds the migration task the document describes: its scenario, the
// hardware catalog's port caps, then the migration's block factor. Every
// consumer that plans, replans or audits a document builds its task here,
// so a plan's block names are the ones its audit and resume look up. The
// scenario comes back too; its Task is the one before re-blocking.
func (d *Document) Task() (*migration.Task, *gen.Scenario, error) {
	s, err := d.Scenario()
	if err != nil {
		return nil, nil, err
	}
	task := s.Task
	if f := d.Migration.BlockFactor; f > 0 && f != 1 {
		if task, err = migration.Reblock(task, f); err != nil {
			return nil, nil, err
		}
	}
	return task, s, nil
}

// Scenario builds the migration scenario the document describes. The
// document must carry a Migration part. Hardware entries cap the
// scenario-derived port budgets afterwards. It does not apply the block
// factor; Task does.
func (d *Document) Scenario() (*gen.Scenario, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Migration == nil {
		return nil, fmt.Errorf("npd: document %q has no migration part", d.Name)
	}
	region := d.RegionParams()
	spec := d.DemandSpec()
	var s *gen.Scenario
	var err error
	switch d.Migration.Kind {
	case MigrationHGRID:
		s, err = gen.HGRIDScenario(d.Name, gen.HGRIDScenarioParams{
			Region:        region,
			Demand:        spec,
			V2GridFactor:  d.Migration.V2GridFactor,
			V2CapFactor:   d.Migration.V2CapFactor,
			V2FADUPerGrid: d.Migration.V2FADUPerGrid,
			V2FAUUPerGrid: d.Migration.V2FAUUPerGrid,
		})
	case MigrationForklift:
		s, err = gen.ForkliftScenario(d.Name, gen.ForkliftParams{
			Region:         region,
			Demand:         spec,
			DC:             d.Migration.DC,
			GroupsPerPlane: d.Migration.GroupsPerPlane,
			NewCapFactor:   d.Migration.NewCapFactor,
		})
	case MigrationDMAG:
		params := gen.DMAGParams{Region: region, Demand: spec, MAPerEB: d.MA.PerEB}
		if d.MA.CapFactor > 0 {
			params.MACapFactor = d.MA.CapFactor
		}
		s, err = gen.DMAGScenario(d.Name, params)
	default:
		return nil, fmt.Errorf("npd: unknown migration kind %q", d.Migration.Kind)
	}
	if err != nil {
		return nil, err
	}
	if err := d.applyHardware(s); err != nil {
		return nil, err
	}
	return s, nil
}

// applyHardware caps port budgets per the hardware catalog. A cap below a
// switch's *base-state* active degree would make the current network
// invalid, which indicates an inconsistent document.
func (d *Document) applyHardware(s *gen.Scenario) error {
	if len(d.Hardware) == 0 {
		return nil
	}
	t := s.Task.Topo
	for _, h := range d.Hardware {
		if h.Ports <= 0 {
			continue
		}
		role, err := topoParseRole(h.Role)
		if err != nil {
			return err
		}
		for i := 0; i < t.NumSwitches(); i++ {
			sw := t.Switch(topoSwitchID(i))
			if sw.Role != role {
				continue
			}
			if h.Generation != 0 && sw.Generation != h.Generation {
				continue
			}
			if deg := t.ActiveDegree(sw.ID); deg > h.Ports {
				return fmt.Errorf("npd: hardware cap %d ports on %s below %s's current %d active circuits",
					h.Ports, h.Role, sw.Name, deg)
			}
			if sw.Ports == 0 || sw.Ports > h.Ports {
				t.SetPorts(sw.ID, h.Ports)
			}
		}
	}
	// The capped task must still be structurally valid.
	return s.Task.Topo.Validate()
}

// FromRegionParams builds a topology-only NPD document (no migration part)
// from generator parameters. It is the inverse of RegionParams for fields
// NPD records.
func FromRegionParams(name string, p gen.RegionParams) *Document {
	d := &Document{Version: Version, Name: name}
	for dc, f := range p.DCs {
		d.Fabric = append(d.Fabric, FabricPart{
			DC: dc, Pods: f.Pods, RSWPerPod: f.RSWPerPod, FSWPerPod: f.FSWPerPod,
			Planes: f.Planes, SSWPerPlane: f.SSWPerPlane, FSWUplinks: f.FSWUplinks,
			RSWLinkTbps: f.RSWUplinkCap, FSWLinkTbps: f.FSWUplinkCap,
		})
	}
	d.HGRID = &HGRIDPart{
		Generation: p.HGRID.Generation, Grids: p.HGRID.Grids,
		FADUPerGrid: p.HGRID.FADUPerGrid, FAUUPerGrid: p.HGRID.FAUUPerGrid,
		SSWDownlinks: p.HGRID.SSWDownlinks, LinkTbps: p.HGRID.LinkCap,
		GridInternalTbps: p.HGRID.GridInternalCap, UplinkTbps: p.HGRID.UplinkCap,
	}
	d.EB = &EBPart{Count: p.EBs, LinkTbps: p.EBCap}
	d.DR = &DRPart{Count: p.DRs, LinkTbps: p.DRCap}
	d.BB = &BBPart{EBBs: p.EBBs}
	return d
}

// topoParseRole and topoSwitchID keep the gen/topo import surface in one
// place for the hardware catalog.
func topoParseRole(s string) (topo.Role, error) { return topo.ParseRole(s) }
func topoSwitchID(i int) topo.SwitchID          { return topo.SwitchID(i) }
