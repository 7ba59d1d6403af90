package npd

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"klotski/internal/core"
	"klotski/internal/gen"
)

// sampleDoc returns a small, valid NPD document with an HGRID migration.
func sampleDoc() *Document {
	return &Document{
		Version: Version,
		Name:    "region-test",
		Fabric: []FabricPart{
			{DC: 0, Pods: 2, RSWPerPod: 2, Planes: 4, SSWPerPlane: 2, FSWUplinks: 1},
		},
		HGRID:     &HGRIDPart{Grids: 4, FADUPerGrid: 2, FAUUPerGrid: 1, SSWDownlinks: 1},
		EB:        &EBPart{Count: 2, LinkTbps: 40},
		DR:        &DRPart{Count: 1, LinkTbps: 80},
		BB:        &BBPart{EBBs: 1},
		Migration: &MigrationPart{Kind: MigrationHGRID},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	doc := sampleDoc()
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != doc.Name || len(got.Fabric) != 1 || got.HGRID.Grids != 4 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Migration == nil || got.Migration.Kind != MigrationHGRID {
		t.Fatal("round trip lost migration part")
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	for field, js := range map[string]string{
		"bogus": `{"version":1,"name":"x","bogus":true}`,
		// Growth comes only from the planner's forecast (-growth); a
		// document asking for it must not be planned silently without it.
		"growthPerStep": `{"version":1,"name":"x","demand":{"baseUtil":0.4,"growthPerStep":0.01}}`,
	} {
		_, err := Decode(strings.NewReader(js))
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("unknown field %q should be rejected by name, got %v", field, err)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("{not json")); err == nil {
		t.Error("garbage should be rejected")
	}
}

func TestValidateErrors(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Document)
	}{
		{"bad version", func(d *Document) { d.Version = 99 }},
		{"no name", func(d *Document) { d.Name = "" }},
		{"no fabric", func(d *Document) { d.Fabric = nil }},
		{"bad fabric dims", func(d *Document) { d.Fabric[0].Pods = 0 }},
		{"dup DC", func(d *Document) { d.Fabric = append(d.Fabric, d.Fabric[0]) }},
		{"no hgrid", func(d *Document) { d.HGRID = nil }},
		{"bad hgrid", func(d *Document) { d.HGRID.Grids = 0 }},
		{"no eb", func(d *Document) { d.EB = nil }},
		{"no dr", func(d *Document) { d.DR = nil }},
		{"no bb", func(d *Document) { d.BB = nil }},
		{"bad migration", func(d *Document) { d.Migration.Kind = "bogus" }},
		{"dmag without ma", func(d *Document) { d.Migration.Kind = MigrationDMAG }},
		{"forklift bad dc", func(d *Document) { d.Migration.Kind = MigrationForklift; d.Migration.DC = 5 }},
		{"negative factor", func(d *Document) { d.Migration.BlockFactor = -1 }},
	}
	for _, m := range mutations {
		doc := sampleDoc()
		m.mut(doc)
		if err := doc.Validate(); err == nil {
			t.Errorf("%s: validation should fail", m.name)
		}
	}
}

func TestRegionParamsRoundTrip(t *testing.T) {
	doc := sampleDoc()
	params := doc.RegionParams()
	back := FromRegionParams(doc.Name, params)
	if back.HGRID.Grids != doc.HGRID.Grids || back.EB.Count != doc.EB.Count ||
		len(back.Fabric) != len(doc.Fabric) || back.Fabric[0].Pods != doc.Fabric[0].Pods {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, doc)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("reconstructed document invalid: %v", err)
	}
}

func TestScenarioFromDocument(t *testing.T) {
	doc := sampleDoc()
	s, err := doc.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if s.Task.NumActions() == 0 {
		t.Fatal("scenario has no actions")
	}
	if _, err := core.PlanAStar(s.Task, core.Options{}); err != nil {
		t.Fatalf("NPD-built scenario unplannable: %v", err)
	}
}

func TestScenarioDMAG(t *testing.T) {
	doc := sampleDoc()
	doc.MA = &MAPart{PerEB: 2, CapFactor: 0.8}
	doc.Migration = &MigrationPart{Kind: MigrationDMAG}
	s, err := doc.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Task.TopologyChanging {
		t.Error("DMAG scenario should be topology-changing")
	}
}

func TestScenarioForklift(t *testing.T) {
	doc := sampleDoc()
	doc.Migration = &MigrationPart{Kind: MigrationForklift, DC: 0, GroupsPerPlane: 2}
	s, err := doc.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if s.Task.TopologyChanging {
		t.Error("forklift should not be topology-changing")
	}
}

func TestScenarioWithoutMigrationErrors(t *testing.T) {
	doc := sampleDoc()
	doc.Migration = nil
	if _, err := doc.Scenario(); err == nil {
		t.Error("Scenario without migration part should error")
	}
}

func TestBuildPlanDocument(t *testing.T) {
	doc := sampleDoc()
	s, err := doc.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := BuildPlanDocument(s.Task, plan, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pd.Phases) != len(plan.Runs) {
		t.Fatalf("phases = %d, runs = %d", len(pd.Phases), len(plan.Runs))
	}
	if pd.Theta != 0.75 {
		t.Errorf("default theta should render as 0.75, got %v", pd.Theta)
	}
	totalOps := 0
	for i, ph := range pd.Phases {
		if ph.Index != i+1 {
			t.Errorf("phase %d has index %d", i, ph.Index)
		}
		if ph.MaxUtilization <= 0 || ph.MaxUtilization > 0.75+1e-9 {
			t.Errorf("phase %d max util %v outside (0, θ]", i, ph.MaxUtilization)
		}
		totalOps += ph.SwitchOps
	}
	if totalOps != s.Task.NumSwitchOps() {
		t.Errorf("phases cover %d switch ops, task has %d", totalOps, s.Task.NumSwitchOps())
	}

	// Plan document round trip.
	var buf bytes.Buffer
	if err := pd.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := DecodePlan(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cost != pd.Cost || len(back.Phases) != len(pd.Phases) {
		t.Fatal("plan document round trip mismatch")
	}
}

func TestFromRegionParamsForSuite(t *testing.T) {
	// The Table-3 "A" region survives a params → NPD → params round trip
	// and still builds.
	s, err := gen.TopologyA(0.2)
	if err != nil {
		t.Fatal(err)
	}
	doc := FromRegionParams("A", s.Region.Params)
	if err := doc.Validate(); err != nil {
		t.Fatalf("NPD from suite params invalid: %v", err)
	}
	params := doc.RegionParams()
	r := gen.BuildRegion(params)
	if r.Topo.NumSwitches() == 0 {
		t.Fatal("rebuilt region is empty")
	}
}

func TestBuildPlanDocumentFrom(t *testing.T) {
	doc := sampleDoc()
	s, err := doc.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := len(full.Runs[0].Blocks)
	executed := full.Sequence[:k]
	rest, err := core.PlanAStar(s.Task, core.Options{Executed: executed})
	if err != nil {
		t.Fatal(err)
	}
	pd, err := BuildPlanDocumentFrom(s.Task, executed, rest, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pd.Phases) != len(rest.Runs) {
		t.Fatalf("phases %d != runs %d", len(pd.Phases), len(rest.Runs))
	}
	// Every snapshot must reflect the executed prefix: a resumed phase shows
	// the network state of the full document's phase that ends at the same
	// sequence position. Both plans are canonical, so equal positions are
	// equal states once the remainders agree.
	if !slices.Equal(rest.Sequence, full.Sequence[k:]) {
		t.Fatalf("resumed plan %v does not continue the full plan %v", rest.Sequence, full.Sequence)
	}
	fullDoc, err := BuildPlanDocument(s.Task, full, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullAt := map[int]Phase{}
	pos := 0
	for _, ph := range fullDoc.Phases {
		pos += len(ph.Blocks)
		fullAt[pos] = ph
	}
	pos = k
	for _, ph := range pd.Phases {
		pos += len(ph.Blocks)
		if ph.MaxUtilization > 0.75+1e-9 {
			t.Errorf("resumed phase %d exceeds theta: %v", ph.Index, ph.MaxUtilization)
		}
		want, ok := fullAt[pos]
		if !ok {
			t.Errorf("resumed phase %d ends at position %d, where no full phase ends", ph.Index, pos)
			continue
		}
		if ph.ActiveSwitches != want.ActiveSwitches || ph.UpCircuits != want.UpCircuits ||
			ph.CapacityTbps != want.CapacityTbps || ph.MaxUtilization != want.MaxUtilization {
			t.Errorf("resumed phase %d (position %d) = %+v, full phase %d = %+v", ph.Index, pos, ph, want.Index, want)
		}
	}
}

func TestHardwarePortCaps(t *testing.T) {
	// Capping SSW ports below the scenario-derived budget tightens the
	// migration: planning still works but cannot get cheaper, and an
	// impossible cap (below the current active degree) is rejected.
	base := sampleDoc()
	sBase, err := base.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	pBase, err := core.PlanAStar(sBase.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Find the scenario's SSW budget to cap just below it.
	var sswBudget, sswDegree int
	for i := 0; i < sBase.Task.Topo.NumSwitches(); i++ {
		sw := sBase.Task.Topo.Switch(topoSwitchID(i))
		if sw.Role.String() == "SSW" {
			sswBudget = sw.Ports
			sswDegree = sBase.Task.Topo.ActiveDegree(sw.ID)
			break
		}
	}
	if sswBudget <= sswDegree {
		t.Fatalf("scenario SSW budget %d not above degree %d", sswBudget, sswDegree)
	}

	capped := sampleDoc()
	capped.Hardware = []Hardware{{Role: "SSW", Ports: sswDegree}}
	sCapped, err := capped.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	pCapped, err := core.PlanAStar(sCapped.Task, core.Options{})
	if err == nil {
		if pCapped.Cost < pBase.Cost {
			t.Errorf("tighter hardware made the plan cheaper: %v vs %v", pCapped.Cost, pBase.Cost)
		}
	} // fully port-locked SSWs may legitimately make the task infeasible

	// A cap below the current active degree is an inconsistent document.
	bad := sampleDoc()
	bad.Hardware = []Hardware{{Role: "SSW", Ports: 1}}
	if _, err := bad.Scenario(); err == nil {
		t.Error("hardware cap below active degree should be rejected")
	}

	// Unknown roles fail validation.
	invalid := sampleDoc()
	invalid.Hardware = []Hardware{{Role: "TOASTER", Ports: 4}}
	if err := invalid.Validate(); err == nil {
		t.Error("unknown hardware role should fail validation")
	}
}

func TestHardwareGenerationScoping(t *testing.T) {
	doc := sampleDoc()
	// Cap only generation-2 FADUs: generation-1 budgets stay untouched.
	doc.Hardware = []Hardware{{Role: "FADU", Generation: 2, Ports: 64}}
	s, err := doc.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.Task.Topo.NumSwitches(); i++ {
		sw := s.Task.Topo.Switch(topoSwitchID(i))
		if sw.Role.String() != "FADU" {
			continue
		}
		if sw.Generation == 2 && (sw.Ports == 0 || sw.Ports > 64) {
			t.Errorf("gen-2 FADU %s ports = %d, want ≤ 64", sw.Name, sw.Ports)
		}
		if sw.Generation == 1 && sw.Ports != 0 {
			t.Errorf("gen-1 FADU %s should stay unconstrained, got %d", sw.Name, sw.Ports)
		}
	}
}
