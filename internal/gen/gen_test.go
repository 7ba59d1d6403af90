package gen

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"klotski/internal/baseline"
	"klotski/internal/core"
	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

const testScale = 0.12

func buildSuite(t *testing.T, name string, scale float64) *Scenario {
	t.Helper()
	s, err := Suite(name, scale)
	if err != nil {
		t.Fatalf("Suite(%s, %v): %v", name, scale, err)
	}
	return s
}

func TestSuiteNames(t *testing.T) {
	names := SuiteNames()
	want := []string{"A", "B", "C", "D", "E", "E-DMAG", "E-SSW"}
	if len(names) != len(want) {
		t.Fatalf("SuiteNames = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("SuiteNames = %v, want %v", names, want)
		}
	}
	if _, err := Suite("nope", 1); err == nil {
		t.Error("unknown suite name should error")
	}
}

func TestAllScenariosValidate(t *testing.T) {
	for _, name := range SuiteNames() {
		s := buildSuite(t, name, testScale)
		if err := s.Task.Topo.Validate(); err != nil {
			t.Errorf("%s topology invalid: %v", name, err)
		}
		if err := s.Task.Validate(); err != nil {
			t.Errorf("%s task invalid: %v", name, err)
		}
		if s.Task.NumActions() == 0 {
			t.Errorf("%s has no actions", name)
		}
	}
}

func TestAllScenariosPlannable(t *testing.T) {
	for _, name := range SuiteNames() {
		s := buildSuite(t, name, testScale)
		p, err := core.PlanAStar(s.Task, core.Options{})
		if err != nil {
			t.Errorf("%s unplannable at default θ: %v", name, err)
			continue
		}
		if err := core.VerifyPlan(s.Task, p.Sequence, core.Options{}); err != nil {
			t.Errorf("%s plan failed verification: %v", name, err)
		}
		if p.Cost < 2 {
			t.Errorf("%s plan cost %v suspiciously low", name, p.Cost)
		}
	}
}

func TestCalibrationPinsMaxUtil(t *testing.T) {
	for _, name := range []string{"A", "C", "E-DMAG"} {
		s := buildSuite(t, name, testScale)
		eval := routing.NewEvaluator(s.Task.Topo)
		res, viol := eval.Evaluate(s.Task.Topo.NewView(), &s.Task.Demands, routing.CheckOpts{Theta: 1e9})
		if !viol.OK() {
			t.Fatalf("%s base state violates: %v", name, viol)
		}
		if math.Abs(res.MaxUtil-s.BaseUtil) > 1e-6 {
			t.Errorf("%s base max util = %v, want %v", name, res.MaxUtil, s.BaseUtil)
		}
	}
}

// The migrated layer must be the binding layer: the calibration-pinned
// peak-utilization circuit must touch the equipment being migrated.
func TestBindingLayerIsMigrated(t *testing.T) {
	cases := map[string][]topo.Role{
		"A":     {topo.RoleFADU, topo.RoleFAUU},
		"E":     {topo.RoleFADU, topo.RoleFAUU},
		"E-SSW": {topo.RoleSSW, topo.RoleFADU, topo.RoleFAUU},
		// DMAG drains FAUU→EB circuits.
		"E-DMAG": {topo.RoleFAUU, topo.RoleEB},
	}
	for name, roles := range cases {
		s := buildSuite(t, name, testScale)
		tp := s.Task.Topo
		eval := routing.NewEvaluator(tp)
		res, _ := eval.Evaluate(tp.NewView(), &s.Task.Demands, routing.CheckOpts{Theta: 1e9})
		ck := tp.Circuit(res.MaxUtilCircuit)
		ra, rb := tp.Switch(ck.A).Role, tp.Switch(ck.B).Role
		ok := false
		for _, r := range roles {
			if ra == r || rb == r {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s binding circuit is %s-%s, expected one of %v", name, ra, rb, roles)
		}
	}
}

func TestTargetStateIsSafe(t *testing.T) {
	for _, name := range SuiteNames() {
		s := buildSuite(t, name, testScale)
		eval := routing.NewEvaluator(s.Task.Topo)
		if viol := eval.Check(s.Task.TargetView(), &s.Task.Demands, routing.CheckOpts{}); !viol.OK() {
			t.Errorf("%s target state unsafe: %v", name, viol)
		}
	}
}

func TestHGRIDThetaSensitivity(t *testing.T) {
	s := buildSuite(t, "E", testScale)
	var costs []float64
	for _, theta := range []float64{0.55, 0.75, 0.95} {
		p, err := core.PlanAStar(s.Task, core.Options{Theta: theta})
		if err != nil {
			t.Fatalf("theta %v: %v", theta, err)
		}
		costs = append(costs, p.Cost)
	}
	if !(costs[0] >= costs[1] && costs[1] >= costs[2]) {
		t.Errorf("costs should be non-increasing in theta: %v", costs)
	}
	if costs[0] == costs[2] {
		t.Errorf("theta sweep should change cost, got flat %v", costs)
	}
}

func TestHGRIDPortBudgetForcesInterleaving(t *testing.T) {
	s := buildSuite(t, "E", testScale)
	p, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Runs) < 4 {
		t.Errorf("HGRID plan should interleave drains and undrains, got %d runs", len(p.Runs))
	}
	// The trivial undrain-all-then-drain-all plan must NOT verify.
	var und, dr []int
	for i := range s.Task.Blocks {
		if s.Task.Types[s.Task.Blocks[i].Type].Op == migration.Undrain {
			und = append(und, i)
		} else {
			dr = append(dr, i)
		}
	}
	trivial := append(append([]int{}, und...), dr...)
	if err := core.VerifyPlan(s.Task, trivial, core.Options{}); err == nil {
		t.Error("undrain-everything-first should violate SSW port budgets")
	}
}

func TestDMAGOnlyKlotskiPlans(t *testing.T) {
	s := buildSuite(t, "E-DMAG", testScale)
	if !s.Task.TopologyChanging {
		t.Fatal("DMAG task must be marked topology-changing")
	}
	if _, err := core.PlanAStar(s.Task, core.Options{}); err != nil {
		t.Errorf("Klotski should plan DMAG: %v", err)
	}
}

func TestDMAGDirectCircuitsHaveMetric2(t *testing.T) {
	s := buildSuite(t, "E-DMAG", testScale)
	tp := s.Task.Topo
	found := 0
	for c := 0; c < tp.NumCircuits(); c++ {
		ck := tp.Circuit(topo.CircuitID(c))
		ra, rb := tp.Switch(ck.A).Role, tp.Switch(ck.B).Role
		if (ra == topo.RoleFAUU && rb == topo.RoleEB) || (ra == topo.RoleEB && rb == topo.RoleFAUU) {
			if ck.Metric != 2 {
				t.Fatalf("direct FAUU-EB circuit %d has metric %d, want 2", c, ck.Metric)
			}
			found++
		}
	}
	if found == 0 {
		t.Fatal("no direct FAUU-EB circuits found")
	}
}

func TestForkliftMirrorsWiring(t *testing.T) {
	s := buildSuite(t, "E-SSW", testScale)
	tp := s.Task.Topo
	// Every generation-2 SSW must have the same neighbor count as its
	// generation-1 counterpart, at 1.5× capacity.
	count := 0
	for i := 0; i < tp.NumSwitches(); i++ {
		sw := tp.Switch(topo.SwitchID(i))
		if sw.Role != topo.RoleSSW || sw.Generation != 2 {
			continue
		}
		count++
		if tp.SwitchActive(sw.ID) {
			t.Fatalf("new SSW %s should start inactive", sw.Name)
		}
		if len(sw.Circuits()) == 0 {
			t.Fatalf("new SSW %s has no wiring", sw.Name)
		}
	}
	if count == 0 {
		t.Fatal("no generation-2 SSWs found")
	}
}

func TestReblockedScenarioFactorQuarterHarderOrInfeasible(t *testing.T) {
	s := buildSuite(t, "E", testScale)
	base, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := migration.Reblock(s.Task, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.PlanAStar(coarse, core.Options{})
	if err != nil {
		if !errors.Is(err, core.ErrInfeasible) {
			t.Fatalf("unexpected error: %v", err)
		}
		return // infeasible, matching the paper's 0.25× cross
	}
	if p.Cost < base.Cost {
		t.Errorf("coarser blocks should not lower cost: %v vs %v", p.Cost, base.Cost)
	}
}

func TestReblockedScenarioFinerNotWorse(t *testing.T) {
	s := buildSuite(t, "A", testScale)
	base, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := migration.Reblock(s.Task, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.PlanAStar(fine, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost > base.Cost+1e-9 {
		t.Errorf("finer blocks should not raise optimal cost: %v vs %v", p.Cost, base.Cost)
	}
}

func TestScaleGrowsTopology(t *testing.T) {
	small := buildSuite(t, "C", 0.1)
	big := buildSuite(t, "C", 0.3)
	ss, bs := small.Task.Topo.Stats(), big.Task.Topo.Stats()
	if bs.TotalSwitches <= ss.TotalSwitches || bs.TotalCircuits <= ss.TotalCircuits {
		t.Errorf("scale should grow topology: %v vs %v", ss, bs)
	}
}

func TestTableThreeOrdering(t *testing.T) {
	// Switch counts must ascend A → E like Table 3.
	prev := -1
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		s := buildSuite(t, name, testScale)
		n := s.Task.Topo.Stats().Switches
		if n <= prev {
			t.Errorf("%s switch count %d not greater than predecessor %d", name, n, prev)
		}
		prev = n
	}
}

func TestShapeLayerCapacities(t *testing.T) {
	r := BuildRegion(RegionParams{
		Name:  "shape-test",
		DCs:   []FabricParams{{Pods: 2, RSWPerPod: 2, Planes: 4, SSWPerPlane: 2}},
		HGRID: HGRIDParams{Grids: 4, FADUPerGrid: 2, FAUUPerGrid: 1},
	})
	ds := BuildDemands(r, DemandSpec{})
	targets := map[string]float64{"SSW-FADU": 1.0, "FSW-SSW": 0.5}
	peaks, _, err := ShapeLayerCapacities(r.Topo, &ds, targets)
	if err != nil {
		t.Fatal(err)
	}
	eval := routing.NewEvaluator(r.Topo)
	eval.Evaluate(r.Topo.NewView(), &ds, routing.CheckOpts{Theta: 1e9})
	maxPer := map[string]float64{}
	for c := 0; c < r.Topo.NumCircuits(); c++ {
		cid := topo.CircuitID(c)
		ck := r.Topo.Circuit(cid)
		ab, ba := eval.CircuitLoad(cid)
		layer := layerOf(r.Topo, ck).String()
		if u := (ab + ba) / ck.Capacity; u > maxPer[layer] {
			maxPer[layer] = u
		}
	}
	for layer, want := range targets {
		if math.Abs(maxPer[layer]-want) > 1e-6 {
			t.Errorf("layer %s peak = %v, want %v", layer, maxPer[layer], want)
		}
		if math.Abs(peaks[layer]-want) > 1e-6 {
			t.Errorf("reported peak for %s = %v, want %v", layer, peaks[layer], want)
		}
	}
}

// TestShapedCalibrationMatchesCalibrate: the shaped builders calibrate demand
// from the placement shaping routed, and must land on exactly what Calibrate
// computes by routing the finished topology again. The shortcut rests on
// everything a builder adds after shaping (switches, and circuits on them)
// being down in the base state, which is asserted here against a fresh
// region: the shaping pass routes the region as BuildRegion built it.
func TestShapedCalibrationMatchesCalibrate(t *testing.T) {
	spec := DemandSpec{}
	spec.setDefaults()
	for _, name := range SuiteNames() {
		for _, scale := range []float64{0.25, 0.5} {
			s := buildSuite(t, name, scale)
			tp := s.Task.Topo
			fresh := BuildRegion(s.Region.Params).Topo
			view := tp.NewView()
			for i := 0; i < tp.NumSwitches(); i++ {
				id := topo.SwitchID(i)
				if want := i < fresh.NumSwitches() && fresh.SwitchActive(id); view.SwitchActive(id) != want {
					t.Errorf("%s×%g: switch %s active = %v in the base state, want %v",
						name, scale, tp.Switch(id).Name, view.SwitchActive(id), want)
				}
			}
			for c := fresh.NumCircuits(); c < tp.NumCircuits(); c++ {
				if view.CircuitUp(topo.CircuitID(c)) {
					t.Errorf("%s×%g: circuit %d, added after shaping, is up in the base state", name, scale, c)
				}
			}

			want, _, err := Calibrate(tp, BuildDemands(s.Region, spec), spec.BaseUtil)
			if err != nil {
				t.Fatal(err)
			}
			got := s.Task.Demands.Demands
			if len(got) != len(want.Demands) {
				t.Fatalf("%s×%g: %d demands, Calibrate gives %d", name, scale, len(got), len(want.Demands))
			}
			for i, d := range got {
				w := want.Demands[i]
				if d.Name != w.Name || d.Src != w.Src || d.Dst != w.Dst || math.Float64bits(d.Rate) != math.Float64bits(w.Rate) {
					t.Errorf("%s×%g: demand %d = %+v, Calibrate gives %+v", name, scale, i, d, w)
				}
			}
		}
	}
}

func TestShapeRejectsBadTarget(t *testing.T) {
	r := BuildRegion(RegionParams{
		Name:  "shape-bad",
		DCs:   []FabricParams{{Pods: 1, RSWPerPod: 1, Planes: 4, SSWPerPlane: 1}},
		HGRID: HGRIDParams{Grids: 4, FADUPerGrid: 1, FAUUPerGrid: 1},
	})
	ds := BuildDemands(r, DemandSpec{})
	if _, _, err := ShapeLayerCapacities(r.Topo, &ds, map[string]float64{"SSW-FADU": -1}); err == nil {
		t.Error("negative target should error")
	}
}

func TestBuildDemandsDestinationsBounded(t *testing.T) {
	s := buildSuite(t, "E", testScale)
	dsts := s.Task.Demands.Destinations()
	if len(dsts) > 24 {
		t.Errorf("%d distinct destinations; checks scale with this — keep it bounded", len(dsts))
	}
	if len(dsts) < 3 {
		t.Errorf("too few destinations (%d) to exercise routing", len(dsts))
	}
}

func TestMRCAndJanusOnScenario(t *testing.T) {
	s := buildSuite(t, "B", testScale)
	opt, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mrc, err := baseline.PlanMRC(s.Task, core.Options{})
	if err != nil {
		t.Fatalf("MRC on B: %v", err)
	}
	if mrc.Cost < opt.Cost-1e-9 {
		t.Errorf("MRC cost %v below optimal %v", mrc.Cost, opt.Cost)
	}
	if err := core.VerifyPlanFreeOrder(s.Task, mrc.Sequence, core.Options{}); err != nil {
		t.Errorf("MRC plan invalid: %v", err)
	}
	j, err := baseline.PlanJanus(s.Task, core.Options{MaxStates: 500_000})
	if err != nil {
		if errors.Is(err, core.ErrBudget) {
			// Little symmetry in generated regions: Janus's subset space
			// can legitimately exhaust its budget (the paper's 24h cap).
			t.Logf("Janus budget-crossed on B: %v", err)
			return
		}
		t.Fatalf("Janus on B: %v", err)
	}
	if math.Abs(j.Cost-opt.Cost) > 1e-9 {
		t.Errorf("Janus cost %v != optimal %v", j.Cost, opt.Cost)
	}
	if err := core.VerifyPlanFreeOrder(s.Task, j.Sequence, core.Options{}); err != nil {
		t.Errorf("Janus plan invalid: %v", err)
	}
}

// TestGeneratorDeterminism: identical parameters must produce identical
// topologies, demands, and therefore identical optimal plans — experiments
// depend on it.
func TestGeneratorDeterminism(t *testing.T) {
	a := buildSuite(t, "C", testScale)
	b := buildSuite(t, "C", testScale)
	sa, sb := a.Task.Topo.Stats(), b.Task.Topo.Stats()
	if sa.TotalSwitches != sb.TotalSwitches || sa.TotalCircuits != sb.TotalCircuits ||
		sa.Capacity != sb.Capacity {
		t.Fatalf("topology stats differ: %+v vs %+v", sa, sb)
	}
	for i := 0; i < a.Task.Topo.NumSwitches(); i++ {
		if a.Task.Topo.Switch(topo.SwitchID(i)).Name != b.Task.Topo.Switch(topo.SwitchID(i)).Name {
			t.Fatalf("switch %d name differs", i)
		}
	}
	if a.Task.Demands.Total() != b.Task.Demands.Total() {
		t.Fatal("demand totals differ")
	}
	pa, err := core.PlanAStar(a.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := core.PlanAStar(b.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Cost != pb.Cost || len(pa.Sequence) != len(pb.Sequence) {
		t.Fatal("plans differ across identical builds")
	}
	for i := range pa.Sequence {
		if pa.Sequence[i] != pb.Sequence[i] {
			t.Fatalf("plan sequences diverge at %d", i)
		}
	}
}

// TestSplitRolesGranularity checks the |A|=4 action-type ablation: the
// migration stays plannable, costs at least as much as the merged-block
// default (finer crew scheduling cannot be free), and A* keeps agreeing
// with DP.
func TestSplitRolesGranularity(t *testing.T) {
	base := buildSuite(t, "C", testScale)
	split, err := HGRIDScenario("C-split", HGRIDScenarioParams{
		Region:        base.Region.Params,
		SplitRoles:    true,
		V2FADUPerGrid: sc(15, testScale, 2),
		V2FAUUPerGrid: sc(6, testScale, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if split.Task.NumTypes() != 4 {
		t.Fatalf("split-role task has %d types, want 4", split.Task.NumTypes())
	}
	pa, err := core.PlanAStar(split.Task, core.Options{})
	if err != nil {
		t.Fatalf("split-role task unplannable: %v", err)
	}
	pd, err := core.PlanDP(split.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pa.Cost-pd.Cost) > 1e-9 {
		t.Fatalf("A* %v != DP %v on split-role task", pa.Cost, pd.Cost)
	}
	merged, err := core.PlanAStar(base.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pa.Cost < merged.Cost-1e-9 {
		t.Errorf("finer types should not beat merged blocks: %v vs %v", pa.Cost, merged.Cost)
	}
	if err := core.VerifyPlan(split.Task, pa.Sequence, core.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Logf("split-role cost %v (A* %d states) vs merged cost %v (A* %d states)",
		pa.Cost, pa.Metrics.StatesPopped, merged.Cost, merged.Metrics.StatesPopped)
}

// TestJointScenario exercises the §2.2 multiple-DC coupling: two regions
// migrated in one plan, coupled by inter-region demands over WAN circuits.
func TestJointScenario(t *testing.T) {
	paramsA, err := SuiteParams("A", testScale)
	if err != nil {
		t.Fatal(err)
	}
	paramsB, err := SuiteParams("B", testScale)
	if err != nil {
		t.Fatal(err)
	}
	s, err := JointScenario("joint", JointParams{A: paramsA, B: paramsB})
	if err != nil {
		t.Fatal(err)
	}
	if s.Task.NumTypes() != 4 {
		t.Fatalf("joint task has %d types, want 4 (2 per region)", s.Task.NumTypes())
	}
	p, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatalf("joint task unplannable: %v", err)
	}
	if err := core.VerifyPlan(s.Task, p.Sequence, core.Options{}); err != nil {
		t.Fatal(err)
	}

	// Each region alone needs some minimum number of runs; the joint plan
	// cannot beat either (their types are disjoint, so joint cost is the
	// sum of per-region run structures).
	sa, err := HGRIDScenario("solo-A", HGRIDScenarioParams{Region: paramsA})
	if err != nil {
		t.Fatal(err)
	}
	pa, err := core.PlanAStar(sa.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost < pa.Cost {
		t.Errorf("joint cost %v below region A's solo cost %v", p.Cost, pa.Cost)
	}
	t.Logf("joint cost %v (A solo %v)", p.Cost, pa.Cost)

	// Inter-region demands must actually cross the WAN: tracing one must
	// succeed on the base state.
	for _, d := range s.Task.Demands.Demands {
		if len(d.Name) > 5 && d.Name[:5] == "inter" {
			eval := routing.NewEvaluator(s.Task.Topo)
			if _, err := eval.Trace(s.Task.Topo.NewView(), d.Src, d.Dst); err != nil {
				t.Fatalf("inter-region demand %s unroutable: %v", d.Name, err)
			}
			break
		}
	}
}

// TestSuiteFabricsPinned pins every generated fabric bit for bit: one
// FNV-64a hash per suite and scale over every circuit capacity (in circuit
// ID order), every switch name (in switch ID order) and every demand rate
// (in demand order). A builder change that moves any capacity, name or rate
// changes the scenarios every pinned plan is computed on.
func TestSuiteFabricsPinned(t *testing.T) {
	want := map[float64]map[string]uint64{
		0.25: {
			"A": 0x07d1ca6e03055f59, "B": 0x4dfd84af48e38152, "C": 0xcdabcac1bba66955,
			"D": 0x5581fa482c67b35a, "E": 0xd50615bbfbc0a665,
			"E-DMAG": 0x1a054c2e5da5cce9, "E-SSW": 0x27c9cdcffba40e15,
		},
		1: {
			"A": 0xa835ca0f26dd324b, "B": 0xd0b507a53a327f85, "C": 0x43bd25b069c68bfe,
			"D": 0xdd37d285be9467be, "E": 0x9e5723312167b277,
			"E-DMAG": 0xbb3f5fd6a9c649b7, "E-SSW": 0xda3341f376e737b1,
		},
	}
	for _, scale := range []float64{0.25, 1} {
		for _, name := range SuiteNames() {
			s := buildSuite(t, name, scale)
			tp := s.Task.Topo
			h := fnv.New64a()
			var b [8]byte
			for c := 0; c < tp.NumCircuits(); c++ {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(tp.Circuit(topo.CircuitID(c)).Capacity))
				h.Write(b[:])
			}
			for i := 0; i < tp.NumSwitches(); i++ {
				h.Write([]byte(tp.Switch(topo.SwitchID(i)).Name))
			}
			for _, d := range s.Task.Demands.Demands {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(d.Rate))
				h.Write(b[:])
			}
			if got := h.Sum64(); got != want[scale][name] {
				t.Errorf("%s×%g: fabric hash %016x, want %016x", name, scale, got, want[scale][name])
			}
		}
	}
}
