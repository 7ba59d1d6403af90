package topo

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildDiamond returns a 4-switch diamond: rsw—fsw1—ssw, rsw—fsw2—ssw.
func buildDiamond(t *testing.T) (*Topology, []SwitchID, []CircuitID) {
	t.Helper()
	tp := New("diamond")
	rsw := tp.AddSwitch(Switch{Name: "rsw", Role: RoleRSW})
	f1 := tp.AddSwitch(Switch{Name: "fsw1", Role: RoleFSW})
	f2 := tp.AddSwitch(Switch{Name: "fsw2", Role: RoleFSW})
	ssw := tp.AddSwitch(Switch{Name: "ssw", Role: RoleSSW})
	c1 := tp.AddCircuit(rsw, f1, 1.0)
	c2 := tp.AddCircuit(rsw, f2, 1.0)
	c3 := tp.AddCircuit(f1, ssw, 2.0)
	c4 := tp.AddCircuit(f2, ssw, 2.0)
	return tp, []SwitchID{rsw, f1, f2, ssw}, []CircuitID{c1, c2, c3, c4}
}

func TestRoleString(t *testing.T) {
	cases := map[Role]string{
		RoleRSW: "RSW", RoleFSW: "FSW", RoleSSW: "SSW", RoleFADU: "FADU",
		RoleFAUU: "FAUU", RoleMA: "MA", RoleEB: "EB", RoleDR: "DR", RoleEBB: "EBB",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Role(%d).String() = %q, want %q", r, got, want)
		}
	}
	if got := Role(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown role should render its number, got %q", got)
	}
}

func TestParseRoleRoundTrip(t *testing.T) {
	for _, r := range Roles() {
		got, err := ParseRole(r.String())
		if err != nil {
			t.Fatalf("ParseRole(%q): %v", r.String(), err)
		}
		if got != r {
			t.Errorf("ParseRole(%q) = %v, want %v", r.String(), got, r)
		}
	}
	if _, err := ParseRole("not-a-role"); err == nil {
		t.Error("ParseRole should reject unknown names")
	}
	// Case-insensitivity and whitespace tolerance.
	if got, err := ParseRole("  ssw "); err != nil || got != RoleSSW {
		t.Errorf("ParseRole(\"  ssw \") = %v, %v", got, err)
	}
}

func TestRoleValid(t *testing.T) {
	if RoleUnknown.Valid() {
		t.Error("RoleUnknown must not be valid")
	}
	for _, r := range Roles() {
		if !r.Valid() {
			t.Errorf("%v should be valid", r)
		}
	}
	if Role(100).Valid() {
		t.Error("out-of-range role must not be valid")
	}
}

func TestAddSwitchAssignsDenseIDs(t *testing.T) {
	tp := New("t")
	for i := 0; i < 10; i++ {
		id := tp.AddSwitch(Switch{Role: RoleRSW})
		if id != SwitchID(i) {
			t.Fatalf("switch %d got ID %d", i, id)
		}
	}
	if tp.NumSwitches() != 10 {
		t.Fatalf("NumSwitches = %d, want 10", tp.NumSwitches())
	}
}

func TestAddSwitchDuplicateNamePanics(t *testing.T) {
	tp := New("t")
	tp.AddSwitch(Switch{Name: "x", Role: RoleRSW})
	defer func() {
		if recover() == nil {
			t.Error("duplicate name should panic")
		}
	}()
	tp.AddSwitch(Switch{Name: "x", Role: RoleRSW})
}

func TestAddCircuitSelfLoopPanics(t *testing.T) {
	tp := New("t")
	a := tp.AddSwitch(Switch{Role: RoleRSW})
	defer func() {
		if recover() == nil {
			t.Error("self-loop should panic")
		}
	}()
	tp.AddCircuit(a, a, 1)
}

func TestAddCircuitBadEndpointPanics(t *testing.T) {
	tp := New("t")
	a := tp.AddSwitch(Switch{Role: RoleRSW})
	defer func() {
		if recover() == nil {
			t.Error("invalid endpoint should panic")
		}
	}()
	tp.AddCircuit(a, SwitchID(99), 1)
}

func TestCircuitOther(t *testing.T) {
	tp, sw, ck := buildDiamond(t)
	c := tp.Circuit(ck[0])
	if c.Other(sw[0]) != sw[1] || c.Other(sw[1]) != sw[0] {
		t.Error("Other should return the opposite endpoint")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other with non-endpoint should panic")
		}
	}()
	c.Other(sw[3])
}

func TestSwitchByName(t *testing.T) {
	tp, _, _ := buildDiamond(t)
	s, ok := tp.SwitchByName("fsw1")
	if !ok || s.Role != RoleFSW {
		t.Fatalf("SwitchByName(fsw1) = %+v, %v", s, ok)
	}
	if _, ok := tp.SwitchByName("nope"); ok {
		t.Error("SwitchByName should miss unknown names")
	}
}

func TestCircuitUpRequiresEndpointsAndFlag(t *testing.T) {
	tp, sw, ck := buildDiamond(t)
	if !tp.CircuitUp(ck[0]) {
		t.Fatal("fresh circuit should be up")
	}
	tp.SetSwitchActive(sw[1], false)
	if tp.CircuitUp(ck[0]) {
		t.Error("circuit with inactive endpoint must be down")
	}
	if tp.CircuitUp(ck[2]) {
		t.Error("circuit with inactive endpoint must be down")
	}
	tp.SetSwitchActive(sw[1], true)
	tp.SetCircuitActive(ck[0], false)
	if tp.CircuitUp(ck[0]) {
		t.Error("deactivated circuit must be down")
	}
}

func TestActiveDegree(t *testing.T) {
	tp, sw, ck := buildDiamond(t)
	if got := tp.ActiveDegree(sw[0]); got != 2 {
		t.Fatalf("rsw degree = %d, want 2", got)
	}
	tp.SetCircuitActive(ck[0], false)
	if got := tp.ActiveDegree(sw[0]); got != 1 {
		t.Fatalf("rsw degree after drain = %d, want 1", got)
	}
}

func TestStats(t *testing.T) {
	tp, sw, ck := buildDiamond(t)
	st := tp.Stats()
	if st.Switches != 4 || st.Circuits != 4 || st.Capacity != 6.0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PerRole[RoleFSW] != 2 {
		t.Errorf("PerRole[FSW] = %d, want 2", st.PerRole[RoleFSW])
	}
	if st.MaxActivePorts != 2 {
		t.Errorf("MaxActivePorts = %d, want 2", st.MaxActivePorts)
	}
	tp.SetSwitchActive(sw[3], false)
	st = tp.Stats()
	if st.Switches != 3 || st.Circuits != 2 {
		t.Fatalf("stats after drain = %+v", st)
	}
	_ = ck
}

func TestValidate(t *testing.T) {
	tp, sw, _ := buildDiamond(t)
	if err := tp.Validate(); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
	tp.SetPorts(sw[0], 1) // rsw has 2 active circuits
	if err := tp.Validate(); err == nil {
		t.Error("port overflow in base state should fail validation")
	}
	tp.SetPorts(sw[0], 2)
	if err := tp.Validate(); err != nil {
		t.Fatalf("restored topology rejected: %v", err)
	}
}

func TestValidateRejectsBadMetric(t *testing.T) {
	tp, _, ck := buildDiamond(t)
	tp.circuits[ck[0]].Metric = 0
	if err := tp.Validate(); err == nil {
		t.Error("metric 0 should fail validation")
	}
}

func TestSetMetricPanicsBelowOne(t *testing.T) {
	tp, _, ck := buildDiamond(t)
	defer func() {
		if recover() == nil {
			t.Error("SetMetric(0) should panic")
		}
	}()
	tp.SetMetric(ck[0], 0)
}

func TestClone(t *testing.T) {
	tp, sw, ck := buildDiamond(t)
	tp.SetSwitchActive(sw[1], false)
	cl := tp.Clone()
	if cl.String() != tp.String() {
		t.Fatalf("clone differs: %q vs %q", cl.String(), tp.String())
	}
	// Mutating the clone must not affect the original.
	cl.SetSwitchActive(sw[1], true)
	cl.SetCapacity(ck[0], 42)
	if tp.SwitchActive(sw[1]) {
		t.Error("clone activity leaked into original")
	}
	if tp.Circuit(ck[0]).Capacity == 42 {
		t.Error("clone capacity leaked into original")
	}
	s, ok := cl.SwitchByName("rsw")
	if !ok || s.ID != sw[0] {
		t.Error("clone lost name index")
	}
	if err := cl.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

func TestSwitchesByRole(t *testing.T) {
	tp, _, _ := buildDiamond(t)
	fsws := tp.SwitchesByRole(RoleFSW)
	if len(fsws) != 2 {
		t.Fatalf("got %d FSWs, want 2", len(fsws))
	}
	if len(tp.SwitchesByRole(RoleEBB)) != 0 {
		t.Error("no EBBs expected")
	}
}

func TestNeighborNamesSorted(t *testing.T) {
	tp, sw, _ := buildDiamond(t)
	names := tp.NeighborNames(sw[0])
	if len(names) != 2 || names[0] != "fsw1" || names[1] != "fsw2" {
		t.Fatalf("NeighborNames = %v", names)
	}
}

func TestViewIndependence(t *testing.T) {
	tp, sw, ck := buildDiamond(t)
	v1 := tp.NewView()
	v2 := tp.NewView()
	v1.DrainSwitch(sw[1])
	if !v2.SwitchActive(sw[1]) {
		t.Error("views must be independent")
	}
	if tp.SwitchActive(sw[1]) == false {
		t.Error("view mutation must not touch base state")
	}
	if v1.CircuitUp(ck[0]) {
		t.Error("circuit via drained switch must be down in view")
	}
	if !v2.CircuitUp(ck[0]) {
		t.Error("other view unaffected")
	}
}

func TestViewReset(t *testing.T) {
	tp, sw, _ := buildDiamond(t)
	v := tp.NewView()
	v.DrainSwitch(sw[0])
	v.DrainCircuit(0)
	v.Reset()
	if !v.SwitchActive(sw[0]) || !v.CircuitActive(0) {
		t.Error("Reset should restore base activity")
	}
}

func TestViewResetReflectsBase(t *testing.T) {
	tp, sw, _ := buildDiamond(t)
	tp.SetSwitchActive(sw[2], false)
	v := tp.NewView()
	v.UndrainSwitch(sw[2])
	v.Reset()
	if v.SwitchActive(sw[2]) {
		t.Error("Reset should restore base (inactive) state")
	}
}

func TestViewEqualAndClone(t *testing.T) {
	tp, sw, _ := buildDiamond(t)
	v1 := tp.NewView()
	v2 := v1.Clone()
	if !v1.Equal(v2) {
		t.Fatal("clone should equal source")
	}
	v2.DrainSwitch(sw[0])
	if v1.Equal(v2) {
		t.Fatal("diverged views should differ")
	}
	v1.CopyFrom(v2)
	if !v1.Equal(v2) {
		t.Fatal("CopyFrom should converge views")
	}
}

func TestViewCopyFromDifferentTopologyPanics(t *testing.T) {
	tp1, _, _ := buildDiamond(t)
	tp2, _, _ := buildDiamond(t)
	v1, v2 := tp1.NewView(), tp2.NewView()
	defer func() {
		if recover() == nil {
			t.Error("CopyFrom across topologies should panic")
		}
	}()
	v1.CopyFrom(v2)
}

func TestViewStatsMatchesTopologyStats(t *testing.T) {
	tp, _, _ := buildDiamond(t)
	v := tp.NewView()
	a, b := tp.Stats(), v.Stats()
	if a.Switches != b.Switches || a.Circuits != b.Circuits || a.Capacity != b.Capacity {
		t.Fatalf("fresh view stats %+v differ from base %+v", b, a)
	}
}

// Property: draining then undraining any subset of switches restores a view
// to its original state.
func TestViewDrainUndrainRoundTrip(t *testing.T) {
	tp, sw, _ := buildDiamond(t)
	f := func(mask uint8) bool {
		v := tp.NewView()
		orig := v.Clone()
		for i, s := range sw {
			if mask&(1<<uint(i)) != 0 {
				v.DrainSwitch(s)
			}
		}
		for i, s := range sw {
			if mask&(1<<uint(i)) != 0 {
				v.UndrainSwitch(s)
			}
		}
		return v.Equal(orig)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a view's stats never count a circuit whose endpoint is drained,
// and Up reads the same three totals as Stats.
func TestViewStatsConsistency(t *testing.T) {
	tp, sw, _ := buildDiamond(t)
	f := func(mask uint8) bool {
		v := tp.NewView()
		for i, s := range sw {
			if mask&(1<<uint(i)) != 0 {
				v.DrainSwitch(s)
			}
		}
		st := v.Stats()
		count := 0
		for c := 0; c < tp.NumCircuits(); c++ {
			if v.CircuitUp(CircuitID(c)) {
				count++
			}
		}
		switches, circuits, capacity := v.Up()
		return st.Circuits == count && switches == st.Switches && circuits == st.Circuits && capacity == st.Capacity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
