package topo

import "testing"

func TestMerge(t *testing.T) {
	a, swA, _ := buildDiamond(t)
	b, swB, _ := buildDiamond(t)
	b.SetSwitchActive(swB[1], false)
	m, swOff, ckOff := Merge("merged", "a/", a, "b/", b)
	if m.NumSwitches() != a.NumSwitches()+b.NumSwitches() {
		t.Fatalf("merged switches = %d", m.NumSwitches())
	}
	if m.NumCircuits() != a.NumCircuits()+b.NumCircuits() {
		t.Fatalf("merged circuits = %d", m.NumCircuits())
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("merged invalid: %v", err)
	}
	// Prefixed names resolve; activity preserved across the offset.
	if s, ok := m.SwitchByName("a/rsw"); !ok || s.ID != swA[0] {
		t.Error("a-side IDs should be unchanged")
	}
	if s, ok := m.SwitchByName("b/rsw"); !ok || s.ID != swB[0]+swOff {
		t.Errorf("b/rsw = %v, want ID %d", s, swB[0]+swOff)
	}
	if m.SwitchActive(swB[1] + swOff) {
		t.Error("b-side activity not preserved")
	}
	if ckOff != CircuitID(a.NumCircuits()) {
		t.Errorf("circuit offset = %d", ckOff)
	}
}
