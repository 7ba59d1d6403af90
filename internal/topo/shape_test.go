package topo

import (
	"sync"
	"testing"
)

// TestShapeFollowsStructure holds a topology's shape to its structure: New
// assigns one, Clone shares it, each structural setter gives a fresh one,
// and the activity setters keep it, on the topology and on a clone alike.
func TestShapeFollowsStructure(t *testing.T) {
	tp, sw, ck := buildDiamond(t)
	if tp.Shape() == nil {
		t.Fatal("a built topology has no shape")
	}
	if New("a").Shape() == New("b").Shape() {
		t.Error("two new topologies share a shape")
	}
	cl := tp.Clone()
	if cl.Shape() != tp.Shape() {
		t.Fatal("Clone does not share the shape")
	}
	for _, c := range []struct {
		name       string
		set        func(*Topology)
		structural bool
	}{
		{"AddSwitch", func(x *Topology) { x.AddSwitch(Switch{Name: "extra", Role: RoleRSW}) }, true},
		{"AddCircuit", func(x *Topology) { x.AddCircuit(sw[0], sw[3], 1) }, true},
		{"SetCapacity", func(x *Topology) { x.SetCapacity(ck[0], x.Circuit(ck[0]).Capacity) }, true},
		{"SetMetric", func(x *Topology) { x.SetMetric(ck[0], 3) }, true},
		{"SetPorts", func(x *Topology) { x.SetPorts(sw[1], 4) }, true},
		{"SetSwitchActive", func(x *Topology) { x.SetSwitchActive(sw[1], false) }, false},
		{"SetCircuitActive", func(x *Topology) { x.SetCircuitActive(ck[2], false) }, false},
	} {
		x := tp.Clone()
		before := x.Shape()
		c.set(x)
		switch changed := x.Shape() != before; {
		case changed != c.structural:
			t.Errorf("%s: shape changed %v, want %v", c.name, changed, c.structural)
		case tp.Shape() != before:
			t.Errorf("%s on a clone changed the original's shape", c.name)
		}
		if x.Shape() == nil {
			t.Errorf("%s left no shape", c.name)
		}
	}
}

// TestShapeDerived holds Derived to one build per shape and key, kept for
// every topology of the shape and for none of another, and answering
// concurrent first requests with one artefact.
func TestShapeDerived(t *testing.T) {
	type keyA struct{}
	type keyB struct{}
	tp, _, ck := buildDiamond(t)
	builds := 0
	build := func() any { builds++; return new(int) }
	a := tp.Shape().Derived(keyA{}, build)
	if got := tp.Clone().Shape().Derived(keyA{}, build); got != a || builds != 1 {
		t.Errorf("a clone's request built again (%d builds) or returned another artefact", builds)
	}
	if tp.Shape().Derived(keyB{}, build) == a || builds != 2 {
		t.Errorf("another key returned the first key's artefact (%d builds)", builds)
	}
	cl := tp.Clone()
	cl.SetCapacity(ck[0], 5)
	if cl.Shape().Derived(keyA{}, build) == a || builds != 3 {
		t.Errorf("a topology whose structure changed kept its artefact (%d builds)", builds)
	}
	var nilShape *Shape
	if nilShape.Derived(keyA{}, build) == nilShape.Derived(keyA{}, build) || builds != 5 {
		t.Errorf("a nil shape kept an artefact (%d builds)", builds)
	}

	fresh, _, _ := buildDiamond(t)
	got := make([]any, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = fresh.Shape().Derived(keyA{}, func() any { return new(int) })
		}(i)
	}
	wg.Wait()
	for i, v := range got {
		if v != got[0] {
			t.Fatalf("concurrent request %d returned another artefact", i)
		}
	}
}

// TestUnseenShapeKept holds building to one shape: a structural setter keeps
// a shape that neither Shape nor Clone has handed out, allocating nothing,
// and replaces one that has been, once.
func TestUnseenShapeKept(t *testing.T) {
	tp, _, ck := buildDiamond(t)
	if n := testing.AllocsPerRun(100, func() { tp.SetCapacity(ck[0], 3) }); n != 0 {
		t.Errorf("a setter on a topology whose shape was never handed out allocates %v times", n)
	}
	seen := tp.Shape()
	tp.SetMetric(ck[1], 2)
	fresh := tp.Shape()
	if fresh == seen {
		t.Fatal("a setter kept a shape that had been handed out")
	}
	if tp.SetPorts(0, 5); tp.Shape() == fresh {
		t.Error("a setter kept a shape Shape had handed out since")
	}
}
