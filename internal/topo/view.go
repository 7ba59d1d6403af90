package topo

// View is a mutable activity overlay on an immutable topology universe.
//
// Planners evaluate thousands of hypothetical intermediate network states
// per task; a View lets them flip drain/undrain flags without copying the
// graph. Views are cheap to create (two boolean slices) and cheap to Reset.
// A View is not safe for concurrent use; create one per goroutine.
type View struct {
	t        *Topology
	swActive []bool
	ckActive []bool
}

// NewView returns a view initialized to the topology's base activity state.
func (t *Topology) NewView() *View {
	return &View{
		t:        t,
		swActive: append([]bool(nil), t.swActive...),
		ckActive: append([]bool(nil), t.ckActive...),
	}
}

// Topology returns the underlying immutable topology.
func (v *View) Topology() *Topology { return v.t }

// Reset restores the view to the topology's base activity state.
func (v *View) Reset() {
	copy(v.swActive, v.t.swActive)
	copy(v.ckActive, v.t.ckActive)
}

// SetSwitchActive overrides the activity of a switch in this view only.
func (v *View) SetSwitchActive(id SwitchID, active bool) {
	v.swActive[id] = active
}

// SetCircuitActive overrides the activity of a circuit in this view only.
func (v *View) SetCircuitActive(id CircuitID, active bool) {
	v.ckActive[id] = active
}

// DrainSwitch deactivates a switch (all its circuits stop carrying traffic).
func (v *View) DrainSwitch(id SwitchID) { v.SetSwitchActive(id, false) }

// UndrainSwitch activates a switch.
func (v *View) UndrainSwitch(id SwitchID) { v.SetSwitchActive(id, true) }

// DrainCircuit deactivates a single circuit without touching its endpoints.
func (v *View) DrainCircuit(id CircuitID) { v.SetCircuitActive(id, false) }

// UndrainCircuit activates a single circuit.
func (v *View) UndrainCircuit(id CircuitID) { v.SetCircuitActive(id, true) }

// SwitchActive reports whether the switch carries traffic in this view.
func (v *View) SwitchActive(id SwitchID) bool { return v.swActive[id] }

// CircuitActive reports the circuit's own flag, ignoring endpoints.
func (v *View) CircuitActive(id CircuitID) bool { return v.ckActive[id] }

// CircuitUp reports whether the circuit can carry traffic: its own flag and
// both endpoint switches must be active.
func (v *View) CircuitUp(id CircuitID) bool {
	c := &v.t.circuits[id]
	return v.ckActive[id] && v.swActive[c.A] && v.swActive[c.B]
}

// Activity returns the view's per-switch and per-circuit activity flags,
// indexed by ID, for bulk readers that would otherwise call SwitchActive and
// CircuitUp once per element: a circuit is up iff its own flag and both
// endpoint switches' flags are set. The slices alias the view's state —
// callers must not modify them, and they reflect later mutations.
func (v *View) Activity() (switches, circuits []bool) { return v.swActive, v.ckActive }

// ActiveDegree returns the number of up circuits incident to the switch.
func (v *View) ActiveDegree(id SwitchID) int {
	n := 0
	for _, c := range v.t.switches[id].circuits {
		if v.CircuitUp(c) {
			n++
		}
	}
	return n
}

// Up counts the view's active switches and up circuits and sums the up
// circuits' capacity: Stats' Switches, Circuits and Capacity without its
// per-role and per-port tallies.
func (v *View) Up() (switches, circuits int, capacity float64) {
	return v.t.upWith(v.SwitchActive, v.CircuitUp)
}

// Stats computes summary statistics for the view's activity state.
func (v *View) Stats() Stats {
	return v.t.statsWith(v.SwitchActive, v.CircuitUp)
}

// Equal reports whether two views over the same topology have identical
// activity assignments.
func (v *View) Equal(o *View) bool {
	if v.t != o.t {
		return false
	}
	for i := range v.swActive {
		if v.swActive[i] != o.swActive[i] {
			return false
		}
	}
	for i := range v.ckActive {
		if v.ckActive[i] != o.ckActive[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the view.
func (v *View) Clone() *View {
	return &View{
		t:        v.t,
		swActive: append([]bool(nil), v.swActive...),
		ckActive: append([]bool(nil), v.ckActive...),
	}
}

// CopyFrom makes v's activity identical to src's. Both views must be over
// the same topology.
func (v *View) CopyFrom(src *View) {
	if v.t != src.t {
		panic("topo: CopyFrom across different topologies")
	}
	copy(v.swActive, src.swActive)
	copy(v.ckActive, src.ckActive)
}
