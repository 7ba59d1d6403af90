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

	// Touched-element tracking, enabled by Track. When on, every mutation
	// that actually changes an activity flag records the element, so an
	// incremental evaluator can invalidate exactly the state derived from
	// what changed instead of rebuilding from the whole view.
	tracking  bool
	touchedSw []SwitchID
	touchedCk []CircuitID
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

// Reset restores the view to the topology's base activity state. With
// tracking enabled, every element whose flag changes is recorded.
func (v *View) Reset() {
	if v.tracking {
		for i := range v.swActive {
			if v.swActive[i] != v.t.swActive[i] {
				v.touchedSw = append(v.touchedSw, SwitchID(i))
			}
		}
		for i := range v.ckActive {
			if v.ckActive[i] != v.t.ckActive[i] {
				v.touchedCk = append(v.touchedCk, CircuitID(i))
			}
		}
	}
	copy(v.swActive, v.t.swActive)
	copy(v.ckActive, v.t.ckActive)
}

// Track enables touched-element reporting: subsequent mutations that change
// an activity flag are recorded until TakeTouched drains them. No-op
// mutations (setting a flag to its current value) are not recorded.
func (v *View) Track() { v.tracking = true }

// TakeTouched returns the switches and circuits whose activity changed since
// the last TakeTouched (or since Track), and resets the record. Elements
// flipped twice appear twice; consumers are expected to deduplicate. The
// returned slices are invalidated by the next mutation after the next
// TakeTouched call — copy them if they must outlive that.
func (v *View) TakeTouched() ([]SwitchID, []CircuitID) {
	sw, ck := v.touchedSw, v.touchedCk
	v.touchedSw = nil
	v.touchedCk = nil
	return sw, ck
}

// SetSwitchActive overrides the activity of a switch in this view only.
func (v *View) SetSwitchActive(id SwitchID, active bool) {
	if v.tracking && v.swActive[id] != active {
		v.touchedSw = append(v.touchedSw, id)
	}
	v.swActive[id] = active
}

// SetCircuitActive overrides the activity of a circuit in this view only.
func (v *View) SetCircuitActive(id CircuitID, active bool) {
	if v.tracking && v.ckActive[id] != active {
		v.touchedCk = append(v.touchedCk, id)
	}
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
	if v.tracking {
		for i := range v.swActive {
			if v.swActive[i] != src.swActive[i] {
				v.touchedSw = append(v.touchedSw, SwitchID(i))
			}
		}
		for i := range v.ckActive {
			if v.ckActive[i] != src.ckActive[i] {
				v.touchedCk = append(v.touchedCk, CircuitID(i))
			}
		}
	}
	copy(v.swActive, src.swActive)
	copy(v.ckActive, src.ckActive)
}
