// Package topo models multi-layer datacenter network topologies.
//
// A topology is a graph of typed switches connected by circuits, mirroring
// the DCN architecture described in §2.1 of the Klotski paper (SIGCOMM'23):
// rack switches (RSW) aggregate into fabric switches (FSW) and spine
// switches (SSW) inside a fabric; fabrics in a region are interconnected by
// a fabric-aggregation layer (FADU/FAUU sub-switches of an HGRID); metro
// aggregation (MA/DMAG) and the backbone boundary (EB, DR, EBB) sit above.
//
// Topologies are built once and then treated as an immutable "universe":
// every switch and circuit that exists before, during, or after a migration
// is present in the graph, and a boolean activity flag per element records
// whether it currently carries traffic. Draining a switch clears its flag;
// undraining (onboarding) sets it. A circuit is "up" only when its own flag
// and both endpoint switches are active. Planners explore many hypothetical
// activity assignments cheaply through the View type without copying the
// graph itself.
package topo

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Role identifies the layer and function of a switch in the DCN.
type Role uint8

// Switch roles, bottom-up through the datacenter network (paper §2.1).
const (
	RoleUnknown Role = iota
	RoleRSW          // rack switch: top-of-rack, connects servers
	RoleFSW          // fabric switch: aggregates RSWs within a pod
	RoleSSW          // spine switch: interconnects FSWs across pods, one plane each
	RoleFADU         // fabric-aggregate downlink unit (HGRID sub-switch facing the fabric)
	RoleFAUU         // fabric-aggregate uplink unit (HGRID sub-switch facing upward)
	RoleMA           // metro-aggregation switch (DMAG layer)
	RoleEB           // edge/backbone border router on the backbone side
	RoleDR           // datacenter router at the DC/backbone boundary
	RoleEBB          // express backbone router at the WAN core

	// NumRoles bounds the roles: every Role value in use is below it, so
	// a per-role table can be a fixed array.
	NumRoles
)

var roleNames = [...]string{
	RoleUnknown: "UNKNOWN",
	RoleRSW:     "RSW",
	RoleFSW:     "FSW",
	RoleSSW:     "SSW",
	RoleFADU:    "FADU",
	RoleFAUU:    "FAUU",
	RoleMA:      "MA",
	RoleEB:      "EB",
	RoleDR:      "DR",
	RoleEBB:     "EBB",
}

// String returns the conventional upper-case name of the role.
func (r Role) String() string {
	if int(r) < len(roleNames) {
		return roleNames[r]
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// Valid reports whether r is one of the defined switch roles.
func (r Role) Valid() bool { return r > RoleUnknown && r < NumRoles }

// ParseRole converts a role name such as "SSW" (case-insensitive) back to a
// Role. It returns an error for unknown names.
func ParseRole(s string) (Role, error) {
	u := strings.ToUpper(strings.TrimSpace(s))
	for r, name := range roleNames {
		if r != 0 && name == u {
			return Role(r), nil
		}
	}
	return RoleUnknown, fmt.Errorf("topo: unknown switch role %q", s)
}

// Roles returns all defined roles in bottom-up layer order.
func Roles() []Role {
	rs := make([]Role, 0, NumRoles-1)
	for r := RoleRSW; r < NumRoles; r++ {
		rs = append(rs, r)
	}
	return rs
}

// SwitchID indexes a switch within a Topology. IDs are dense, starting at 0,
// in insertion order.
type SwitchID int32

// CircuitID indexes a circuit within a Topology. IDs are dense, starting at
// 0, in insertion order.
type CircuitID int32

// NoSwitch is the invalid switch ID.
const NoSwitch SwitchID = -1

// NoCircuit is the invalid circuit ID.
const NoCircuit CircuitID = -1

// Switch is one network element: a physical (or disaggregated sub-) switch.
//
// Position fields (DC, Pod, Plane, Grid) locate the switch in the regional
// layout; -1 means "not applicable" for the given role. Generation
// distinguishes hardware generations that coexist during a migration
// (e.g. HGRID v1 vs v2). Ports is the hard physical port budget used by the
// port constraints (paper Eq. 6).
type Switch struct {
	ID         SwitchID
	Name       string
	Role       Role
	DC         int // datacenter (building) index within the region, -1 if regional
	Pod        int // pod index within the fabric, -1 above the FSW layer
	Plane      int // plane index (SSW), -1 otherwise
	Grid       int // HGRID grid index (FADU/FAUU), -1 otherwise
	Generation int // hardware generation, 1-based
	Ports      int // physical port budget; 0 means unconstrained

	circuits []CircuitID // incident circuits, in insertion order
}

// Circuits returns the IDs of all circuits incident to the switch, active or
// not. The returned slice is owned by the topology and must not be modified.
func (s *Switch) Circuits() []CircuitID { return s.circuits }

// Circuit is a physical link between two switches with a fixed capacity.
//
// Metric is the routing cost of traversing the circuit (IGP-metric style);
// ECMP places traffic on metric-shortest paths. The default metric of 1
// makes routing hop-count shortest-path; operators raise the metric of
// long-haul or to-be-decommissioned circuits so that newly inserted layers
// attract a fair traffic share (the "special routing configurations" of
// paper §7.1).
type Circuit struct {
	ID       CircuitID
	A, B     SwitchID
	Capacity float64 // in Tbps
	Metric   int32   // routing cost, ≥ 1; 0 is normalized to 1 at AddCircuit
}

// Other returns the endpoint of the circuit that is not s. It panics if s is
// not an endpoint.
func (c *Circuit) Other(s SwitchID) SwitchID {
	switch s {
	case c.A:
		return c.B
	case c.B:
		return c.A
	}
	panic(fmt.Sprintf("topo: switch %d is not an endpoint of circuit %d", s, c.ID))
}

// Topology is the static switch/circuit universe plus the base activity
// assignment (which elements carry traffic in the original network state).
//
// The zero value is an empty topology ready for use; add elements with
// AddSwitch and AddCircuit.
type Topology struct {
	Name string

	switches []Switch
	circuits []Circuit
	byName   map[string]SwitchID

	swActive []bool
	ckActive []bool

	shape *Shape // the structure's identity; nil only before the zero value's first element

	// shapeSeen says the shape has been handed out, by Shape or by Clone, so
	// that a structural setter must give the topology a fresh one. Until then
	// nobody can tell the shape a setter keeps from a fresh one, and building
	// a topology element by element allocates a single shape.
	shapeSeen atomic.Bool
}

// Shape is the identity of a topology's structure: its switches with their
// port budgets and its circuits with their endpoints, capacities and metrics,
// everything but the activity flags. New assigns a topology one and Clone
// shares it; every structural setter (AddSwitch, AddCircuit, SetCapacity,
// SetMetric, SetPorts) gives its topology a fresh one, while the activity
// setters keep it. (A setter keeps a shape that has not been handed out yet:
// no one can tell it from a fresh one.) Two topologies of one shape therefore
// have the same structure, and what is derived from the structure alone is
// kept on the shape (Derived) and built once for all of them: it lives as long
// as any topology of the shape does, and a setter retires it for its
// topology.
type Shape struct {
	mu      sync.Mutex
	derived map[any]any
}

// Derived returns the artefact the shape keeps under key, calling build to
// make it when it keeps none. build must derive the artefact from the
// structure alone, and callers must treat what it returns as read-only. Two
// concurrent first requests may both build; the first stored is kept and
// returned to both. A nil shape keeps nothing and returns build's result.
func (s *Shape) Derived(key any, build func() any) any {
	if s == nil {
		return build()
	}
	s.mu.Lock()
	v, ok := s.derived[key]
	s.mu.Unlock()
	if ok {
		return v
	}
	v = build()
	s.mu.Lock()
	defer s.mu.Unlock()
	if kept, ok := s.derived[key]; ok {
		return kept
	}
	if s.derived == nil {
		s.derived = make(map[any]any)
	}
	s.derived[key] = v
	return v
}

// New returns an empty named topology.
func New(name string) *Topology {
	return &Topology{Name: name, byName: make(map[string]SwitchID), shape: new(Shape)}
}

// Shape returns the identity of the topology's structure. It allocates
// nothing and writes only an atomic flag, so any number of goroutines may call
// it while none mutates the topology.
func (t *Topology) Shape() *Shape {
	if !t.shapeSeen.Load() {
		t.shapeSeen.Store(true)
	}
	return t.shape
}

// reshape follows a structural change: the topology gets a fresh shape unless
// its shape has not been handed out.
func (t *Topology) reshape() {
	if t.shape == nil || t.shapeSeen.Load() {
		t.shape = new(Shape)
		t.shapeSeen.Store(false)
	}
}

// AddSwitch adds a switch and returns its assigned ID. The ID and incident
// circuit list in the argument are ignored and managed by the topology.
// Switches are active by default. Duplicate names are rejected with a panic
// because they always indicate a generator bug.
func (t *Topology) AddSwitch(s Switch) SwitchID {
	if t.byName == nil {
		t.byName = make(map[string]SwitchID)
	}
	if s.Name == "" {
		s.Name = fmt.Sprintf("%s-%d", s.Role, len(t.switches))
	}
	if _, dup := t.byName[s.Name]; dup {
		panic(fmt.Sprintf("topo: duplicate switch name %q", s.Name))
	}
	id := SwitchID(len(t.switches))
	s.ID = id
	s.circuits = nil
	t.switches = append(t.switches, s)
	t.swActive = append(t.swActive, true)
	t.byName[s.Name] = id
	t.reshape()
	return id
}

// AddCircuit connects switches a and b with a circuit of the given capacity
// (Tbps) and returns its ID. Circuits are active by default.
func (t *Topology) AddCircuit(a, b SwitchID, capacity float64) CircuitID {
	if !t.validSwitch(a) || !t.validSwitch(b) {
		panic(fmt.Sprintf("topo: AddCircuit with invalid endpoint (%d, %d)", a, b))
	}
	if a == b {
		panic(fmt.Sprintf("topo: self-loop circuit on switch %d", a))
	}
	id := CircuitID(len(t.circuits))
	t.circuits = append(t.circuits, Circuit{ID: id, A: a, B: b, Capacity: capacity, Metric: 1})
	t.ckActive = append(t.ckActive, true)
	t.switches[a].circuits = append(t.switches[a].circuits, id)
	t.switches[b].circuits = append(t.switches[b].circuits, id)
	t.reshape()
	return id
}

// SetCapacity reassigns a circuit's capacity. Builders use it for per-layer
// capacity shaping after the wiring is known.
func (t *Topology) SetCapacity(id CircuitID, capacity float64) {
	t.circuits[id].Capacity = capacity
	t.reshape()
}

// SetMetric reassigns a circuit's routing metric (must be ≥ 1).
func (t *Topology) SetMetric(id CircuitID, metric int32) {
	if metric < 1 {
		panic(fmt.Sprintf("topo: metric %d < 1 on circuit %d", metric, id))
	}
	t.circuits[id].Metric = metric
	t.reshape()
}

func (t *Topology) validSwitch(id SwitchID) bool {
	return id >= 0 && int(id) < len(t.switches)
}

func (t *Topology) validCircuit(id CircuitID) bool {
	return id >= 0 && int(id) < len(t.circuits)
}

// NumSwitches returns the total number of switches in the universe,
// active or not.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// NumCircuits returns the total number of circuits in the universe,
// active or not.
func (t *Topology) NumCircuits() int { return len(t.circuits) }

// Switch returns the switch with the given ID. The returned pointer is into
// topology-owned storage; callers must treat it as read-only.
func (t *Topology) Switch(id SwitchID) *Switch {
	return &t.switches[id]
}

// Circuit returns the circuit with the given ID. The returned pointer is
// into topology-owned storage; callers must treat it as read-only.
func (t *Topology) Circuit(id CircuitID) *Circuit {
	return &t.circuits[id]
}

// SwitchByName looks a switch up by its unique name.
func (t *Topology) SwitchByName(name string) (*Switch, bool) {
	id, ok := t.byName[name]
	if !ok {
		return nil, false
	}
	return &t.switches[id], true
}

// SetPorts assigns the physical port budget of a switch. Builders call it
// after wiring, when the final degree is known.
func (t *Topology) SetPorts(id SwitchID, ports int) {
	t.switches[id].Ports = ports
	t.reshape()
}

// SetSwitchActive sets the base activity of a switch (whether it carries
// traffic in the original network state).
func (t *Topology) SetSwitchActive(id SwitchID, active bool) {
	t.swActive[id] = active
}

// SetCircuitActive sets the base activity of a circuit.
func (t *Topology) SetCircuitActive(id CircuitID, active bool) {
	t.ckActive[id] = active
}

// SwitchActive reports the base activity flag of a switch.
func (t *Topology) SwitchActive(id SwitchID) bool { return t.swActive[id] }

// CircuitActive reports the base activity flag of the circuit itself,
// ignoring endpoint state. Use CircuitUp for end-to-end usability.
func (t *Topology) CircuitActive(id CircuitID) bool { return t.ckActive[id] }

// CircuitUp reports whether a circuit can carry traffic in the base state:
// its own flag and both endpoints must be active.
func (t *Topology) CircuitUp(id CircuitID) bool {
	c := &t.circuits[id]
	return t.ckActive[id] && t.swActive[c.A] && t.swActive[c.B]
}

// ActiveDegree returns the number of up circuits incident to the switch in
// the base state.
func (t *Topology) ActiveDegree(id SwitchID) int {
	n := 0
	for _, c := range t.switches[id].circuits {
		if t.CircuitUp(c) {
			n++
		}
	}
	return n
}

// SwitchesByRole returns the IDs of all switches with the given role, in ID
// order.
func (t *Topology) SwitchesByRole(r Role) []SwitchID {
	var ids []SwitchID
	for i := range t.switches {
		if t.switches[i].Role == r {
			ids = append(ids, SwitchID(i))
		}
	}
	return ids
}

// Stats summarizes a topology or a view of it.
type Stats struct {
	Switches       int     // active switches
	Circuits       int     // up circuits
	TotalSwitches  int     // universe size
	TotalCircuits  int     // universe size
	Capacity       float64 // sum of up-circuit capacities, Tbps
	PerRole        map[Role]int
	MaxActivePorts int // highest up-circuit count on any switch
}

// Stats computes summary statistics for the base activity state.
func (t *Topology) Stats() Stats {
	return t.statsWith(t.SwitchActive, t.CircuitUp)
}

func (t *Topology) statsWith(swUp func(SwitchID) bool, ckUp func(CircuitID) bool) Stats {
	st := Stats{
		TotalSwitches: len(t.switches),
		TotalCircuits: len(t.circuits),
		PerRole:       make(map[Role]int),
	}
	st.Switches, st.Circuits, st.Capacity = t.upWith(swUp, ckUp)
	degree := make([]int, len(t.switches))
	for i := range t.switches {
		if swUp(SwitchID(i)) {
			st.PerRole[t.switches[i].Role]++
		}
	}
	for i := range t.circuits {
		if ckUp(CircuitID(i)) {
			degree[t.circuits[i].A]++
			degree[t.circuits[i].B]++
		}
	}
	for _, d := range degree {
		if d > st.MaxActivePorts {
			st.MaxActivePorts = d
		}
	}
	return st
}

// upWith counts the active switches and up circuits and sums the up
// circuits' capacity in circuit order: the one summation order that Stats
// and View.Up share, on which plan documents' bytes depend.
func (t *Topology) upWith(swUp func(SwitchID) bool, ckUp func(CircuitID) bool) (switches, circuits int, capacity float64) {
	for i := range t.switches {
		if swUp(SwitchID(i)) {
			switches++
		}
	}
	for i := range t.circuits {
		if ckUp(CircuitID(i)) {
			circuits++
			capacity += t.circuits[i].Capacity
		}
	}
	return switches, circuits, capacity
}

// String returns a short human-readable summary.
func (t *Topology) String() string {
	st := t.Stats()
	return fmt.Sprintf("%s: %d/%d switches, %d/%d circuits, %.1f Tbps up",
		t.Name, st.Switches, st.TotalSwitches, st.Circuits, st.TotalCircuits, st.Capacity)
}

// Validate checks structural invariants: endpoint IDs in range, no
// zero-capacity circuits, port budgets not exceeded by the active circuit
// count in the base state, and name-index consistency. It returns the
// first violation found.
func (t *Topology) Validate() error {
	for i := range t.circuits {
		c := &t.circuits[i]
		if !t.validSwitch(c.A) || !t.validSwitch(c.B) {
			return fmt.Errorf("topo: circuit %d has out-of-range endpoint", i)
		}
		if c.Capacity <= 0 {
			return fmt.Errorf("topo: circuit %d (%s-%s) has non-positive capacity %v",
				i, t.switches[c.A].Name, t.switches[c.B].Name, c.Capacity)
		}
		if c.Metric < 1 {
			return fmt.Errorf("topo: circuit %d (%s-%s) has metric %d < 1",
				i, t.switches[c.A].Name, t.switches[c.B].Name, c.Metric)
		}
	}
	for i := range t.switches {
		s := &t.switches[i]
		if !s.Role.Valid() {
			return fmt.Errorf("topo: switch %q has invalid role", s.Name)
		}
		// Port budgets constrain *active* circuits, not physical wiring:
		// a migration universe deliberately contains both the old and new
		// wiring of a switch even when they cannot coexist in service.
		if s.Ports > 0 && t.ActiveDegree(s.ID) > s.Ports {
			return fmt.Errorf("topo: switch %q has %d active circuits but only %d ports",
				s.Name, t.ActiveDegree(s.ID), s.Ports)
		}
		if got, ok := t.byName[s.Name]; !ok || got != SwitchID(i) {
			return fmt.Errorf("topo: name index inconsistent for switch %q", s.Name)
		}
	}
	return nil
}

// Clone returns a deep copy of the topology, including base activity. The
// copy shares the topology's shape until a structural setter gives it its
// own.
func (t *Topology) Clone() *Topology {
	nt := &Topology{
		Name:     t.Name,
		shape:    t.shape,
		switches: make([]Switch, len(t.switches)),
		circuits: append([]Circuit(nil), t.circuits...),
		byName:   make(map[string]SwitchID, len(t.byName)),
		swActive: append([]bool(nil), t.swActive...),
		ckActive: append([]bool(nil), t.ckActive...),
	}
	copy(nt.switches, t.switches)
	for i := range nt.switches {
		nt.switches[i].circuits = append([]CircuitID(nil), t.switches[i].circuits...)
	}
	for k, v := range t.byName {
		nt.byName[k] = v
	}
	// Both hold the shape now: a setter on either must replace it.
	t.shapeSeen.Store(true)
	nt.shapeSeen.Store(true)
	return nt
}

// NeighborNames returns the sorted names of switches adjacent to id through
// any circuit (regardless of activity). It is used by symmetry detection
// and by tests.
func (t *Topology) NeighborNames(id SwitchID) []string {
	var names []string
	for _, cid := range t.switches[id].circuits {
		c := &t.circuits[cid]
		names = append(names, t.switches[c.Other(id)].Name)
	}
	sort.Strings(names)
	return names
}
