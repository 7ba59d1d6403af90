// Package migration models network-migration tasks: the actions, action
// types, symmetry blocks, and operation blocks of the Klotski paper (§3–§4.1).
//
// A migration task changes the network from an original topology to a
// target topology by draining (removing from service) and undraining
// (onboarding) switches and circuits. Both topologies live in one shared
// "universe" graph; a task describes which elements flip, grouped into
// operation blocks that are operated atomically. Every block has an action
// type — the pair (what kind of equipment, drain or undrain) — and the
// plan cost depends only on the sequence of action types (paper Eq. 1).
package migration

import (
	"fmt"
	"sort"
	"sync/atomic"
	"unsafe"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// OpType is the direction of an action: removing capacity or adding it.
type OpType uint8

// Operation types.
const (
	Drain   OpType = iota // take switches/circuits out of service
	Undrain               // bring switches/circuits into service
)

func (o OpType) String() string {
	if o == Drain {
		return "drain"
	}
	return "undrain"
}

// ActionType identifies a kind of action within one task. Types are
// interned: the value indexes the task's Types table. Two actions have the
// same type when they operate the same kind of equipment in the same
// direction — such actions can be executed by field operators in parallel
// with negligible extra cost (paper §3), which is why plan cost counts
// action-type changes.
type ActionType int32

// ActionTypeInfo describes one interned action type.
type ActionTypeInfo struct {
	Name string // e.g. "drain-hgrid-v1-grid"
	Op   OpType
	Role topo.Role // dominant switch role operated, informational
	// UnitCost is the relative operational cost of one run of this type
	// (crew travel, tooling). 0 means the default of 1. It feeds the OPEX
	// cost model of paper §7.2.
	UnitCost float64
}

// Block is one operation block: a set of switches and circuits that are
// drained or undrained together as a single action. Blocks are formed by
// merging symmetry blocks that are physically co-located (paper §4.1):
// neighbors can be operated in parallel with little extra cost and little
// impact on safety.
type Block struct {
	ID       int // index within the task's Blocks slice
	Type     ActionType
	Name     string
	DC       int // datacenter locality hint, -1 if regional
	Switches []topo.SwitchID
	Circuits []topo.CircuitID // explicitly operated circuits (beyond those implied by switch state)
}

// Size returns the number of switch operations the block represents; blocks
// that operate only circuits count each circuit group as one unit.
func (b *Block) Size() int {
	if len(b.Switches) > 0 {
		return len(b.Switches)
	}
	if len(b.Circuits) > 0 {
		return 1
	}
	return 0
}

// Task is a complete migration-planning problem: the topology universe, the
// operation blocks with their interned action types, and the traffic
// demands the intermediate states must satisfy.
type Task struct {
	Name string
	Topo *topo.Topology

	Types  []ActionTypeInfo
	Blocks []Block

	Demands demand.Set

	// Forecast grows Demands with migration progress (paper §7.1): a
	// boundary state reached after k executed actions is checked against
	// Demands scaled by Forecast.ScaleAt(k), so a plan is safe against the
	// demand the network will actually carry when each state is reached —
	// not the demand at planning time. The zero value disables growth.
	Forecast demand.Forecast

	// TopologyChanging marks migrations that alter the network's layer
	// structure rather than swapping equipment in place (e.g. DMAG
	// migration inserts a new regional-aggregation layer). The MRC and
	// Janus baselines cannot plan such migrations (paper §6.3).
	TopologyChanging bool

	// Lazily built derived table, atomically published so concurrent
	// readers (parallel check workers share one Task) can trigger or race
	// the build safely: racing builders produce identical tables and the
	// last store wins. unsafe.Pointer rather than atomic.Pointer so Task
	// values stay copyable (WithDemands/WithTopology copy the struct); the
	// published payload is immutable, so copies share it.
	blocksByType unsafe.Pointer // *[][]int: block indices per type, canonical order
}

// AddType interns a new action type and returns its handle.
func (t *Task) AddType(info ActionTypeInfo) ActionType {
	if info.UnitCost == 0 {
		info.UnitCost = 1
	}
	t.Types = append(t.Types, info)
	atomic.StorePointer(&t.blocksByType, nil)
	return ActionType(len(t.Types) - 1)
}

// AddBlock appends an operation block and returns its ID.
func (t *Task) AddBlock(b Block) int {
	b.ID = len(t.Blocks)
	if b.Name == "" {
		b.Name = fmt.Sprintf("block-%d", b.ID)
	}
	t.Blocks = append(t.Blocks, b)
	atomic.StorePointer(&t.blocksByType, nil)
	return b.ID
}

// NumTypes returns the number of interned action types.
func (t *Task) NumTypes() int { return len(t.Types) }

// NumActions returns the number of operation-block actions in the task.
func (t *Task) NumActions() int { return len(t.Blocks) }

// NumSwitchOps returns the total number of switch operations across blocks.
func (t *Task) NumSwitchOps() int {
	n := 0
	for i := range t.Blocks {
		n += len(t.Blocks[i].Switches)
	}
	return n
}

// BlocksOfType returns the IDs of blocks with the given type, in canonical
// (insertion) order. Planners operate blocks of a type strictly in this
// order, which is what makes the compact per-type-count representation of
// paper §4.2 well defined. The lazy build is goroutine-safe: concurrent
// first callers may each build the (identical) table, one winning the
// atomic publication.
func (t *Task) BlocksOfType(a ActionType) []int {
	if byType := (*[][]int)(atomic.LoadPointer(&t.blocksByType)); byType != nil {
		return (*byType)[a]
	}
	byType := make([][]int, len(t.Types))
	for i := range t.Blocks {
		ty := t.Blocks[i].Type
		byType[ty] = append(byType[ty], i)
	}
	atomic.StorePointer(&t.blocksByType, unsafe.Pointer(&byType))
	return byType[a]
}

// Touched returns the block, for its Switches and Circuits: bench/ still calls it (ROADMAP item 5(g) drops it).
func (t *Task) Touched(blockID int) *Block { return &t.Blocks[blockID] }

// Counts returns the number of blocks per action type — the target vector
// V* of the compact topology representation.
func (t *Task) Counts() []int {
	counts := make([]int, len(t.Types))
	for i := range t.Blocks {
		counts[t.Blocks[i].Type]++
	}
	return counts
}

// Apply operates block b on the view: a drain-type block deactivates its
// switches and circuits; an undrain-type block activates them.
func (t *Task) Apply(v *topo.View, blockID int) {
	b := &t.Blocks[blockID]
	active := t.Types[b.Type].Op == Undrain
	for _, s := range b.Switches {
		v.SetSwitchActive(s, active)
	}
	for _, c := range b.Circuits {
		v.SetCircuitActive(c, active)
	}
}

// Revert undoes Apply for block b on the view.
func (t *Task) Revert(v *topo.View, blockID int) {
	b := &t.Blocks[blockID]
	active := t.Types[b.Type].Op != Undrain
	for _, s := range b.Switches {
		v.SetSwitchActive(s, active)
	}
	for _, c := range b.Circuits {
		v.SetCircuitActive(c, active)
	}
}

// TargetView returns a view with every block applied — the network state
// after the migration completes.
func (t *Task) TargetView() *topo.View {
	v := t.Topo.NewView()
	for i := range t.Blocks {
		t.Apply(v, i)
	}
	return v
}

// Validate checks task invariants: every block references a valid type,
// every switch and circuit ID is in range, no switch appears in two blocks
// (a switch is operated at most once per task, paper §3), and drain blocks
// operate currently-active elements while undrain blocks operate inactive
// ones.
func (t *Task) Validate() error {
	if t.Topo == nil {
		return fmt.Errorf("migration: task %q has no topology", t.Name)
	}
	nSw := topo.SwitchID(t.Topo.NumSwitches())
	nCk := topo.CircuitID(t.Topo.NumCircuits())
	seenSw := make(map[topo.SwitchID]int)
	seenCk := make(map[topo.CircuitID]int)
	for i := range t.Blocks {
		b := &t.Blocks[i]
		if int(b.Type) < 0 || int(b.Type) >= len(t.Types) {
			return fmt.Errorf("migration: block %q has invalid type %d", b.Name, b.Type)
		}
		if len(b.Switches) == 0 && len(b.Circuits) == 0 {
			return fmt.Errorf("migration: block %q is empty", b.Name)
		}
		op := t.Types[b.Type].Op
		for _, s := range b.Switches {
			if s < 0 || s >= nSw {
				return fmt.Errorf("migration: block %q references invalid switch %d", b.Name, s)
			}
			if prev, dup := seenSw[s]; dup {
				return fmt.Errorf("migration: switch %q in both block %q and block %q",
					t.Topo.Switch(s).Name, t.Blocks[prev].Name, b.Name)
			}
			seenSw[s] = i
			if op == Drain && !t.Topo.SwitchActive(s) {
				return fmt.Errorf("migration: drain block %q operates already-inactive switch %q",
					b.Name, t.Topo.Switch(s).Name)
			}
			if op == Undrain && t.Topo.SwitchActive(s) {
				return fmt.Errorf("migration: undrain block %q operates already-active switch %q",
					b.Name, t.Topo.Switch(s).Name)
			}
		}
		for _, c := range b.Circuits {
			if c < 0 || c >= nCk {
				return fmt.Errorf("migration: block %q references invalid circuit %d", b.Name, c)
			}
			if prev, dup := seenCk[c]; dup {
				return fmt.Errorf("migration: circuit %d in both block %q and block %q",
					c, t.Blocks[prev].Name, b.Name)
			}
			seenCk[c] = i
			if op == Drain && !t.Topo.CircuitActive(c) {
				return fmt.Errorf("migration: drain block %q operates already-inactive circuit %d", b.Name, c)
			}
			if op == Undrain && t.Topo.CircuitActive(c) {
				return fmt.Errorf("migration: undrain block %q operates already-active circuit %d", b.Name, c)
			}
		}
	}
	if err := t.Demands.Validate(t.Topo); err != nil {
		return err
	}
	return nil
}

// Stats summarizes the scale of a migration task, mirroring the columns of
// Table 1 in the paper.
type TaskStats struct {
	Switches        int     // switches operated
	Circuits        int     // circuits whose state changes (operated or implied)
	Actions         int     // operation blocks
	ActionTypes     int     // distinct action types
	AffectedTbps    float64 // capacity drained (Table 1 "Capacity" column)
	UndrainedTbps   float64 // capacity added by undrains
	SwitchesPerType map[string]int
}

// Stats computes scale statistics for the task.
func (t *Task) Stats() TaskStats {
	st := TaskStats{
		Actions:         len(t.Blocks),
		ActionTypes:     len(t.Types),
		SwitchesPerType: make(map[string]int),
	}
	circuits := make(map[topo.CircuitID]bool)
	for i := range t.Blocks {
		b := &t.Blocks[i]
		info := t.Types[b.Type]
		st.Switches += len(b.Switches)
		st.SwitchesPerType[info.Name] += len(b.Switches)
		for _, c := range b.Circuits {
			circuits[c] = true
		}
		for _, s := range b.Switches {
			for _, c := range t.Topo.Switch(s).Circuits() {
				circuits[c] = true
			}
		}
	}
	for c := range circuits {
		cap := t.Topo.Circuit(c).Capacity
		st.Circuits++
		// A circuit's capacity counts as affected if it is up initially
		// (it will be lost at some point) and as undrained if it becomes up.
		if t.Topo.CircuitUp(c) {
			st.AffectedTbps += cap
		} else {
			st.UndrainedTbps += cap
		}
	}
	return st
}

// WithDemands returns a shallow task copy that plans against a different
// demand set (used when demand shifts mid-migration, paper §7.1). Topology,
// types, and blocks are shared with the original.
func (t *Task) WithDemands(ds demand.Set) *Task {
	nt := *t
	nt.Demands = ds
	return &nt
}

// WithForecast returns a shallow task copy whose boundary checks sample
// demand at each state's horizon using the given growth model. Topology,
// types, blocks, and demands are shared with the original.
func (t *Task) WithForecast(f demand.Forecast) *Task {
	nt := *t
	nt.Forecast = f
	return &nt
}

// WithTopology returns a shallow task copy over a different topology
// universe — typically a clone with out-of-band outages applied (§7.2).
// The topology must have the same switch and circuit IDs.
func (t *Task) WithTopology(tp *topo.Topology) *Task {
	if tp.NumSwitches() != t.Topo.NumSwitches() || tp.NumCircuits() != t.Topo.NumCircuits() {
		panic("migration: WithTopology requires an identically-shaped topology")
	}
	nt := *t
	nt.Topo = tp
	return &nt
}

// TypesInOrder returns the action types sorted by name, for stable output.
func (t *Task) TypesInOrder() []ActionType {
	idx := make([]ActionType, len(t.Types))
	for i := range idx {
		idx[i] = ActionType(i)
	}
	sort.Slice(idx, func(i, j int) bool { return t.Types[idx[i]].Name < t.Types[idx[j]].Name })
	return idx
}
