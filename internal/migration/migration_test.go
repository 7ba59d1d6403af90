package migration

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// swapTask builds a minimal drain/undrain task: two active "old" switches
// and two inactive "new" switches bridging src→dst in parallel.
func swapTask(t *testing.T) (*Task, []topo.SwitchID) {
	t.Helper()
	tp := topo.New("swap")
	src := tp.AddSwitch(topo.Switch{Name: "src", Role: topo.RoleRSW})
	dst := tp.AddSwitch(topo.Switch{Name: "dst", Role: topo.RoleEBB})
	var olds, news []topo.SwitchID
	for i := 0; i < 2; i++ {
		o := tp.AddSwitch(topo.Switch{Name: "old" + string(rune('0'+i)), Role: topo.RoleFADU, Generation: 1})
		tp.AddCircuit(src, o, 1)
		tp.AddCircuit(o, dst, 1)
		olds = append(olds, o)
		n := tp.AddSwitch(topo.Switch{Name: "new" + string(rune('0'+i)), Role: topo.RoleFADU, Generation: 2})
		tp.SetSwitchActive(n, false)
		tp.AddCircuit(src, n, 2)
		tp.AddCircuit(n, dst, 2)
		news = append(news, n)
	}
	task := &Task{Name: "swap", Topo: tp}
	d := task.AddType(ActionTypeInfo{Name: "drain-old", Op: Drain, Role: topo.RoleFADU})
	u := task.AddType(ActionTypeInfo{Name: "undrain-new", Op: Undrain, Role: topo.RoleFADU})
	for _, o := range olds {
		task.AddBlock(Block{Type: d, Switches: []topo.SwitchID{o}})
	}
	for _, n := range news {
		task.AddBlock(Block{Type: u, Switches: []topo.SwitchID{n}})
	}
	task.Demands.Add(demand.Demand{Name: "d", Src: src, Dst: dst, Rate: 1})
	return task, append(olds, news...)
}

func TestTaskBasics(t *testing.T) {
	task, _ := swapTask(t)
	if task.NumTypes() != 2 || task.NumActions() != 4 || task.NumSwitchOps() != 4 {
		t.Fatalf("types=%d actions=%d ops=%d", task.NumTypes(), task.NumActions(), task.NumSwitchOps())
	}
	counts := task.Counts()
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("Counts = %v", counts)
	}
	if got := task.BlocksOfType(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("BlocksOfType(0) = %v", got)
	}
	if err := task.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestApplyRevert(t *testing.T) {
	task, _ := swapTask(t)
	v := task.Topo.NewView()
	orig := v.Clone()

	task.Apply(v, 0) // drain old0
	if v.SwitchActive(task.Blocks[0].Switches[0]) {
		t.Error("drain block should deactivate its switch")
	}
	task.Apply(v, 2) // undrain new0
	if !v.SwitchActive(task.Blocks[2].Switches[0]) {
		t.Error("undrain block should activate its switch")
	}
	task.Revert(v, 2)
	task.Revert(v, 0)
	if !v.Equal(orig) {
		t.Error("Revert should restore the view exactly")
	}
}

func TestTargetView(t *testing.T) {
	task, _ := swapTask(t)
	v := task.TargetView()
	for _, b := range task.Blocks {
		active := task.Types[b.Type].Op == Undrain
		for _, s := range b.Switches {
			if v.SwitchActive(s) != active {
				t.Errorf("switch %d active=%v in target, want %v", s, v.SwitchActive(s), active)
			}
		}
	}
}

func TestValidateCatchesDuplicateSwitch(t *testing.T) {
	task, ops := swapTask(t)
	task.AddBlock(Block{Type: 0, Switches: []topo.SwitchID{ops[0]}})
	if err := task.Validate(); err == nil || !strings.Contains(err.Error(), "both block") {
		t.Errorf("duplicate switch should fail validation, got %v", err)
	}
}

func TestValidateCatchesWrongDirection(t *testing.T) {
	task, ops := swapTask(t)
	// Undrain an already-active switch.
	task.Blocks[2].Switches = []topo.SwitchID{ops[0]}
	if err := task.Validate(); err == nil {
		t.Error("undraining an active switch should fail validation")
	}
}

func TestValidateCatchesEmptyBlock(t *testing.T) {
	task, _ := swapTask(t)
	task.AddBlock(Block{Type: 0})
	if err := task.Validate(); err == nil {
		t.Error("empty block should fail validation")
	}
}

func TestValidateCatchesBadType(t *testing.T) {
	task, _ := swapTask(t)
	task.Blocks[0].Type = 99
	if err := task.Validate(); err == nil {
		t.Error("invalid type should fail validation")
	}
}

func TestStats(t *testing.T) {
	task, _ := swapTask(t)
	st := task.Stats()
	if st.Switches != 4 || st.Actions != 4 || st.ActionTypes != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Old circuits (active) count as affected capacity: 2 switches × 2
	// circuits × 1 Tbps; new circuits as undrained: 2 × 2 × 2 Tbps.
	if st.AffectedTbps != 4 || st.UndrainedTbps != 8 {
		t.Fatalf("capacity stats = %+v", st)
	}
	if st.Circuits != 8 {
		t.Fatalf("Circuits = %d, want 8", st.Circuits)
	}
}

func TestBlockSize(t *testing.T) {
	b := Block{Switches: []topo.SwitchID{1, 2, 3}}
	if b.Size() != 3 {
		t.Errorf("Size = %d", b.Size())
	}
	cb := Block{Circuits: []topo.CircuitID{1, 2}}
	if cb.Size() != 1 {
		t.Errorf("circuit-only block Size = %d, want 1", cb.Size())
	}
	if (&Block{}).Size() != 0 {
		t.Error("empty block Size should be 0")
	}
}

func TestStrictSymmetryBlocks(t *testing.T) {
	tp := topo.New("sym")
	hub := tp.AddSwitch(topo.Switch{Name: "hub", Role: topo.RoleSSW})
	var leaves []topo.SwitchID
	for i := 0; i < 4; i++ {
		l := tp.AddSwitch(topo.Switch{Name: "leaf" + string(rune('0'+i)), Role: topo.RoleFADU})
		tp.AddCircuit(hub, l, 1)
		leaves = append(leaves, l)
	}
	// All four leaves connect to the same hub with equal capacity: one
	// strict symmetry block.
	blocks := StrictSymmetryBlocks(tp, leaves)
	if len(blocks) != 1 || len(blocks[0]) != 4 {
		t.Fatalf("blocks = %v", blocks)
	}
	// Change one leaf's capacity: it splits off.
	tp.SetCapacity(tp.Switch(leaves[3]).Circuits()[0], 2)
	blocks = StrictSymmetryBlocks(tp, leaves)
	if len(blocks) != 2 {
		t.Fatalf("capacity change should split symmetry: %v", blocks)
	}
}

func TestStrictSymmetryDistinguishesRolesAndGenerations(t *testing.T) {
	tp := topo.New("sym2")
	hub := tp.AddSwitch(topo.Switch{Name: "hub", Role: topo.RoleSSW})
	a := tp.AddSwitch(topo.Switch{Name: "a", Role: topo.RoleFADU, Generation: 1})
	b := tp.AddSwitch(topo.Switch{Name: "b", Role: topo.RoleFADU, Generation: 2})
	c := tp.AddSwitch(topo.Switch{Name: "c", Role: topo.RoleFAUU, Generation: 1})
	for _, s := range []topo.SwitchID{a, b, c} {
		tp.AddCircuit(hub, s, 1)
	}
	blocks := StrictSymmetryBlocks(tp, []topo.SwitchID{a, b, c})
	if len(blocks) != 3 {
		t.Fatalf("role/generation differences should split blocks: %v", blocks)
	}
}

func TestMaxSymmetryBlockSize(t *testing.T) {
	task, _ := swapTask(t)
	// old0/old1 are symmetric, new0/new1 are symmetric: max block = 2.
	if got := MaxSymmetryBlockSize(task); got != 2 {
		t.Fatalf("MaxSymmetryBlockSize = %d, want 2", got)
	}
}

func TestReblockIdentity(t *testing.T) {
	task, _ := swapTask(t)
	nt, err := Reblock(task, 1)
	if err != nil {
		t.Fatal(err)
	}
	if nt.NumActions() != task.NumActions() || nt.NumSwitchOps() != task.NumSwitchOps() {
		t.Fatalf("identity reblock changed shape: %d/%d", nt.NumActions(), nt.NumSwitchOps())
	}
	if err := nt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReblockMerge(t *testing.T) {
	task, _ := swapTask(t)
	nt, err := Reblock(task, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if nt.NumActions() != 2 {
		t.Fatalf("merged task has %d blocks, want 2", nt.NumActions())
	}
	if nt.NumSwitchOps() != task.NumSwitchOps() {
		t.Error("merge must preserve switch operations")
	}
	if err := nt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReblockSplit(t *testing.T) {
	task, _ := swapTask(t)
	// Merge first so blocks have 2 switches, then split back.
	merged, _ := Reblock(task, 0.5)
	split, err := Reblock(merged, 2)
	if err != nil {
		t.Fatal(err)
	}
	if split.NumActions() != 4 {
		t.Fatalf("split task has %d blocks, want 4", split.NumActions())
	}
	if split.NumSwitchOps() != task.NumSwitchOps() {
		t.Error("split must preserve switch operations")
	}
	if err := split.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReblockSplitBeyondSwitchCount(t *testing.T) {
	task, _ := swapTask(t)
	nt, err := Reblock(task, 8) // blocks have 1 switch; cannot split further
	if err != nil {
		t.Fatal(err)
	}
	if nt.NumActions() != task.NumActions() {
		t.Fatalf("over-split should keep singleton blocks: %d", nt.NumActions())
	}
	if err := nt.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReblockRejectsBadFactor(t *testing.T) {
	task, _ := swapTask(t)
	for _, f := range []float64{0, -1} {
		if _, err := Reblock(task, f); err == nil {
			t.Errorf("factor %v should be rejected", f)
		}
	}
}

func TestReblockCircuitOnlyBlocks(t *testing.T) {
	tp := topo.New("ck")
	a := tp.AddSwitch(topo.Switch{Name: "a", Role: topo.RoleFAUU})
	b := tp.AddSwitch(topo.Switch{Name: "b", Role: topo.RoleEB})
	var cks []topo.CircuitID
	for i := 0; i < 4; i++ {
		cks = append(cks, tp.AddCircuit(a, b, 1))
	}
	task := &Task{Name: "ck", Topo: tp}
	d := task.AddType(ActionTypeInfo{Name: "drain-ck", Op: Drain, Role: topo.RoleEB})
	task.AddBlock(Block{Type: d, Circuits: cks})
	task.Demands.Add(demand.Demand{Src: a, Dst: b, Rate: 0.1})

	split, err := Reblock(task, 2)
	if err != nil {
		t.Fatal(err)
	}
	if split.NumActions() != 2 {
		t.Fatalf("circuit-only split: %d blocks, want 2", split.NumActions())
	}
	total := 0
	for _, blk := range split.Blocks {
		total += len(blk.Circuits)
	}
	if total != 4 {
		t.Fatalf("split lost circuits: %d", total)
	}
}

func TestSymmetryGranularity(t *testing.T) {
	task, _ := swapTask(t)
	// Merge into 2 blocks of 2 symmetric switches, then explode back.
	merged, _ := Reblock(task, 0.5)
	sym := SymmetryGranularity(merged)
	// old0/old1 are one strict symmetry class, so they stay one block;
	// same for new0/new1: back to 2 blocks (classes), not 4.
	if sym.NumActions() != 2 {
		t.Fatalf("symmetry granularity: %d blocks", sym.NumActions())
	}
	if sym.NumSwitchOps() != task.NumSwitchOps() {
		t.Error("symmetry granularity must preserve switch ops")
	}
	if err := sym.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTypesInOrder(t *testing.T) {
	task, _ := swapTask(t)
	order := task.TypesInOrder()
	if task.Types[order[0]].Name > task.Types[order[1]].Name {
		t.Error("TypesInOrder should sort by name")
	}
}

// Property: merging then splitting (or vice versa) preserves the exact
// multiset of operated switches and circuits, for random factors.
func TestReblockPreservesOperations(t *testing.T) {
	task, _ := swapTask(t)
	f := func(mergeK, splitK uint8) bool {
		merge := 1.0 / float64(2+mergeK%3)
		split := float64(2 + splitK%3)
		a, err := Reblock(task, merge)
		if err != nil {
			return false
		}
		b, err := Reblock(a, split)
		if err != nil {
			return false
		}
		return switchMultiset(task) == switchMultiset(b) && b.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func switchMultiset(t *Task) string {
	var ids []int
	for _, b := range t.Blocks {
		for _, s := range b.Switches {
			ids = append(ids, int(s))
		}
	}
	sort.Ints(ids)
	return fmt.Sprint(ids)
}

// Property: symmetry granularity never merges blocks across action types.
func TestSymmetryGranularityTypePurity(t *testing.T) {
	task, _ := swapTask(t)
	merged, _ := Reblock(task, 0.5)
	sym := SymmetryGranularity(merged)
	for _, b := range sym.Blocks {
		if len(b.Switches) == 0 {
			continue
		}
		want := sym.Types[b.Type].Op
		for _, s := range b.Switches {
			active := sym.Topo.SwitchActive(s)
			if (want == Drain) != active {
				t.Fatalf("block %q mixes activity states", b.Name)
			}
		}
	}
}

func TestWithDemandsAndTopology(t *testing.T) {
	task, _ := swapTask(t)
	var ds demand.Set
	ds.Add(demand.Demand{Name: "x", Src: 0, Dst: 1, Rate: 0.5})
	nt := task.WithDemands(ds)
	if nt.Demands.Demands[0].Name != "x" {
		t.Error("WithDemands should install the new set on the copy")
	}
	if task.Demands.Demands[0].Name != "d" {
		t.Error("WithDemands must not touch the original task")
	}
	clone := task.Topo.Clone()
	nt2 := task.WithTopology(clone)
	if nt2.Topo != clone || task.Topo == clone {
		t.Error("WithTopology should swap only the copy's topology")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithTopology with mismatched shape should panic")
		}
	}()
	task.WithTopology(topo.New("empty"))
}

func TestOpTypeString(t *testing.T) {
	if Drain.String() != "drain" || Undrain.String() != "undrain" {
		t.Errorf("OpType strings: %s / %s", Drain, Undrain)
	}
}

// circuitTask builds a task with a circuit-only drain block across two
// circuit symmetry classes (different capacities).
func circuitTask(t *testing.T) *Task {
	t.Helper()
	tp := topo.New("ck")
	a := tp.AddSwitch(topo.Switch{Name: "a", Role: topo.RoleFAUU})
	b := tp.AddSwitch(topo.Switch{Name: "b", Role: topo.RoleEB})
	var cks []topo.CircuitID
	for i := 0; i < 2; i++ {
		cks = append(cks, tp.AddCircuit(a, b, 1))
	}
	for i := 0; i < 2; i++ {
		cks = append(cks, tp.AddCircuit(a, b, 2))
	}
	task := &Task{Name: "ck", Topo: tp}
	d := task.AddType(ActionTypeInfo{Name: "drain-ck", Op: Drain, Role: topo.RoleEB})
	task.AddBlock(Block{Type: d, Circuits: cks})
	task.Demands.Add(demand.Demand{Src: a, Dst: b, Rate: 0.1})
	return task
}

func TestSymmetryGranularityCircuitClasses(t *testing.T) {
	task := circuitTask(t)
	sym := SymmetryGranularity(task)
	// Two capacity classes → two circuit-only blocks.
	if sym.NumActions() != 2 {
		t.Fatalf("circuit symmetry classes = %d blocks, want 2", sym.NumActions())
	}
	total := 0
	for _, b := range sym.Blocks {
		if len(b.Switches) != 0 {
			t.Fatal("circuit-only blocks should stay circuit-only")
		}
		total += len(b.Circuits)
	}
	if total != 4 {
		t.Fatalf("classes cover %d circuits, want 4", total)
	}
	if err := sym.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCircuitBlockErrors(t *testing.T) {
	task := circuitTask(t)
	// Duplicate circuit across blocks.
	task.AddBlock(Block{Type: 0, Circuits: []topo.CircuitID{task.Blocks[0].Circuits[0]}})
	if err := task.Validate(); err == nil {
		t.Error("duplicate circuit should fail validation")
	}

	task2 := circuitTask(t)
	task2.Blocks[0].Circuits = append(task2.Blocks[0].Circuits, topo.CircuitID(99))
	if err := task2.Validate(); err == nil {
		t.Error("out-of-range circuit should fail validation")
	}

	task3 := circuitTask(t)
	task3.Topo.SetCircuitActive(task3.Blocks[0].Circuits[0], false)
	if err := task3.Validate(); err == nil {
		t.Error("draining an inactive circuit should fail validation")
	}

	task4 := circuitTask(t)
	task4.Topo = nil
	if err := task4.Validate(); err == nil {
		t.Error("nil topology should fail validation")
	}
}

func TestValidateRejectsBadDemands(t *testing.T) {
	task, _ := swapTask(t)
	task.Demands.Add(demand.Demand{Name: "self", Src: 0, Dst: 0, Rate: 1})
	if err := task.Validate(); err == nil {
		t.Error("invalid demand should fail task validation")
	}
}
