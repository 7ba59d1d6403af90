package baseline

import (
	"errors"
	"math"
	"testing"

	"klotski/internal/core"
	"klotski/internal/demand"
	"klotski/internal/migration"
	"klotski/internal/topo"
)

// bridgeTask mirrors the core package's planning microcosm: parallel old
// (active) and new (inactive) bridges between src and dst.
func bridgeTask(t testing.TB, nOld, nNew int, oldCap, newCap, rate float64, srcPorts int) *migration.Task {
	t.Helper()
	tp := topo.New("bridges")
	src := tp.AddSwitch(topo.Switch{Name: "src", Role: topo.RoleRSW})
	dst := tp.AddSwitch(topo.Switch{Name: "dst", Role: topo.RoleEBB})
	task := &migration.Task{Name: "bridges", Topo: tp}
	d := task.AddType(migration.ActionTypeInfo{Name: "drain-old", Op: migration.Drain, Role: topo.RoleFADU})
	u := task.AddType(migration.ActionTypeInfo{Name: "undrain-new", Op: migration.Undrain, Role: topo.RoleFADU})
	for i := 0; i < nOld; i++ {
		s := tp.AddSwitch(topo.Switch{Name: "old" + string(rune('a'+i)), Role: topo.RoleFADU, Generation: 1})
		tp.AddCircuit(src, s, oldCap)
		tp.AddCircuit(s, dst, oldCap)
		task.AddBlock(migration.Block{Type: d, Switches: []topo.SwitchID{s}})
	}
	for i := 0; i < nNew; i++ {
		s := tp.AddSwitch(topo.Switch{Name: "new" + string(rune('a'+i)), Role: topo.RoleFADU, Generation: 2})
		tp.SetSwitchActive(s, false)
		tp.AddCircuit(src, s, newCap)
		tp.AddCircuit(s, dst, newCap)
		task.AddBlock(migration.Block{Type: u, Switches: []topo.SwitchID{s}})
	}
	if srcPorts > 0 {
		tp.SetPorts(src, srcPorts)
	}
	task.Demands.Add(demand.Demand{Name: "d", Src: src, Dst: dst, Rate: rate})
	return task
}

func TestMRCProducesValidPlan(t *testing.T) {
	task := bridgeTask(t, 3, 3, 1, 1, 1.2, 4)
	p, err := PlanMRC(task, core.Options{})
	if err != nil {
		t.Fatalf("PlanMRC: %v", err)
	}
	if err := core.VerifyPlanFreeOrder(task, p.Sequence, core.Options{}); err != nil {
		t.Fatalf("MRC plan failed verification: %v", err)
	}
	if got := core.SequenceCost(task, p.Sequence, 0, core.NoLast); math.Abs(got-p.Cost) > 1e-9 {
		t.Fatalf("MRC cost %v, SequenceCost %v", p.Cost, got)
	}
}

func TestMRCCostAtLeastOptimal(t *testing.T) {
	task := bridgeTask(t, 3, 3, 1, 1, 1.2, 4)
	opt, err := core.PlanAStar(task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mrc, err := PlanMRC(task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mrc.Cost < opt.Cost-1e-9 {
		t.Fatalf("MRC cost %v below optimal %v", mrc.Cost, opt.Cost)
	}
}

func TestMRCGreedyIsSuboptimalSomewhere(t *testing.T) {
	// With slack everywhere, greedy max-residual keeps choosing undrains
	// and drains by capacity impact rather than batching by type; on this
	// instance it pays more type changes than the optimum.
	task := bridgeTask(t, 3, 3, 1, 1.2, 1.0, 4)
	opt, err := core.PlanAStar(task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mrc, err := PlanMRC(task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mrc.Cost < opt.Cost {
		t.Fatalf("MRC %v cannot beat optimal %v", mrc.Cost, opt.Cost)
	}
	t.Logf("MRC cost %v vs optimal %v", mrc.Cost, opt.Cost)
}

func TestMRCRejectsTopologyChanging(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 2, 0.5, 0)
	task.TopologyChanging = true
	if _, err := PlanMRC(task, core.Options{}); !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("want ErrUnsupported, got %v", err)
	}
}

func TestMRCInfeasible(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 1, 10, 0)
	if _, err := PlanMRC(task, core.Options{}); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestJanusMatchesOptimal(t *testing.T) {
	for _, ports := range []int{0, 3, 4} {
		task := bridgeTask(t, 3, 3, 1, 1, 1.2, ports)
		opt, err := core.PlanAStar(task, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		j, err := PlanJanus(task, core.Options{})
		if err != nil {
			t.Fatalf("ports=%d PlanJanus: %v", ports, err)
		}
		if math.Abs(j.Cost-opt.Cost) > 1e-9 {
			t.Fatalf("ports=%d Janus cost %v != optimal %v", ports, j.Cost, opt.Cost)
		}
		if err := core.VerifyPlanFreeOrder(task, j.Sequence, core.Options{}); err != nil {
			t.Fatalf("Janus plan failed verification: %v", err)
		}
	}
}

func TestJanusWithAlpha(t *testing.T) {
	task := bridgeTask(t, 2, 3, 1, 1, 1.0, 4)
	opts := core.Options{Alpha: 0.5}
	opt, err := core.PlanAStar(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := PlanJanus(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(j.Cost-opt.Cost) > 1e-9 {
		t.Fatalf("Janus α-cost %v != optimal %v", j.Cost, opt.Cost)
	}
}

func TestJanusRejectsTopologyChanging(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 2, 0.5, 0)
	task.TopologyChanging = true
	if _, err := PlanJanus(task, core.Options{}); !errors.Is(err, core.ErrUnsupported) {
		t.Fatalf("want ErrUnsupported, got %v", err)
	}
}

func TestJanusInfeasible(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 1, 10, 0)
	if _, err := PlanJanus(task, core.Options{}); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestJanusBudget(t *testing.T) {
	task := bridgeTask(t, 3, 3, 1, 2, 0.5, 0)
	if _, err := PlanJanus(task, core.Options{MaxStates: 4}); !errors.Is(err, core.ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

// TestJanusSymmetryCollapse captures the paper's core contrast: on a fully
// symmetric task Janus's class-count states coincide with Klotski's
// type-count states, but one asymmetric capacity per bridge splits the
// symmetry classes into singletons and Janus's state space blows up to
// block subsets while Klotski's is unchanged.
func TestJanusSymmetryCollapse(t *testing.T) {
	symTask := bridgeTask(t, 3, 3, 1, 2, 0.5, 0)
	jSym, err := PlanJanus(symTask, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	asymTask := bridgeTask(t, 3, 3, 1, 2, 0.5, 0)
	// Perturb capacities so every bridge is structurally unique.
	for c := 0; c < asymTask.Topo.NumCircuits(); c++ {
		cid := topo.CircuitID(c)
		ck := asymTask.Topo.Circuit(cid)
		asymTask.Topo.SetCapacity(cid, ck.Capacity+0.001*float64(c))
	}
	jAsym, err := PlanJanus(asymTask, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if jAsym.Metrics.StatesCreated <= 2*jSym.Metrics.StatesCreated {
		t.Errorf("asymmetry should blow up Janus's state space: %d vs %d states",
			jAsym.Metrics.StatesCreated, jSym.Metrics.StatesCreated)
	}

	// Klotski's type-count representation is oblivious to the asymmetry.
	kSym, err := core.PlanAStar(symTask, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kAsym, err := core.PlanAStar(asymTask, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if kAsym.Metrics.StatesCreated > 2*kSym.Metrics.StatesCreated {
		t.Errorf("Klotski should be insensitive to symmetry loss: %d vs %d states",
			kAsym.Metrics.StatesCreated, kSym.Metrics.StatesCreated)
	}
}

func TestMRCRespectsReplanningStart(t *testing.T) {
	task := bridgeTask(t, 2, 2, 1, 2, 0.5, 0)
	// One undrain already executed.
	opts := core.Options{Executed: task.BlocksOfType(migration.ActionType(1))[:1]}
	p, err := PlanMRC(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sequence) != 3 {
		t.Fatalf("replanned MRC sequence has %d actions, want 3", len(p.Sequence))
	}
	seen := map[int]bool{}
	for _, id := range p.Sequence {
		if seen[id] {
			t.Fatalf("block %d repeated", id)
		}
		seen[id] = true
		if id == task.BlocksOfType(migration.ActionType(1))[0] {
			t.Fatal("already-executed block replanned")
		}
	}
}
