package sim

import (
	"errors"
	"testing"

	"klotski/internal/core"
	"klotski/internal/demand"
	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// chaosTask builds a spare-rich bridge microcosm: 3 old bridges to drain,
// 3 new bridges to undrain, 2 spare bridges the migration never touches.
// ECMP splits the one demand equally across up bridges.
func chaosTask(t testing.TB) (*migration.Task, []topo.SwitchID) {
	t.Helper()
	tp := topo.New("chaos-bridges")
	src := tp.AddSwitch(topo.Switch{Name: "src", Role: topo.RoleRSW})
	dst := tp.AddSwitch(topo.Switch{Name: "dst", Role: topo.RoleEBB})
	task := &migration.Task{Name: "chaos-bridges", Topo: tp}
	d := task.AddType(migration.ActionTypeInfo{Name: "drain-old", Op: migration.Drain, Role: topo.RoleFADU})
	u := task.AddType(migration.ActionTypeInfo{Name: "undrain-new", Op: migration.Undrain, Role: topo.RoleFADU})
	for i := 0; i < 3; i++ {
		s := tp.AddSwitch(topo.Switch{Name: "old" + string(rune('a'+i)), Role: topo.RoleFADU, Generation: 1})
		tp.AddCircuit(src, s, 100)
		tp.AddCircuit(s, dst, 100)
		task.AddBlock(migration.Block{Name: "drain-old" + string(rune('a'+i)), Type: d, Switches: []topo.SwitchID{s}})
	}
	for i := 0; i < 3; i++ {
		s := tp.AddSwitch(topo.Switch{Name: "new" + string(rune('a'+i)), Role: topo.RoleFADU, Generation: 2})
		tp.SetSwitchActive(s, false)
		tp.AddCircuit(src, s, 100)
		tp.AddCircuit(s, dst, 100)
		task.AddBlock(migration.Block{Name: "undrain-new" + string(rune('a'+i)), Type: u, Switches: []topo.SwitchID{s}})
	}
	var spares []topo.SwitchID
	for i := 0; i < 2; i++ {
		s := tp.AddSwitch(topo.Switch{Name: "spare" + string(rune('a'+i)), Role: topo.RoleFADU, Generation: 1})
		tp.AddCircuit(src, s, 100)
		tp.AddCircuit(s, dst, 100)
		spares = append(spares, s)
	}
	task.Demands.Add(demand.Demand{Name: "d", Src: src, Dst: dst, Rate: 150})
	return task, spares
}

func TestWorldFaultsFireByStepAndBumpEpoch(t *testing.T) {
	task, spares := chaosTask(t)
	sched := Schedule{
		{Step: 0, Kind: FaultSwitchDown, Switch: spares[0]},
		{Step: 1, Kind: FaultSurge, Surge: &demand.Surge{Fraction: 1, Multiplier: 1.1}},
		{Step: 2, Kind: FaultTransient, Attempts: 2},
	}
	w := NewWorld(task, sched, 1)

	if e := w.Poll(); e != 1 {
		t.Fatalf("switch-down at step 0 should bump epoch to 1, got %d", e)
	}
	if down := w.DownSwitches(); len(down) != 1 || down[0] != spares[0] {
		t.Fatalf("DownSwitches = %v, want [%d]", down, spares[0])
	}
	if w.DemandsChanged() {
		t.Fatal("surge at step 1 must not fire at step 0")
	}

	plan, err := core.PlanAStar(task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Apply(plan.Sequence[0]); err != nil {
		t.Fatalf("first apply: %v", err)
	}
	if e := w.Poll(); e != 2 {
		t.Fatalf("surge at step 1 should bump epoch to 2, got %d", e)
	}
	if !w.DemandsChanged() {
		t.Fatal("surge fired but DemandsChanged is false")
	}
	// The outage removed a bridge and the surge grew demand: the live
	// network runs hotter than a fault-free world at the same prefix.
	clean := NewWorld(task, nil, 1)
	if err := clean.Apply(plan.Sequence[0]); err != nil {
		t.Fatal(err)
	}
	hot, _ := w.Observe(0, routing.SplitEqual)
	cool, _ := clean.Observe(0, routing.SplitEqual)
	if hot <= cool {
		t.Errorf("outage+surge should raise utilization: %v vs fault-free %v", hot, cool)
	}

	if err := w.Apply(plan.Sequence[1]); err != nil {
		t.Fatalf("second apply: %v", err)
	}
	epochBefore := w.Poll()
	err = w.Apply(plan.Sequence[2])
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("transient fault should fail the apply, got %v", err)
	}
	if w.Epoch() != epochBefore {
		t.Fatal("transient failures must not bump the epoch")
	}
	err = w.Apply(plan.Sequence[2])
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("second transient attempt should also fail, got %v", err)
	}
	if err := w.Apply(plan.Sequence[2]); err != nil {
		t.Fatalf("third attempt should succeed, got %v", err)
	}
	if got := len(w.Executed()); got != 3 {
		t.Fatalf("3 blocks applied, Executed reports %d", got)
	}
}

func TestWorldCircuitFlapRecovers(t *testing.T) {
	task, _ := chaosTask(t)
	// Flap a spare circuit (last circuits added belong to spares).
	spareCircuit := topo.CircuitID(task.Topo.NumCircuits() - 1)
	w := NewWorld(task, Schedule{
		{Step: 0, Kind: FaultCircuitFlap, Circuit: spareCircuit, Steps: 1},
	}, 1)
	if e := w.Poll(); e != 1 {
		t.Fatalf("flap should bump epoch, got %d", e)
	}
	if down := w.DownCircuits(); len(down) != 1 || down[0] != spareCircuit {
		t.Fatalf("DownCircuits = %v, want [%d]", down, spareCircuit)
	}
	plan, err := core.PlanAStar(task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Apply(plan.Sequence[0]); err != nil {
		t.Fatal(err)
	}
	if e := w.Poll(); e != 2 {
		t.Fatalf("flap recovery should bump epoch again, got %d", e)
	}
	if down := w.DownCircuits(); len(down) != 0 {
		t.Fatalf("circuit should have recovered, DownCircuits = %v", down)
	}
}

func TestRandomScheduleRespectsOperatedEquipment(t *testing.T) {
	task, _ := chaosTask(t)
	operatedSw := make(map[topo.SwitchID]bool)
	operatedCk := make(map[topo.CircuitID]bool)
	for i := range task.Blocks {
		for _, s := range task.Blocks[i].Switches {
			operatedSw[s] = true
		}
		for _, c := range task.Blocks[i].Circuits {
			operatedCk[c] = true
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		sched := RandomSchedule(task, seed, ScheduleOptions{Faults: 5})
		if len(sched) != 5 {
			t.Fatalf("seed %d: want 5 faults, got %d", seed, len(sched))
		}
		for _, f := range sched {
			if f.Step < 1 || f.Step > task.NumActions() {
				t.Fatalf("seed %d: fault step %d out of range", seed, f.Step)
			}
			switch f.Kind {
			case FaultSwitchDown:
				if operatedSw[f.Switch] {
					t.Fatalf("seed %d: outage targets operated switch %d", seed, f.Switch)
				}
				for _, dm := range task.Demands.Demands {
					if f.Switch == dm.Src || f.Switch == dm.Dst {
						t.Fatalf("seed %d: outage targets demand endpoint %d", seed, f.Switch)
					}
				}
			case FaultCircuitFlap:
				if operatedCk[f.Circuit] {
					t.Fatalf("seed %d: flap targets operated circuit %d", seed, f.Circuit)
				}
			}
		}
	}
}

// TestCampaignWorstSeedAbsolute is the regression test for WorstSeed
// reporting: with a nonzero base seed, WorstSeed must be an absolute seed
// (base+s), reproducible by setting Options.Seed directly — including in
// the degenerate zero-peak case where no replay ever beats the initial
// maximum.
func TestCampaignWorstSeedAbsolute(t *testing.T) {
	task, _ := chaosTask(t)
	plan, err := core.PlanAStar(task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const base = int64(1000)
	const seeds = 5
	rep, err := NewExecutor(task).Campaign(plan.Sequence, Options{Seed: base}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstSeed < base || rep.WorstSeed >= base+seeds {
		t.Fatalf("WorstSeed %d is not an absolute seed in [%d, %d)", rep.WorstSeed, base, base+seeds)
	}
	// Replaying the worst seed directly must reproduce the reported peak.
	replay, err := NewExecutor(task).Execute(plan.Sequence, Options{
		Seed:        rep.WorstSeed,
		Granularity: GranularityCircuit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if replay.PeakUtil != rep.PeakMax {
		t.Fatalf("replaying WorstSeed %d gives peak %v, campaign reported %v",
			rep.WorstSeed, replay.PeakUtil, rep.PeakMax)
	}

	// Zero-peak degenerate case: no demands, every replay peaks at 0 —
	// WorstSeed must still be absolute (the base), never a bare offset.
	noDemand := *task
	noDemand.Demands = demand.Set{}
	rep0, err := NewExecutor(&noDemand).Campaign(plan.Sequence, Options{Seed: base}, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if rep0.WorstSeed < base || rep0.WorstSeed >= base+seeds {
		t.Fatalf("zero-peak campaign WorstSeed %d not absolute (base %d)", rep0.WorstSeed, base)
	}
}

// TestWorldTelemetryFaults: telemetry faults degrade only the observation
// channel — ObserveDemands errors or lies for the scheduled number of
// observations, the network epoch never moves, and ground truth
// (Demands()) stays intact throughout.
func TestWorldTelemetryFaults(t *testing.T) {
	task, _ := chaosTask(t)

	t.Run("drop", func(t *testing.T) {
		w := NewWorld(task, Schedule{{Step: 0, Kind: FaultTelemetryDrop, Steps: 2}}, 1)
		if e := w.Poll(); e != 0 {
			t.Fatalf("telemetry fault must not bump the epoch, got %d", e)
		}
		for i := 0; i < 2; i++ {
			if _, err := w.ObserveDemands(); !errors.Is(err, ErrTelemetry) {
				t.Fatalf("observation %d: want ErrTelemetry, got %v", i, err)
			}
		}
		ds, err := w.ObserveDemands()
		if err != nil {
			t.Fatalf("collector should be back after 2 dropped observations: %v", err)
		}
		if ds.Demands[0].Rate != 150 {
			t.Fatalf("recovered observation rate = %v, want 150", ds.Demands[0].Rate)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		w := NewWorld(task, Schedule{{Step: 0, Kind: FaultTelemetryCorrupt, Steps: 1}}, 1)
		w.Poll()
		bad, err := w.ObserveDemands()
		if err != nil {
			t.Fatalf("corrupt telemetry returns data, not an error: %v", err)
		}
		r := bad.Demands[0].Rate
		if !(r != r || r <= 0 || r > 1e6) { // NaN, negated, or wildly inflated
			t.Fatalf("corrupt observation rate %v looks sane", r)
		}
		if w.Demands().Demands[0].Rate != 150 {
			t.Fatal("corruption leaked into ground truth")
		}
		good, err := w.ObserveDemands()
		if err != nil || good.Demands[0].Rate != 150 {
			t.Fatalf("next observation should be clean, got %v, %v", good.Demands, err)
		}
	})

	t.Run("stale", func(t *testing.T) {
		w := NewWorld(task, Schedule{{Step: 0, Kind: FaultTelemetryStale, Steps: 1}}, 1)
		w.Poll()
		// Ground truth moves after the snapshot was frozen.
		w.SetDemandGrowth(0.1)
		plan, err := core.PlanAStar(task, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Apply(plan.Sequence[0]); err != nil {
			t.Fatal(err)
		}
		stale, err := w.ObserveDemands()
		if err != nil {
			t.Fatal(err)
		}
		if stale.Demands[0].Rate != 150 {
			t.Fatalf("stale observation rate = %v, want frozen 150", stale.Demands[0].Rate)
		}
		fresh, err := w.ObserveDemands()
		if err != nil {
			t.Fatal(err)
		}
		if fresh.Demands[0].Rate <= 150 {
			t.Fatalf("post-stale observation rate = %v, want grown ground truth", fresh.Demands[0].Rate)
		}
	})
}

// TestWorldTransientSurgeRecovers: a FaultSurge with Steps set is a
// transient spike — rates multiply when it fires and divide back after the
// recovery horizon, each transition bumping the epoch so the controller
// replans both into and out of the surge.
func TestWorldTransientSurgeRecovers(t *testing.T) {
	task, _ := chaosTask(t)
	w := NewWorld(task, Schedule{
		{Step: 0, Kind: FaultSurge, Steps: 2, Surge: &demand.Surge{Fraction: 1, Multiplier: 2}},
	}, 1)
	if e := w.Poll(); e != 1 {
		t.Fatalf("surge should bump epoch to 1, got %d", e)
	}
	if r := w.Demands().Demands[0].Rate; r != 300 {
		t.Fatalf("surged rate = %v, want 300", r)
	}
	plan, err := core.PlanAStar(task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Apply(plan.Sequence[i]); err != nil {
			t.Fatal(err)
		}
	}
	if e := w.Poll(); e != 2 {
		t.Fatalf("surge recovery should bump epoch to 2, got %d", e)
	}
	if r := w.Demands().Demands[0].Rate; r != 150 {
		t.Fatalf("recovered rate = %v, want 150", r)
	}
}
