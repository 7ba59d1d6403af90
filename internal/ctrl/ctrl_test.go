package ctrl

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"klotski/internal/core"
	"klotski/internal/demand"
	"klotski/internal/migration"
	"klotski/internal/pipeline"
	"klotski/internal/sim"
	"klotski/internal/topo"
)

// loopTask builds the spare-rich bridge microcosm: 3 old bridges to
// drain, 3 new to undrain, 2 spares the migration never touches, one
// ECMP demand of 120 over 100-capacity bridges. Safe states need ≥2 up
// bridges, so losing one spare (or a modest surge) keeps the migration
// feasible but changes which orderings are safe — 2-up states run at
// 0.60, leaving headroom for the surges a chaos campaign throws at them.
func loopTask(t testing.TB) (*migration.Task, []topo.SwitchID) {
	t.Helper()
	tp := topo.New("loop-bridges")
	src := tp.AddSwitch(topo.Switch{Name: "src", Role: topo.RoleRSW})
	dst := tp.AddSwitch(topo.Switch{Name: "dst", Role: topo.RoleEBB})
	task := &migration.Task{Name: "loop-bridges", Topo: tp}
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
	task.Demands.Add(demand.Demand{Name: "d", Src: src, Dst: dst, Rate: 120})
	return task, spares
}

func noSleep(time.Duration) {}

// TestRunCleanWorldExecutesPlanExactly: with no faults the controller is
// a plain executor — no retries, no replans, no violations, done.
func TestRunCleanWorldExecutesPlanExactly(t *testing.T) {
	task, _ := loopTask(t)
	world := sim.NewWorld(task, nil, 1)
	out, err := Run(context.Background(), task, world, Options{Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("clean run should complete")
	}
	if out.Retries != 0 || out.Replans != 0 || out.BoundaryViolations != 0 {
		t.Fatalf("clean run should be quiet: retries=%d replans=%d violations=%d",
			out.Retries, out.Replans, out.BoundaryViolations)
	}
	if len(out.Executed) != task.NumActions() {
		t.Fatalf("executed %d of %d actions", len(out.Executed), task.NumActions())
	}
	if err := core.ValidateSequence(task, out.Executed, nil); err != nil {
		t.Fatalf("executed order invalid: %v", err)
	}
}

// TestRunChaosThreeFaults is the acceptance test for the chaos-hardened
// loop: a transient drain failure (absorbed by retries), a spare-switch
// outage (absorbed by an outage replan), and a demand surge (absorbed by
// a demand replan) — the migration must still complete with zero boundary
// violations on the live network.
func TestRunChaosThreeFaults(t *testing.T) {
	task, spares := loopTask(t)
	schedule := sim.Schedule{
		{Step: 1, Kind: sim.FaultTransient, Attempts: 2},
		{Step: 2, Kind: sim.FaultSwitchDown, Switch: spares[0]},
		{Step: 4, Kind: sim.FaultSurge, Surge: &demand.Surge{Fraction: 1, Multiplier: 1.1}},
	}
	world := sim.NewWorld(task, schedule, 7)
	out, err := Run(context.Background(), task, world, Options{Sleep: noSleep, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("chaos run should complete")
	}
	if out.Retries < 2 {
		t.Errorf("transient fault with 2 attempts should cost ≥2 retries, got %d", out.Retries)
	}
	if out.Replans < 2 {
		t.Errorf("outage + surge should force ≥2 replans, got %d", out.Replans)
	}
	if out.BoundaryViolations != 0 {
		t.Fatalf("controller let %d unsafe boundary states onto the live network", out.BoundaryViolations)
	}
	if len(out.Executed) != task.NumActions() {
		t.Fatalf("executed %d of %d actions", len(out.Executed), task.NumActions())
	}
	if err := core.ValidateSequence(task, out.Executed, nil); err != nil {
		t.Fatalf("executed order invalid: %v", err)
	}
}

// TestRunJournalCrashResume: a controller "crash" mid-migration (context
// cancelled during a retry backoff) must leave a journal from which a
// fresh controller — and a fresh world fast-forwarded through the
// committed prefix — finishes the migration.
func TestRunJournalCrashResume(t *testing.T) {
	task, _ := loopTask(t)
	schedule := sim.Schedule{{Step: 3, Kind: sim.FaultTransient, Attempts: 1}}
	path := filepath.Join(t.TempDir(), "journal.wal")

	j1, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	world1 := sim.NewWorld(task, schedule, 3)
	// The crash: the first retry backoff cancels the context, so the
	// controller dies between actions.
	out1, err := Run(ctx, task, world1, Options{
		Journal: j1,
		Sleep:   func(time.Duration) { cancel() },
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want cancellation mid-run, got %v", err)
	}
	if out1.Completed {
		t.Fatal("crashed run must not report completion")
	}
	j1.Close()

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	committed := j2.CommittedPrefix()
	if len(committed) == 0 || len(committed) >= task.NumActions() {
		t.Fatalf("crash should leave a partial committed prefix, got %d of %d",
			len(committed), task.NumActions())
	}

	// Fresh world, same fault schedule — the journal fast-forwards it.
	world2 := sim.NewWorld(task, schedule, 3)
	out2, err := Run(context.Background(), task, world2, Options{Journal: j2, Sleep: noSleep})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !out2.Completed {
		t.Fatal("resumed run should complete")
	}
	if out2.BoundaryViolations != 0 {
		t.Fatalf("resumed run had %d boundary violations", out2.BoundaryViolations)
	}
	if len(out2.Executed) != task.NumActions() {
		t.Fatalf("resumed run executed %d of %d actions", len(out2.Executed), task.NumActions())
	}
	if err := core.ValidateSequence(task, out2.Executed, nil); err != nil {
		t.Fatalf("final executed order invalid: %v", err)
	}
}

// TestRunPersistentFailureExhaustsBudgets: a block that fails more often
// than retries and replans can absorb must surface an error mentioning
// the transient cause, not loop forever.
func TestRunPersistentFailureExhaustsBudgets(t *testing.T) {
	task, _ := loopTask(t)
	schedule := sim.Schedule{{Step: 0, Kind: sim.FaultTransient, Attempts: 1000}}
	world := sim.NewWorld(task, schedule, 1)
	out, err := Run(context.Background(), task, world, Options{
		Sleep:      noSleep,
		MaxRetries: 2,
		MaxReplans: 2,
	})
	if err == nil {
		t.Fatal("persistently failing block should error out")
	}
	if !errors.Is(err, sim.ErrTransient) {
		t.Fatalf("error should wrap the transient cause, got %v", err)
	}
	if out.Completed {
		t.Fatal("failed run must not report completion")
	}
}

// TestCampaignChaos: a Monte Carlo chaos campaign over random ≥3-fault
// schedules — every run must hold the zero-boundary-violation invariant,
// and on this spare-rich topology the loop should carry most runs home.
func TestCampaignChaos(t *testing.T) {
	task, _ := loopTask(t)
	rep, err := Campaign(context.Background(), task, CampaignOptions{
		Seeds:    8,
		Seed:     100,
		Schedule: sim.ScheduleOptions{Faults: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BoundaryViolations != 0 {
		t.Fatalf("campaign observed %d boundary violations", rep.BoundaryViolations)
	}
	if rep.CompletionRate < 0.5 {
		t.Fatalf("completion rate %.2f suspiciously low; failed seeds %v",
			rep.CompletionRate, rep.FailedSeeds)
	}
	if rep.TotalRetries+rep.TotalReplans == 0 {
		t.Error("3-fault schedules should force some retries or replans")
	}
	if rep.Completed+len(rep.FailedSeeds) != rep.Seeds {
		t.Errorf("accounting mismatch: %d completed + %d failed != %d seeds",
			rep.Completed, len(rep.FailedSeeds), rep.Seeds)
	}
}

// TestJournalTruncatedTail: a crash mid-append leaves a partial final
// line; reading must drop it and keep every complete entry.
func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, err := NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(Entry{Seq: i, Op: "begin", Block: i}); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(Entry{Seq: i, Op: "done", Block: i}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"op":"beg`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	entries, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("truncated tail should be tolerated: %v", err)
	}
	if len(entries) != 6 {
		t.Fatalf("want 6 intact entries, got %d", len(entries))
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.CommittedPrefix(); len(got) != 3 {
		t.Fatalf("committed prefix = %v, want 3 blocks", got)
	}
}

// TestJournalRejectsMidFileCorruption: garbage anywhere but the tail is
// real corruption and must fail loudly.
func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	content := `{"seq":0,"op":"done","block":1}` + "\n" + "GARBAGE\n" + `{"seq":1,"op":"done","block":2}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Fatal("mid-file corruption should be an error")
	}
}

// TestRunRefusesTamperedPlan: the control loop's audit gate is the last
// line of defense — a plan whose sequence was altered after planning (and
// whose audit report was stripped) must be refused before any action is
// issued to the network.
func TestRunRefusesTamperedPlan(t *testing.T) {
	task, _ := loopTask(t)
	res, err := pipeline.RunTask(task, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tampered := *res.Plan
	tampered.Audit = nil
	tampered.Sequence = append([]int(nil), res.Plan.Sequence...)
	swapped := false
	for i := 0; i+1 < len(tampered.Sequence) && !swapped; i++ {
		a, b := tampered.Sequence[i], tampered.Sequence[i+1]
		if task.Blocks[a].Type == task.Blocks[b].Type {
			tampered.Sequence[i], tampered.Sequence[i+1] = b, a
			swapped = true
		}
	}
	if !swapped {
		t.Fatal("no same-type pair to tamper with")
	}
	world := sim.NewWorld(task, nil, 1)
	_, err = Run(context.Background(), task, world, Options{Plan: &tampered, Sleep: noSleep})
	if err == nil {
		t.Fatal("controller executed a tampered plan")
	}
	if len(world.Executed()) != 0 {
		t.Fatalf("controller applied %d actions of a tampered plan", len(world.Executed()))
	}
	if !strings.Contains(err.Error(), "audit failed") {
		t.Fatalf("refusal should cite the audit: %v", err)
	}
}

// TestRunReplansStalePrebuiltPlan: a prebuilt plan made for a world that is
// gone must not be executed. With both spares down at step 0, the pipeline's
// drain-first plan would leave no bridge up; a world whose first block was
// already operated is not where the plan's audit began. Either way the run
// must be the one Run makes with no plan at all.
func TestRunReplansStalePrebuiltPlan(t *testing.T) {
	task, spares := loopTask(t)
	res, err := pipeline.RunTask(task, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	worlds := map[string]func() *sim.World{
		"fault at step 0": func() *sim.World {
			return sim.NewWorld(task, sim.Schedule{
				{Step: 0, Kind: sim.FaultSwitchDown, Switch: spares[0]},
				{Step: 0, Kind: sim.FaultSwitchDown, Switch: spares[1]},
			}, 1)
		},
		"other prefix": func() *sim.World {
			w := sim.NewWorld(task, nil, 1)
			w.Preapply(res.Plan.Sequence[:1])
			return w
		},
	}
	for name, world := range worlds {
		t.Run(name, func(t *testing.T) {
			want, wantErr := Run(context.Background(), task, world(), Options{Sleep: noSleep})
			got, gotErr := Run(context.Background(), task, world(), Options{Plan: res.Plan, Sleep: noSleep})
			if errString(gotErr) != errString(wantErr) {
				t.Fatalf("error %v, want %v", gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("outcome with the stale plan %+v, want %+v", got, want)
			}
			if !got.Completed || got.BoundaryViolations != 0 {
				t.Fatalf("completed=%v with %d boundary violations", got.Completed, got.BoundaryViolations)
			}
		})
	}
}

// TestRunWithPrebuiltPlan: a plan audited by the pipeline can be handed
// to the controller and executes unchanged on a clean world.
func TestRunWithPrebuiltPlan(t *testing.T) {
	task, _ := loopTask(t)
	res, err := pipeline.RunTask(task, pipeline.Config{})
	if err != nil {
		t.Fatal(err)
	}
	world := sim.NewWorld(task, nil, 1)
	out, err := Run(context.Background(), task, world, Options{Plan: res.Plan, Sleep: noSleep})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed || out.Replans != 0 {
		t.Fatalf("prebuilt plan on clean world: completed=%v replans=%d", out.Completed, out.Replans)
	}
}
