package audit

import (
	"slices"
	"strings"
	"testing"

	"klotski/internal/demand"
	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/topo"
)

// bridgeTask builds the same migration microcosm the core tests use: nOld
// active and nNew inactive parallel bridges between src and dst, with one
// demand. Draining an old bridge and undraining a new one are the two
// action types.
func bridgeTask(t testing.TB, nOld, nNew int, oldCap, newCap, rate float64) *migration.Task {
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
	task.Demands.Add(demand.Demand{Name: "d", Src: src, Dst: dst, Rate: rate})
	return task
}

// safeSeq is the undrain-first full migration: [new..., old...] block IDs.
func safeSeq(task *migration.Task) []int {
	var seq []int
	seq = append(seq, task.BlocksOfType(1)...) // undrain-new
	seq = append(seq, task.BlocksOfType(0)...) // drain-old
	return seq
}

func TestVerifyPassesSafePlan(t *testing.T) {
	task := bridgeTask(t, 2, 2, 100, 100, 150)
	rep, err := Verify(task, safeSeq(task), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("safe plan failed audit: %s", rep)
	}
	if rep.FailStep != -1 || rep.Reason != "" {
		t.Errorf("passing report carries failure fields: %+v", rep)
	}
	// Initial state, the undrain→drain boundary, and the final state.
	if rep.StatesChecked != 3 || len(rep.Steps) != 3 {
		t.Errorf("states checked = %d, steps = %d, want 3 each", rep.StatesChecked, len(rep.Steps))
	}
	if rep.WorstUtil <= 0 {
		t.Errorf("worst utilization not recorded: %v", rep.WorstUtil)
	}
}

func TestVerifyDetectsUnsafeBoundary(t *testing.T) {
	// Draining both old bridges before any new capacity is up makes the
	// demand unreachable at the drain→undrain boundary.
	task := bridgeTask(t, 2, 2, 100, 100, 150)
	seq := append(append([]int{}, task.BlocksOfType(0)...), task.BlocksOfType(1)...)
	rep, err := Verify(task, seq, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("unsafe plan passed audit")
	}
	if rep.FailStep != 2 {
		t.Errorf("FailStep = %d, want 2 (the boundary entered after both drains)", rep.FailStep)
	}
	if !strings.Contains(rep.Reason, "unsafe state") {
		t.Errorf("reason: %s", rep.Reason)
	}
	lastStep := rep.Steps[len(rep.Steps)-1]
	if lastStep.OK || lastStep.Violation.OK() {
		t.Errorf("failing step not recorded: %+v", lastStep)
	}
}

func TestVerifyDetectsReorderedAction(t *testing.T) {
	task := bridgeTask(t, 2, 2, 100, 100, 150)
	seq := safeSeq(task)
	seq[0], seq[1] = seq[1], seq[0] // same type, out of canonical order
	rep, err := Verify(task, seq, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("reordered plan passed canonical audit")
	}
	if rep.FailStep != 0 || !strings.Contains(rep.Reason, "reordered") {
		t.Errorf("FailStep = %d, reason %q; want step 0, reordered", rep.FailStep, rep.Reason)
	}

	// The same sequence is legitimate for a free-order planner.
	rep, err = Verify(task, seq, Config{FreeOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("free-order audit rejected a safe reordering: %s", rep)
	}
}

func TestVerifyDetectsInjectedAction(t *testing.T) {
	task := bridgeTask(t, 2, 2, 100, 100, 150)
	seq := safeSeq(task)
	seq = append(seq[:3:3], append([]int{seq[0]}, seq[3:]...)...) // re-inject an executed block
	rep, err := Verify(task, seq, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("injected duplicate passed audit")
	}
	if rep.FailStep != 3 || !strings.Contains(rep.Reason, "injected") {
		t.Errorf("FailStep = %d, reason %q; want step 3, injected", rep.FailStep, rep.Reason)
	}
}

func TestVerifyDetectsDroppedAction(t *testing.T) {
	task := bridgeTask(t, 2, 2, 100, 100, 150)
	seq := safeSeq(task)
	short := seq[:len(seq)-1]
	rep, err := Verify(task, short, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("incomplete plan passed audit")
	}
	if rep.FailStep != len(short) || !strings.Contains(rep.Reason, "dropped") {
		t.Errorf("FailStep = %d, reason %q; want %d, dropped", rep.FailStep, rep.Reason, len(short))
	}

	// The same prefix is a legitimate checkpoint under AllowPartial.
	rep, err = Verify(task, short, Config{AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("partial audit rejected a safe prefix: %s", rep)
	}
}

func TestVerifyResumedCanonical(t *testing.T) {
	task := bridgeTask(t, 2, 2, 100, 100, 150)
	seq := safeSeq(task)
	// Both undrains executed.
	rep, err := Verify(task, seq[2:], Config{Executed: seq[:2]})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("resumed audit failed: %s", rep)
	}
}

// TestVerifyRefusesNonCanonicalExecuted: the canonical replay names a state
// by its per-type counts, which an executed block out of canonical order
// does not reach, so the audit fails it before replaying anything, naming
// the block. The free-order replay starts after the same blocks.
func TestVerifyRefusesNonCanonicalExecuted(t *testing.T) {
	task := bridgeTask(t, 2, 2, 100, 100, 150)
	undrains := task.BlocksOfType(1)
	executed := []int{undrains[1]}
	rest := append([]int{undrains[0]}, task.BlocksOfType(0)...)
	rep, err := Verify(task, rest, Config{Executed: executed})
	if err != nil {
		t.Fatal(err)
	}
	name := task.Blocks[undrains[1]].Name
	if rep.Passed || rep.FailStep != 0 || len(rep.Steps) != 0 ||
		!strings.Contains(rep.Reason, "canonical order") || !strings.Contains(rep.Reason, name) {
		t.Fatalf("non-canonical executed block %q: %s, want a structural failure naming it", name, rep)
	}
	rep, err = Verify(task, rest, Config{Executed: executed, FreeOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed || len(rep.Start) != 1 || rep.Start[0] != undrains[1] {
		t.Fatalf("free-order replay after %q: %s, start %v", name, rep, rep.Start)
	}
}

// TestVerifyResumedCarriesRunChunk: under MaxRunLength 2, a replay that
// resumes after two undrains is in a full chunk, so its third undrain is a
// forced split and the resumed start is checked as that boundary too, as
// the whole plan's replay checks it.
func TestVerifyResumedCarriesRunChunk(t *testing.T) {
	task := bridgeTask(t, 3, 3, 100, 100, 150)
	seq := safeSeq(task)
	cfg := Config{MaxRunLength: 2}
	whole, err := Verify(task, seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Executed = seq[:2]
	resumed, err := Verify(task, seq[2:], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !whole.Passed || !resumed.Passed {
		t.Fatalf("whole %s, resumed %s", whole, resumed)
	}
	var want []int
	for _, st := range whole.Steps {
		if st.Index >= 2 {
			want = append(want, st.Index-2)
		}
	}
	var got []int
	for _, st := range resumed.Steps[1:] { // Steps[0] is the resumed start
		got = append(got, st.Index)
	}
	if !slices.Equal(got, want) || want[0] != 0 {
		t.Fatalf("resumed replay checked %v after its start, the whole replay %v", got, want)
	}
}

func TestVerifySpaceBudget(t *testing.T) {
	task := bridgeTask(t, 2, 2, 100, 100, 150)
	// All switches live in DC 0; initially 4 are active (src, dst, 2 old).
	// Undraining before draining peaks at 6; a budget of 5 makes the
	// undrain-first plan's boundary unsafe.
	budget := map[int]int{0: 5}
	rep, err := Verify(task, safeSeq(task), Config{SpaceBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("space-budget violation passed audit")
	}
	if !strings.Contains(rep.Reason, "space budget") {
		t.Errorf("reason: %s", rep.Reason)
	}
	// A looser budget admits the same plan.
	rep, err = Verify(task, safeSeq(task), Config{SpaceBudget: map[int]int{0: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("plan within budget failed: %s", rep)
	}
}

func TestVerifyMaxRunLengthBoundaries(t *testing.T) {
	task := bridgeTask(t, 3, 3, 100, 100, 150)
	rep, err := Verify(task, safeSeq(task), Config{MaxRunLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed {
		t.Fatalf("capped-run plan failed: %s", rep)
	}
	// Initial + forced split inside each 3-run + the type change + final:
	// runs [2,1][2,1] → boundaries before steps 2, 3, 5 plus ends = 5.
	if rep.StatesChecked != 5 {
		t.Errorf("states checked = %d, want 5 under MaxRunLength=2", rep.StatesChecked)
	}
}

func TestVerifyRecorderCounters(t *testing.T) {
	task := bridgeTask(t, 2, 2, 100, 100, 150)
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg)

	if _, err := Verify(task, safeSeq(task), Config{Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	bad := append(append([]int{}, task.BlocksOfType(0)...), task.BlocksOfType(1)...)
	if _, err := Verify(task, bad, Config{Recorder: rec}); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if got := snap.Counters[obs.MetricAuditSteps]; got < 4 {
		t.Errorf("%s = %d, want >= 4", obs.MetricAuditSteps, got)
	}
	if got := snap.Counters[obs.MetricAuditFailures]; got != 1 {
		t.Errorf("%s = %d, want 1", obs.MetricAuditFailures, got)
	}
}

func TestVerifyRejectsMalformedInputs(t *testing.T) {
	task := bridgeTask(t, 1, 1, 100, 100, 50)
	if _, err := Verify(nil, nil, Config{}); err == nil {
		t.Error("nil task accepted")
	}
	if _, err := Verify(task, nil, Config{Theta: 1.5}); err == nil {
		t.Error("Theta > 1 accepted")
	}
	rep, err := Verify(task, []int{99}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed || !strings.Contains(rep.Reason, "invalid block") {
		t.Errorf("out-of-range block: %s", rep)
	}
	rep, err = Verify(task, nil, Config{Executed: []int{99}, AllowPartial: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed || !strings.Contains(rep.Reason, "invalid block") {
		t.Errorf("out-of-range executed block: %s", rep)
	}
}
