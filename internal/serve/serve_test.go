package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"klotski/internal/core"
	"klotski/internal/npd"
	"klotski/internal/obs"
	"klotski/internal/sim"
)

// testNPD is the small-but-real region document shared with the CLI
// tests: two pods of HGRID fabric migrating v1→v2, enough blocks for the
// planner to need several legs under a small per-leg budget.
const testNPD = `{
	"version": 1,
	"name": "serve-test",
	"fabric": [{"dc": 0, "pods": 2, "rswPerPod": 2, "planes": 4, "sswPerPlane": 2, "fswUplinks": 1}],
	"hgrid": {"grids": 4, "faduPerGrid": 2, "fauuPerGrid": 1, "sswDownlinks": 1},
	"eb": {"count": 2, "linkTbps": 40},
	"dr": {"count": 1, "linkTbps": 80},
	"bb": {"ebbs": 1},
	"migration": {"kind": "hgrid-v1-v2"}
}`

func testRequest() Request {
	return Request{NPD: json.RawMessage(testNPD)}
}

// newManager opens a manager over dir with small budgets: a tiny per-leg
// state budget so even the test fabric checkpoints several times.
func newManager(t *testing.T, dir string, mutate func(*Config)) *Manager {
	t.Helper()
	cfg := Config{
		Dir:         dir,
		PoolWorkers: 2,
		LegStates:   8,
		AdmitWait:   5 * time.Second,
		Recorder:    obs.NewRecorder(obs.NewRegistry()),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		st := j.Status()
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (%s)", st.ID, st.State, st.Detail)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	m := newManager(t, dir, nil)
	defer m.Close()

	j, err := m.Submit(testRequest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want DONE", st.State, st.Detail)
	}
	if st.Gap != 0 {
		t.Errorf("completed job gap = %v, want certified 0", st.Gap)
	}
	if st.Legs == 0 {
		t.Errorf("job planned without a single checkpoint leg; LegStates too large for the fixture")
	}
	if st.Actions == 0 || st.Cost <= 0 {
		t.Errorf("final plan summary empty: %+v", st)
	}

	doc, err := j.Plan()
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	var pd struct {
		Task    string  `json:"task"`
		Cost    float64 `json:"cost"`
		Actions int     `json:"actions"`
	}
	if err := json.Unmarshal(doc, &pd); err != nil {
		t.Fatalf("plan document does not parse: %v", err)
	}
	if pd.Task != "serve-test" || pd.Actions != st.Actions || pd.Cost != st.Cost {
		t.Errorf("plan document %+v disagrees with status %+v", pd, st)
	}

	// The sealed checkpoint envelope from the last leg must verify.
	if _, err := m.CheckpointEnvelope(j.ID); err != nil {
		t.Errorf("CheckpointEnvelope: %v", err)
	}

	// The journal must fold back to DONE with the same plan.
	m.Close()
	m2 := newManager(t, dir, nil)
	defer m2.Close()
	j2, err := m2.Job(j.ID)
	if err != nil {
		t.Fatalf("job lost across restart: %v", err)
	}
	st2 := j2.Status()
	if st2.State != StateDone || st2.Cost != st.Cost || st2.Actions != st.Actions {
		t.Errorf("restarted status %+v, want %+v", st2, st)
	}
	doc2, err := j2.Plan()
	if err != nil {
		t.Fatalf("restarted Plan: %v", err)
	}
	if string(doc2) != string(doc) {
		t.Errorf("plan document changed across restart")
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newManager(t, t.TempDir(), nil)
	defer m.Close()

	cases := []Request{
		{},
		{NPD: json.RawMessage(`{"version": 99}`)},
		{NPD: json.RawMessage(testNPD), Planner: "mrc"},
		{NPD: json.RawMessage(testNPD), Theta: 1.5},
		{NPD: json.RawMessage(testNPD), DeadlineMS: -1},
	}
	for i, rq := range cases {
		if _, err := m.Submit(rq); !errors.Is(err, ErrInvalidRequest) {
			t.Errorf("case %d: err = %v, want ErrInvalidRequest", i, err)
		}
	}
	if got := len(m.Jobs()); got != 0 {
		t.Errorf("%d jobs exist after rejected submissions", got)
	}
}

func TestCancel(t *testing.T) {
	dir := t.TempDir()
	// Slow the legs down so the cancel lands mid-planning.
	started := make(chan struct{})
	m := newManager(t, dir, func(c *Config) {
		c.LegHook = func(id string, leg int) error {
			if leg == 1 {
				close(started)
				time.Sleep(20 * time.Millisecond)
			}
			return nil
		}
	})
	defer m.Close()
	j, err := m.Submit(testRequest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-started
	if err := m.Cancel(j.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st := waitTerminal(t, j)
	if st.State != StateCancelled {
		t.Fatalf("job finished %s, want CANCELLED", st.State)
	}
	if err := m.Cancel(j.ID); !errors.Is(err, ErrTerminal) {
		t.Errorf("second cancel: %v, want ErrTerminal", err)
	}

	// Cancellation is durable.
	m.Close()
	m2 := newManager(t, dir, nil)
	defer m2.Close()
	j2, err := m2.Job(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Status().State; got != StateCancelled {
		t.Errorf("restarted state %s, want CANCELLED", got)
	}
}

func TestDeadlineExpiry(t *testing.T) {
	reg := obs.NewRegistry()
	m := newManager(t, t.TempDir(), func(c *Config) {
		c.Recorder = obs.NewRecorder(reg)
		c.LegHook = func(id string, leg int) error {
			time.Sleep(30 * time.Millisecond)
			return nil
		}
	})
	defer m.Close()

	rq := testRequest()
	rq.DeadlineMS = 5
	j, err := m.Submit(rq)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || st.Detail != "deadline expired" {
		t.Fatalf("job finished %s (%q), want FAILED deadline expired", st.State, st.Detail)
	}
	if got := reg.Snapshot().Counters[obs.MetricServeDeadlineExpiries]; got != 1 {
		t.Errorf("deadline_expiries = %d, want 1", got)
	}
}

// TestOpenRefusesBadDefaults: a daemon does not start with defaults it
// cannot plan with. Open refuses default options that core.Options.Validate
// rejects, the rule every job's options meet, and a negative pool size or
// leg budget, which would otherwise be read as GOMAXPROCS or 50 000. It
// creates no state directory.
func TestOpenRefusesBadDefaults(t *testing.T) {
	for _, row := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"theta 2", func(c *Config) { c.Options.Theta = 2 }},
		{"theta -0.5", func(c *Config) { c.Options.Theta = -0.5 }},
		{"alpha 1.5", func(c *Config) { c.Options.Alpha = 1.5 }},
		{"max run -1", func(c *Config) { c.Options.MaxRunLength = -1 }},
		{"pool workers -1", func(c *Config) { c.PoolWorkers = -1 }},
		{"leg states -1", func(c *Config) { c.LegStates = -1 }},
	} {
		dir := filepath.Join(t.TempDir(), "state")
		cfg := Config{Dir: dir}
		row.mutate(&cfg)
		if m, err := Open(cfg); err == nil {
			m.Close()
			t.Errorf("%s: Open accepted it", row.name)
		}
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: a refused Open left its state directory (%v)", row.name, err)
		}
	}
}

func TestTransientRetryBackoff(t *testing.T) {
	var slept []time.Duration
	fails := 2
	m := newManager(t, t.TempDir(), func(c *Config) {
		c.Sleep = func(d time.Duration) { slept = append(slept, d) }
		c.LegHook = func(id string, leg int) error {
			if leg == 0 && fails > 0 {
				fails--
				return fmt.Errorf("injected: %w", sim.ErrTransient)
			}
			return nil
		}
	})
	defer m.Close()
	j, err := m.Submit(testRequest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s), want DONE despite transient faults", st.State, st.Detail)
	}
	if len(slept) != 2 {
		t.Fatalf("%d backoff sleeps, want 2", len(slept))
	}
	for i, d := range slept {
		if d <= 0 {
			t.Errorf("backoff %d = %v, want positive", i, d)
		}
	}
}

func TestTransientRetryExhaustion(t *testing.T) {
	fails := maxRetries + 1 // one more than the retries allow
	m := newManager(t, t.TempDir(), func(c *Config) {
		c.Sleep = func(time.Duration) {}
		c.LegHook = func(id string, leg int) error {
			if fails > 0 {
				fails--
				return fmt.Errorf("injected: %w", sim.ErrTransient)
			}
			return nil
		}
	})
	defer m.Close()
	j, err := m.Submit(testRequest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed {
		t.Fatalf("job finished %s, want FAILED after retry exhaustion", st.State)
	}
}

func TestDrainCheckpointsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	legged := make(chan struct{})
	var once bool
	m := newManager(t, dir, func(c *Config) {
		c.Recorder = obs.NewRecorder(reg)
		c.LegHook = func(id string, leg int) error {
			if leg >= 1 && !once {
				once = true
				close(legged)
			}
			if leg >= 1 {
				time.Sleep(5 * time.Millisecond)
			}
			return nil
		}
	})
	j, err := m.Submit(testRequest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-legged // at least one checkpoint is journaled
	m.Drain()
	if _, err := m.Submit(testRequest()); !errors.Is(err, ErrDraining) {
		t.Errorf("Submit while draining: %v, want ErrDraining", err)
	}
	st := j.Status()
	if st.State.Terminal() {
		t.Fatalf("drained job reached %s; drain must leave it in-flight", st.State)
	}
	if st.Legs == 0 {
		t.Fatalf("drained job has no checkpoint legs")
	}
	m.Close()
	if got := reg.Snapshot().Counters[obs.MetricServeDrains]; got != 1 {
		t.Errorf("drains = %d, want 1", got)
	}

	// Reopen: the job recovers and finishes audited.
	reg2 := obs.NewRegistry()
	m2 := newManager(t, dir, func(c *Config) { c.Recorder = obs.NewRecorder(reg2) })
	defer m2.Close()
	j2, err := m2.Job(j.ID)
	if err != nil {
		t.Fatalf("job lost across drain/restart: %v", err)
	}
	st2 := waitTerminal(t, j2)
	if st2.State != StateDone {
		t.Fatalf("recovered job finished %s (%s), want DONE", st2.State, st2.Detail)
	}
	if !st2.Recovered {
		t.Errorf("recovered job not flagged as recovered")
	}
	if got := reg2.Snapshot().Counters[obs.MetricServeJobsRecovered]; got != 1 {
		t.Errorf("jobs_recovered = %d, want 1", got)
	}
}

// TestAdmissionFlood floods a two-worker pool with min-share-2 jobs:
// only one can hold a reservation at a time, so the rest time out of
// admission and degrade to serial planning instead of being rejected or
// wedged. Every job must still finish DONE with the same plan.
//
// Planning one of these jobs takes about a millisecond, far less than
// AdmitWait, so left alone the admitted job would release the pool before
// anyone times out. The leg hook therefore holds every job at its first leg
// until a degrade has been counted: the admitted job keeps its reservation
// for as long as it takes, and degraded jobs — which reach the hook only
// after the count moved — pass straight through.
func TestAdmissionFlood(t *testing.T) {
	reg := obs.NewRegistry()
	m := newManager(t, t.TempDir(), func(c *Config) {
		c.PoolWorkers = 2
		c.AdmitWait = 10 * time.Millisecond
		c.Recorder = obs.NewRecorder(reg)
		c.LegHook = func(string, int) error {
			deadline := time.Now().Add(10 * time.Second)
			for reg.Snapshot().Counters[obs.MetricServeSerialDegrades] == 0 {
				if time.Now().After(deadline) {
					return errors.New("no job degraded while the pool was held")
				}
				time.Sleep(time.Millisecond)
			}
			return nil
		}
	})
	defer m.Close()

	const flood = 5
	jobs := make([]*Job, flood)
	for i := range jobs {
		rq := testRequest()
		rq.MinShare = 2
		j, err := m.Submit(rq)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs[i] = j
	}
	var docs [][]byte
	for i, j := range jobs {
		st := waitTerminal(t, j)
		if st.State != StateDone {
			t.Fatalf("job %d finished %s (%s), want DONE", i, st.State, st.Detail)
		}
		doc, err := j.Plan()
		if err != nil {
			t.Fatalf("job %d plan: %v", i, err)
		}
		docs = append(docs, doc)
	}
	for i := 1; i < len(docs); i++ {
		if string(docs[i]) != string(docs[0]) {
			t.Errorf("job %d plan differs from job 0 under admission pressure", i)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters[obs.MetricServeSerialDegrades] == 0 {
		t.Errorf("no serial degrades under a flooded pool")
	}
	if got := snap.Counters[obs.MetricServeJobsSubmitted]; got != flood {
		t.Errorf("jobs_submitted = %d, want %d", got, flood)
	}
}

// TestPriorityPreemption runs a low-priority job on a saturated pool and
// submits a high-priority one: the low job must be preempted, checkpoint,
// and still finish with the identical plan after re-admission.
func TestPriorityPreemption(t *testing.T) {
	m := newManager(t, t.TempDir(), func(c *Config) {
		c.PoolWorkers = 2
		c.AdmitWait = 30 * time.Second // force preemption, not serial degrade
	})
	defer m.Close()

	low := testRequest()
	low.MinShare = 2
	jLow, err := m.Submit(low)
	if err != nil {
		t.Fatalf("Submit low: %v", err)
	}
	// Wait for the low job to hold the pool.
	for jLow.Status().State == StateSubmitted {
		time.Sleep(time.Millisecond)
	}
	high := testRequest()
	high.Priority = 10
	high.MinShare = 2
	jHigh, err := m.Submit(high)
	if err != nil {
		t.Fatalf("Submit high: %v", err)
	}
	stHigh := waitTerminal(t, jHigh)
	stLow := waitTerminal(t, jLow)
	if stHigh.State != StateDone || stLow.State != StateDone {
		t.Fatalf("high %s / low %s, want DONE/DONE", stHigh.State, stLow.State)
	}
	dLow, _ := jLow.Plan()
	dHigh, _ := jHigh.Plan()
	if string(dLow) != string(dHigh) {
		t.Errorf("preempted job's plan differs from the preemptor's for the same request")
	}
}

func TestEmptyJournalRemoved(t *testing.T) {
	dir := t.TempDir()
	// A crash between journal creation and the first durable record:
	// the submitter was never acknowledged, so the job must vanish.
	if err := os.WriteFile(filepath.Join(dir, "job-000007.journal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, dir, nil)
	defer m.Close()
	if got := len(m.Jobs()); got != 0 {
		t.Fatalf("%d jobs recovered from an empty journal, want 0", got)
	}
	// The ID is still burned: the next submission must not collide.
	j, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-000008" {
		t.Errorf("next job ID %s, want job-000008 (IDs allocate past the removed journal)", j.ID)
	}
	waitTerminal(t, j)
}

// TestPlannerPanicFailsJobNotDaemon poisons one job: its second planning leg
// panics inside ctrl.RunLegs, where the hook, the planner and its audit run
// on the job's goroutine, so a panic in any of them is contained alike. The
// daemon must turn that into the job's FAILED terminal record — not die,
// which at one time it did, taking every other tenant's job with it and
// re-running the journaled job into the same panic after each restart —
// give the job's pool reservation back, plan the next job to DONE, and after
// a restart hold both jobs as they ended, planning nothing again.
func TestPlannerPanicFailsJobNotDaemon(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	var armed atomic.Bool
	armed.Store(true)
	m := newManager(t, dir, func(c *Config) {
		c.Recorder = obs.NewRecorder(reg)
		c.PoolWorkers = 1
		c.LegHook = func(id string, leg int) error {
			if armed.Load() && leg == 1 {
				panic("poisoned fabric")
			}
			return nil
		}
	})
	defer func() { m.Close() }()
	rq := testRequest()
	rq.MinShare = 1 // the whole pool: the next job is admitted only if this reservation comes back
	poisoned, err := m.Submit(rq)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, poisoned)
	if st.State != StateFailed || st.Detail != "panic: poisoned fabric" {
		t.Fatalf("poisoned job finished %s (%q), want FAILED with the panic's message", st.State, st.Detail)
	}
	if st.Legs == 0 {
		t.Fatal("the poisoned job failed before journaling a checkpoint; the restart below would prove nothing")
	}
	if got := reg.Snapshot().Counters[obs.MetricServePlannerPanics]; got != 1 {
		t.Errorf("planner_panics = %d, want 1", got)
	}

	armed.Store(false)
	healthy, err := m.Submit(rq)
	if err != nil {
		t.Fatalf("Submit after the panic: %v", err)
	}
	if st := waitTerminal(t, healthy); st.State != StateDone || st.Serial {
		t.Fatalf("job after the panic finished %s (%q), serial=%v; want DONE on the pool", st.State, st.Detail, st.Serial)
	}
	wantPlan, err := healthy.Plan()
	if err != nil {
		t.Fatal(err)
	}

	m.Close()
	replanned := 0
	m = newManager(t, dir, func(c *Config) {
		c.LegHook = func(string, int) error { replanned++; return nil }
	})
	if got := len(m.Jobs()); got != 2 {
		t.Fatalf("%d jobs after the restart, want both", got)
	}
	j, err := m.Job(poisoned.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != StateFailed || st.Detail != "panic: poisoned fabric" {
		t.Errorf("poisoned job after the restart is %s (%q), want FAILED as it ended", st.State, st.Detail)
	}
	j, err = m.Job(healthy.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotPlan, err := j.Plan(); err != nil || !bytes.Equal(gotPlan, wantPlan) {
		t.Errorf("healthy job's plan after the restart: err %v, same bytes %v", err, bytes.Equal(gotPlan, wantPlan))
	}
	m.Close() // waits for anything the restart relaunched
	if replanned != 0 {
		t.Errorf("the restart ran %d planning legs, want none", replanned)
	}
}

// TestCheckpointPartialTrimmed: A* pushes run extensions unchecked, so the
// frontier a checkpoint reaches can be an unsafe paused state. The daemon
// seals and reports only the checkpoint's SafePartial, the longest prefix
// an operator may execute and pause at (core's
// TestSafePartialTrimsUnsafeFrontier proves the trim): every sealed
// checkpoint is a plan document whose phases end at a safe state and hold
// the partial_actions the job reports.
func TestCheckpointPartialTrimmed(t *testing.T) {
	doc, err := npd.Decode(bytes.NewReader([]byte(testNPD)))
	if err != nil {
		t.Fatal(err)
	}
	task, _, err := doc.Task()
	if err != nil {
		t.Fatal(err)
	}
	var m *Manager
	var checked atomic.Int32
	m = newManager(t, t.TempDir(), func(c *Config) {
		c.LegHook = func(id string, leg int) error {
			if leg == 0 {
				return nil
			}
			data, err := m.CheckpointEnvelope(id)
			if err != nil {
				t.Errorf("leg %d: CheckpointEnvelope: %v", leg, err)
				return nil
			}
			ck, err := npd.ReadPlan(data)
			if err != nil {
				t.Errorf("leg %d: %v", leg, err)
				return nil
			}
			executed, seq, err := ck.Sequence(task)
			if err != nil || len(executed) != 0 || ck.Checkpoint == nil || ck.Checkpoint.Planner != "astar" {
				t.Errorf("leg %d: checkpoint document %+v (executed %v): %v", leg, ck, executed, err)
				return nil
			}
			j, err := m.Job(id)
			if err != nil {
				t.Errorf("leg %d: %v", leg, err)
				return nil
			}
			if st := j.Status(); st.PartialActions != len(seq) || ck.Actions != len(seq) {
				t.Errorf("leg %d: status partial_actions %d, document actions %d, phases %d", leg, st.PartialActions, ck.Actions, len(seq))
			}
			if err := core.CheckState(task, core.CountsOf(task, seq), core.Options{}); err != nil {
				t.Errorf("leg %d: the sealed partial ends at an unsafe state: %v", leg, err)
			}
			checked.Add(1)
			return nil
		}
	})
	defer m.Close()
	j, err := m.Submit(testRequest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitTerminal(t, j); st.State != StateDone {
		t.Fatalf("job finished %s (%s), want DONE", st.State, st.Detail)
	}
	if checked.Load() == 0 {
		t.Fatal("no checkpoint read; the leg budget must interrupt the job")
	}
}

// TestDPTinyLegsFinish: a DP job whose leg budget is below its recursion
// depth still finishes, with the plan an unsliced DP job makes. Each leg
// evicts the recursion path it left in flight, so a leg that finalized no
// memo entry would leave the next one where it began.
func TestDPTinyLegsFinish(t *testing.T) {
	m := newManager(t, t.TempDir(), func(c *Config) { c.LegStates = 1 << 20 })
	defer m.Close()
	var docs [][]byte
	for _, legs := range []int{0, 2} {
		rq := testRequest()
		rq.Planner, rq.LegStates = "dp", legs
		j, err := m.Submit(rq)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		st := waitTerminal(t, j)
		if st.State != StateDone {
			t.Fatalf("leg_states %d: job finished %s (%s), want DONE", legs, st.State, st.Detail)
		}
		if legs > 0 && st.Legs == 0 {
			t.Errorf("leg_states %d: the job planned in one leg", legs)
		}
		doc, err := j.Plan()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc)
	}
	if !bytes.Equal(docs[0], docs[1]) {
		t.Error("the sliced DP plan differs from the unsliced one")
	}
}
