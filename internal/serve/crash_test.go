package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"klotski/internal/durable"
	"klotski/internal/npd"
	"klotski/internal/obs"
)

// undisturbedRun plans one job to completion, closes the daemon, and
// returns the job's journal bytes, final plan document, and certified
// gap — the reference every crash-recovery scenario must reproduce.
func undisturbedRun(t *testing.T) (journal []byte, plan []byte, gap float64) {
	t.Helper()
	dir := t.TempDir()
	m := newManager(t, dir, nil)
	j, err := m.Submit(testRequest())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("reference job finished %s (%s)", st.State, st.Detail)
	}
	if st.Legs < 2 {
		t.Fatalf("reference job checkpointed %d legs; need ≥ 2 for a meaningful kill sweep", st.Legs)
	}
	plan, err = j.Plan()
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	journal, err = os.ReadFile(filepath.Join(dir, j.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	return journal, plan, st.Gap
}

// recoverFromJournal writes journalBytes as job-000000's journal in a
// fresh state dir, opens a daemon over it, and waits for every job to
// quiesce. It returns the manager (caller closes).
func recoverFromJournal(t *testing.T, journalBytes []byte) *Manager {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-000000.journal"), journalBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	return newManager(t, dir, nil)
}

// TestKillAtEveryRecordBoundary is the tentpole acceptance test: for
// every prefix of the reference journal that ends on a record boundary —
// every instant a SIGKILL could catch the daemon between appends — a
// fresh daemon must recover to a consistent job table and finish the job
// with a plan byte-identical to the undisturbed run, losing no job and
// duplicating none.
func TestKillAtEveryRecordBoundary(t *testing.T) {
	journal, wantPlan, wantGap := undisturbedRun(t)
	bounds := durable.RecordBoundaries(journal)
	if len(bounds) < 6 {
		t.Fatalf("reference journal has only %d record boundaries", len(bounds))
	}
	for i, n := range bounds {
		t.Run(fmt.Sprintf("boundary-%02d", i), func(t *testing.T) {
			prefix := durable.Tear(journal, n)
			m := recoverFromJournal(t, prefix)
			defer m.Close()
			jobs := m.Jobs()
			if n == 0 {
				// Crash before the first durable record: the submitter was
				// never acknowledged, so no job may exist.
				if len(jobs) != 0 {
					t.Fatalf("%d jobs materialized from an empty journal", len(jobs))
				}
				return
			}
			if len(jobs) != 1 {
				t.Fatalf("%d jobs recovered, want exactly 1 (no loss, no duplication)", len(jobs))
			}
			j := jobs[0]
			if j.ID != "job-000000" {
				t.Fatalf("recovered job ID %s", j.ID)
			}
			st := waitTerminal(t, j)
			if st.State != StateDone {
				t.Fatalf("recovered job finished %s (%s), want DONE", st.State, st.Detail)
			}
			got, err := j.Plan()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(wantPlan) {
				t.Errorf("recovered plan differs from the undisturbed run at boundary %d", i)
			}
			if st.Gap != wantGap {
				t.Errorf("recovered gap %v, undisturbed %v", st.Gap, wantGap)
			}
		})
	}
}

// TestKillMidRecord tears the journal inside its final record — a crash
// mid-append — at several offsets; the torn tail must be dropped and the
// job must still recover to the identical plan.
func TestKillMidRecord(t *testing.T) {
	journal, wantPlan, _ := undisturbedRun(t)
	bounds := durable.RecordBoundaries(journal)
	// Tear inside the record after a mid-planning boundary, at the
	// first byte, a middle byte, and the last byte before the newline.
	base := bounds[len(bounds)/2]
	next := bounds[len(bounds)/2+1]
	for _, cut := range []int64{base + 1, (base + next) / 2, next - 1} {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			m := recoverFromJournal(t, durable.Tear(journal, cut))
			defer m.Close()
			jobs := m.Jobs()
			if len(jobs) != 1 {
				t.Fatalf("%d jobs recovered", len(jobs))
			}
			st := waitTerminal(t, jobs[0])
			if st.State != StateDone {
				t.Fatalf("finished %s (%s)", st.State, st.Detail)
			}
			got, err := jobs[0].Plan()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(wantPlan) {
				t.Errorf("plan differs after mid-record tear at %d", cut)
			}
		})
	}
}

// TestCorruptJournalQuarantined flips a byte in the middle of the
// journal — real corruption, not a torn tail — and expects the daemon to
// quarantine the job as FAILED instead of trusting or crashing on it,
// durably, so restarts converge.
func TestCorruptJournalQuarantined(t *testing.T) {
	journal, _, _ := undisturbedRun(t)
	bounds := durable.RecordBoundaries(journal)
	// Flip a payload byte of the second record: mid-file damage.
	off := bounds[1] + 20
	m := recoverFromJournal(t, durable.FlipByte(journal, off))
	jobs := m.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs after corrupt journal, want 1 quarantined", len(jobs))
	}
	st := jobs[0].Status()
	if st.State != StateFailed || !strings.Contains(st.Detail, "journal corrupt") {
		t.Fatalf("quarantined job = %s (%q), want FAILED journal corrupt", st.State, st.Detail)
	}
	dir := m.cfg.Dir
	if _, err := os.Stat(filepath.Join(dir, "job-000000.journal.corrupt")); err != nil {
		t.Errorf("corrupt journal not preserved: %v", err)
	}
	m.Close()

	// Restarting over the quarantined state converges to the same table.
	m2 := newManager(t, dir, nil)
	defer m2.Close()
	jobs2 := m2.Jobs()
	if len(jobs2) != 1 || jobs2[0].Status().State != StateFailed {
		t.Fatalf("quarantine not durable across restart")
	}
}

// TestTornCheckpointFileIgnored damages the sealed checkpoint envelope
// in every way a crash can (truncation, bit flip, garbage), or leaves one
// under the retired klotski/job-checkpoint tag, alongside a mid-planning
// journal prefix: the envelope is not served, and since recovery never
// reads a .ckpt file the job still replays to the identical plan. The recovered job resumes as soon
// as the manager opens, and its next leg seals a fresh, valid envelope, so
// the job's first leg is held until the damaged one has been asked for.
func TestTornCheckpointFileIgnored(t *testing.T) {
	journal, wantPlan, _ := undisturbedRun(t)
	bounds := durable.RecordBoundaries(journal)
	prefix := durable.Tear(journal, bounds[len(bounds)/2]) // mid-planning

	// A valid envelope to damage, and the same payload under the retired
	// job-checkpoint tag, which is refused by name.
	ckpt, err := os.ReadFile(filepath.Join("testdata", "job-000000.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := durable.OpenSealed(npd.PlanFormat, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	retired, err := durable.Seal("klotski/job-checkpoint", payload)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string][]byte{
		"truncated":  ckpt[:len(ckpt)/2],
		"bitflip":    durable.FlipByte(ckpt, int64(len(ckpt)/2)),
		"garbage":    []byte("not json at all"),
		"empty":      nil,
		"old-format": retired,
	}
	for name, data := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "job-000000.journal"), prefix, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "job-000000.ckpt"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			held := make(chan struct{})
			var once sync.Once
			release := func() { once.Do(func() { close(held) }) }
			m := newManager(t, dir, func(c *Config) {
				c.LegHook = func(string, int) error { <-held; return nil }
			})
			defer m.Close()
			defer release()
			if _, err := m.CheckpointEnvelope("job-000000"); err == nil && name != "valid" {
				t.Errorf("damaged checkpoint (%s) served as valid", name)
			}
			release()
			jobs := m.Jobs()
			if len(jobs) != 1 {
				t.Fatalf("%d jobs recovered", len(jobs))
			}
			st := waitTerminal(t, jobs[0])
			if st.State != StateDone {
				t.Fatalf("finished %s (%s)", st.State, st.Detail)
			}
			got, err := jobs[0].Plan()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(wantPlan) {
				t.Errorf("plan differs with damaged checkpoint file (%s)", name)
			}
		})
	}
}

// TestAuditedWithoutDone kills the daemon between the audited record and
// the done record: the restarted daemon must complete the job from its
// journaled plan without replanning.
func TestAuditedWithoutDone(t *testing.T) {
	journal, wantPlan, _ := undisturbedRun(t)
	recs, _, err := durable.Parse[record](journal)
	if err != nil {
		t.Fatal(err)
	}
	if recs[len(recs)-1].State != recDone || recs[len(recs)-2].State != recAudited {
		t.Fatalf("reference journal does not end audited→done: %s, %s",
			recs[len(recs)-2].State, recs[len(recs)-1].State)
	}
	bounds := durable.RecordBoundaries(journal)
	prefix := durable.Tear(journal, bounds[len(bounds)-2]) // drop only "done"

	reg := obs.NewRegistry()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-000000.journal"), prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, dir, func(c *Config) {
		c.Recorder = obs.NewRecorder(reg)
		// Any replanning attempt would trip the hook and fail the test.
		c.LegHook = func(id string, leg int) error {
			t.Errorf("job with a journaled audited plan replanned (leg %d)", leg)
			return nil
		}
	})
	defer m.Close()
	jobs := m.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs recovered", len(jobs))
	}
	st := waitTerminal(t, jobs[0])
	if st.State != StateDone {
		t.Fatalf("finished %s (%s)", st.State, st.Detail)
	}
	got, err := jobs[0].Plan()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantPlan) {
		t.Errorf("plan served after audited-without-done recovery differs")
	}
	if reg.Snapshot().Counters[obs.MetricServeJobsRecovered] != 1 {
		t.Errorf("jobs_recovered = %d, want 1", reg.Snapshot().Counters[obs.MetricServeJobsRecovered])
	}
}

// TestOneSyncPerTransitionPair runs a job that plans in one leg (no
// checkpoint records): its journal holds the usual five records —
// submitted, admitted, planning, audited, done — written with three
// fsyncs, because admitted+planning and audited+done each go to disk as
// one write. A crash can still tear each coalesced
// write anywhere: between its two records or inside the second one; every
// such tear must recover to the undisturbed plan.
func TestOneSyncPerTransitionPair(t *testing.T) {
	reg := obs.NewRegistry()
	dir := t.TempDir()
	m := newManager(t, dir, func(c *Config) {
		c.LegStates = 1 << 20
		c.Recorder = obs.NewRecorder(reg)
	})
	j, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone || st.Legs != 0 {
		t.Fatalf("job finished %s after %d checkpoint legs, want DONE after none", st.State, st.Legs)
	}
	wantPlan, err := j.Plan()
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	journal, err := os.ReadFile(filepath.Join(dir, j.ID+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := durable.Parse[record](journal)
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, r := range recs {
		states = append(states, r.State)
	}
	if want := []string{recSubmitted, recAdmitted, recPlanning, recAudited, recDone}; fmt.Sprint(states) != fmt.Sprint(want) {
		t.Fatalf("journal records %v, want %v", states, want)
	}
	if got := reg.Snapshot().Counters[obs.MetricServeJournalSyncs]; got != 3 {
		t.Errorf("serve.journal_syncs = %d for one job, want 3", got)
	}

	// bounds: 0, then the end of submitted, admitted, planning, audited,
	// done. The coalesced writes are bounds[1:3] and bounds[3:5].
	bounds := durable.RecordBoundaries(journal)
	tears := map[string]int64{
		"between-admitted-planning": bounds[2],
		"inside-planning":           (bounds[2] + bounds[3]) / 2,
		"between-audited-done":      bounds[4],
		"inside-done":               (bounds[4] + bounds[5]) / 2,
	}
	for name, cut := range tears {
		t.Run(name, func(t *testing.T) {
			m := recoverFromJournal(t, durable.Tear(journal, cut))
			defer m.Close()
			jobs := m.Jobs()
			if len(jobs) != 1 {
				t.Fatalf("%d jobs recovered", len(jobs))
			}
			st := waitTerminal(t, jobs[0])
			if st.State != StateDone {
				t.Fatalf("finished %s (%s)", st.State, st.Detail)
			}
			if got, err := jobs[0].Plan(); err != nil || !bytes.Equal(got, wantPlan) {
				t.Errorf("plan after a tear at %d differs from the undisturbed run (err %v)", cut, err)
			}
		})
	}
}

// TestRepeatedCrashes chains kills: recover from a mid-planning prefix,
// drain mid-recovery (a second crash), recover again — the journal now
// holds several admission cycles — and the final plan must still match.
func TestRepeatedCrashes(t *testing.T) {
	journal, wantPlan, _ := undisturbedRun(t)
	bounds := durable.RecordBoundaries(journal)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-000000.journal"), durable.Tear(journal, bounds[4]), 0o644); err != nil {
		t.Fatal(err)
	}

	// First recovery: drain as soon as the first checkpoint lands.
	m1 := newManager(t, dir, func(c *Config) { c.Sleep = func(time.Duration) {} })
	j1, err := m1.Job("job-000000")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		st := j1.Status()
		if st.State.Terminal() || st.Legs >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint leg during first recovery; state %s", st.State)
		}
		time.Sleep(time.Millisecond)
	}
	m1.Drain()
	m1.Close()

	// Second recovery runs to completion.
	m2 := newManager(t, dir, nil)
	defer m2.Close()
	j2, err := m2.Job("job-000000")
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j2)
	if st.State != StateDone {
		t.Fatalf("finished %s (%s) after repeated crashes", st.State, st.Detail)
	}
	got, err := j2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantPlan) {
		t.Errorf("plan differs after repeated crash/recover cycles")
	}
}

// TestCheckpointWriteFailureRecorded: a job whose .ckpt cannot be written
// (a non-empty directory squats on the path) still plans to the
// undisturbed run's plan, and each of its checkpoint records says why the
// envelope is missing.
func TestCheckpointWriteFailureRecorded(t *testing.T) {
	_, wantPlan, _ := undisturbedRun(t)
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "job-000000.ckpt", "squat"), 0o755); err != nil {
		t.Fatal(err)
	}
	m := newManager(t, dir, nil)
	defer m.Close()
	j, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone || st.Legs < 2 {
		t.Fatalf("finished %s after %d legs (%s), want DONE after ≥ 2", st.State, st.Legs, st.Detail)
	}
	if got, err := j.Plan(); err != nil || !bytes.Equal(got, wantPlan) {
		t.Errorf("plan differs from the undisturbed run (err %v)", err)
	}
	recs, err := durable.Read[record](filepath.Join(dir, "job-000000.journal"))
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, r := range recs {
		if r.State == recCheckpoint {
			ckpts++
			if !strings.Contains(r.Detail, "; envelope not written: ") {
				t.Errorf("checkpoint record %d does not name the failed write: %q", r.Seq, r.Detail)
			}
		}
	}
	if ckpts != st.Legs {
		t.Errorf("%d checkpoint records for %d legs", ckpts, st.Legs)
	}
}

// TestFormatFixturesRecover: testdata holds a DONE job's journal and
// sealed checkpoint as written before the journal moved onto
// internal/durable. A manager opened over them must load the job DONE
// with the journaled plan, planning nothing, and serve the checkpoint.
func TestFormatFixturesRecover(t *testing.T) {
	dir := t.TempDir()
	files := map[string][]byte{}
	for _, name := range []string{"job-000000.journal", "job-000000.ckpt"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	recs, _, err := durable.Parse[record](files["job-000000.journal"])
	if err != nil || len(recs) < 2 || recs[len(recs)-2].State != recAudited {
		t.Fatalf("fixture does not end audited→done (%d records): %v", len(recs), err)
	}
	m := newManager(t, dir, func(c *Config) {
		c.LegHook = func(string, int) error {
			t.Error("a DONE job was planned again")
			return nil
		}
	})
	defer m.Close()
	j, err := m.Job("job-000000")
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != StateDone {
		t.Fatalf("fixture job loaded %s (%s), want DONE", st.State, st.Detail)
	}
	if got, err := j.Plan(); err != nil || !bytes.Equal(got, recs[len(recs)-2].Plan) {
		t.Errorf("loaded plan differs from the journaled one (err %v)", err)
	}
	if env, err := m.CheckpointEnvelope("job-000000"); err != nil || !bytes.Equal(env, files["job-000000.ckpt"]) {
		t.Errorf("checkpoint envelope does not verify: %v", err)
	}
}
