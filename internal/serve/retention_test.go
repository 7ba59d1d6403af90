package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"klotski/internal/durable"
	"klotski/internal/obs"
	"klotski/internal/sim"
)

// updateActive is the scan the manager ran after every submission and
// every job end until serve.jobs_active became a counter — a walk of the
// whole table, so each job cost more the longer the daemon had been up.
// It survives only as this oracle: the jobs in the table not yet terminal.
func updateActive(m *Manager) int64 {
	var n int64
	for _, j := range m.Jobs() {
		if !j.Status().State.Terminal() {
			n++
		}
	}
	return n
}

// checkGauge holds serve.jobs_active against the oracle; callers call it
// only once the table has settled (every runner quiesced).
func checkGauge(t *testing.T, what string, m *Manager, reg *obs.Registry) int64 {
	t.Helper()
	want := updateActive(m)
	if got := reg.Snapshot().Gauges[obs.MetricServeJobsActive].Value; got != want {
		t.Fatalf("%s: serve.jobs_active = %d, recount over Jobs() = %d", what, got, want)
	}
	return want
}

// waitAllTerminal waits until every job in the table is terminal.
func waitAllTerminal(t *testing.T, m *Manager) {
	t.Helper()
	for _, j := range m.Jobs() {
		waitTerminal(t, j)
	}
}

// TestActiveGaugeMatchesRecount drives a seeded random mix of
// submissions, cancellations, deadlines and leg-hook faults (hard, and
// transient: retried, or repeated past the job's retries) through the Go
// API, drains with jobs in flight, reopens over a state directory that
// also holds audited-without-done journals, drains again mid-recovery and
// reopens once more; whenever the table has settled the active counter
// must equal a recount of it.
func TestActiveGaugeMatchesRecount(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { gaugeOracleRun(t, seed) })
	}
}

func gaugeOracleRun(t *testing.T, seed int64) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	var hookMu sync.Mutex
	hookRng := rand.New(rand.NewSource(seed + 1000))
	var pace atomic.Int64    // per-leg sleep, so cancels, deadlines and drains land mid-planning
	owed := map[string]int{} // transient failures a job still has coming, under hookMu
	hook := func(id string, _ int) error {
		// Paced before any fault is drawn, so a drain that follows a
		// checkpoint lands while the job's next leg is still in flight.
		time.Sleep(time.Duration(pace.Load()))
		hookMu.Lock()
		x := hookRng.Intn(16)
		if owed[id] > 0 {
			owed[id]--
			x = 1
		} else if x == 2 {
			// This failure and maxRetries more: one more than the job
			// retries, so it fails on a transient fault.
			owed[id] = maxRetries
			x = 1
		}
		hookMu.Unlock()
		switch x {
		case 0:
			return errors.New("injected hard fault")
		case 1:
			return fmt.Errorf("injected: %w", sim.ErrTransient)
		}
		return nil
	}
	open := func() (*Manager, *obs.Registry) {
		reg := obs.NewRegistry() // a fresh process's registry
		return newManager(t, dir, func(c *Config) {
			c.Recorder = obs.NewRecorder(reg)
			c.LegHook = hook
			c.Sleep = func(time.Duration) {}
		}), reg
	}
	// mix submits n jobs, a quarter with a short deadline, and cancels a
	// random quarter of them right away or a little later.
	mix := func(m *Manager, n int) {
		for i := 0; i < n; i++ {
			rq := testRequest()
			if rng.Intn(4) == 0 {
				rq.DeadlineMS = int64(1 + rng.Intn(4))
			}
			j, err := m.Submit(rq)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			if rng.Intn(4) == 0 {
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				if err := m.Cancel(j.ID); err != nil && !errors.Is(err, ErrTerminal) {
					t.Fatalf("Cancel: %v", err)
				}
			}
		}
	}
	// drainMidPlanning drains once some job has journaled a checkpoint and
	// checks the drained table, which must still hold jobs in flight. If
	// faults, cancels and deadlines end every job before one journals a
	// checkpoint, it submits two more and keeps waiting.
	drainMidPlanning := func(what string, m *Manager, reg *obs.Registry) {
		deadline := time.Now().Add(time.Minute)
		for legged := false; !legged; {
			inFlight := false
			for _, j := range m.Jobs() {
				st := j.Status()
				inFlight = inFlight || !st.State.Terminal()
				legged = legged || (!st.State.Terminal() && st.Legs >= 1)
			}
			if !inFlight {
				mix(m, 2)
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: no job reached a checkpoint", what)
			}
			time.Sleep(time.Millisecond)
		}
		m.Drain()
		if checkGauge(t, what, m, reg) == 0 {
			t.Fatalf("%s: nothing in flight at the drain; the check proved nothing", what)
		}
	}

	// 1. A settled mix, then a paced batch drained mid-planning.
	m, reg := open()
	pace.Store(int64(time.Millisecond))
	mix(m, 12)
	waitAllTerminal(t, m)
	checkGauge(t, "settled mix", m, reg)
	pace.Store(int64(5 * time.Millisecond))
	mix(m, 8)
	drainMidPlanning("first drain", m, reg)
	var done []string
	for _, j := range m.Jobs() {
		if j.Status().State == StateDone {
			done = append(done, j.ID)
		}
	}
	m.Close()

	// 2. Crash between audited and done for up to two finished jobs.
	for _, id := range done[:min(2, len(done))] {
		path := filepath.Join(dir, id+".journal")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		bounds := durable.RecordBoundaries(data)
		if err := os.WriteFile(path, durable.Tear(data, bounds[len(bounds)-2]), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// 3. Reopen: recovered in-flight jobs replan, audited ones complete;
	// more submissions join them, and a second drain lands mid-recovery.
	m, reg = open()
	mix(m, 6)
	drainMidPlanning("drain mid-recovery", m, reg)
	m.Close()

	// 4. Reopen once more and let everything finish.
	pace.Store(0)
	m, reg = open()
	defer m.Close()
	mix(m, 4)
	waitAllTerminal(t, m)
	checkGauge(t, "final", m, reg)
}

// TestFinishedJobsReleaseRunState runs 200 jobs to DONE and checks that
// nothing a finished job no longer needs stays held: no journal handle,
// a done context, no NPD bytes, the process's open files back where they
// started, and a bounded heap cost per finished job. A restart then
// serves every plan byte-identical.
func TestFinishedJobsReleaseRunState(t *testing.T) {
	// The heap is compared across the last 150 jobs, after 50 have warmed
	// up what every job shares (pool, task cache, first allocations).
	const warm, measured, jobs = 50, 150, 200
	// overheadPerJob bounds what a finished job keeps: its table entry,
	// status fields and cancelled context. Its plan document stays in its
	// journal (the ring of recent documents is full at both ends of the
	// measurement); held in memory it would add its own ~1.3 KB and break
	// the bound. DESIGN.md ("klotskid's per-job cost") has the
	// measurements behind it.
	const overheadPerJob = 1280

	dir := t.TempDir()
	fds0 := openFDs(t)
	m := newManager(t, dir, func(c *Config) { c.LegStates = 1 << 20 })

	run := func(n int) {
		const concurrent = 8
		sem := make(chan struct{}, concurrent)
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				j, err := m.Submit(testRequest())
				if err != nil {
					errs <- err
					return
				}
				ch, _ := j.Subscribe()
				for range ch {
				}
				if st := j.Status(); st.State != StateDone {
					errs <- fmt.Errorf("job %s finished %s (%s)", st.ID, st.State, st.Detail)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	run(warm)
	heap0 := liveHeap()
	run(measured)
	grown := liveHeap() - heap0

	all := m.Jobs()
	if len(all) != jobs {
		t.Fatalf("%d jobs in the table, want %d", len(all), jobs)
	}
	plans := make(map[string][]byte, jobs)
	for _, j := range all {
		j.mu.Lock()
		held, ctxErr, npdLen := j.journal != nil, j.ctx.Err(), len(j.Req.NPD)
		j.mu.Unlock()
		if held {
			t.Errorf("%s: finished job still holds its journal handle", j.ID)
		}
		if ctxErr == nil {
			t.Errorf("%s: finished job's context is not done", j.ID)
		}
		if npdLen != 0 {
			t.Errorf("%s: finished job still holds %d NPD bytes", j.ID, npdLen)
		}
		plan, err := j.Plan()
		if err != nil {
			t.Fatal(err)
		}
		plans[j.ID] = plan
	}
	if fds0 >= 0 {
		if fds := openFDs(t); fds > fds0+4 || fds < fds0-4 {
			t.Errorf("%d open file descriptors after %d finished jobs, %d before", fds, jobs, fds0)
		}
	}
	t.Logf("live heap grew %d bytes per finished job (bound %d)", grown/measured, overheadPerJob)
	if grown > measured*overheadPerJob {
		t.Errorf("live heap grew %d bytes per finished job, bound %d", grown/measured, overheadPerJob)
	}
	m.Close()

	m2 := newManager(t, dir, nil)
	defer m2.Close()
	for id, want := range plans {
		j, err := m2.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := j.Plan(); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: plan after restart differs (err %v)", id, err)
		}
	}
}

// openFDs counts the process's open file descriptors, or -1 where
// /proc/self/fd does not exist.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// planSummary is the part of a plan document that names its job: the
// theta it was planned under and the summary its status reports.
type planSummary struct {
	Theta   float64 `json:"theta"`
	Cost    float64 `json:"cost"`
	Actions int     `json:"actions"`
}

// checkOwnPlan fails unless doc is a plan document planned under theta
// whose summary matches st.
func checkOwnPlan(t *testing.T, what string, doc []byte, theta float64, st Status) {
	t.Helper()
	var pd planSummary
	if err := json.Unmarshal(doc, &pd); err != nil {
		t.Errorf("%s: plan of %s does not parse: %v", what, st.ID, err)
		return
	}
	if pd.Theta != theta || pd.Cost != st.Cost || pd.Actions != st.Actions {
		t.Errorf("%s: plan of %s is %+v; want theta %v, cost %v, %d actions", what, st.ID, pd, theta, st.Cost, st.Actions)
	}
}

// thetaOf gives job i of a test its own theta, so that every plan document
// differs and a plan served for the wrong job shows.
func thetaOf(i int) float64 { return 0.75 + 0.001*float64(i) }

// TestPlansServedFromJournal finishes more jobs than the ring of recent
// plan documents holds, one at a time, each with its own theta. Each plan
// is first read from memory right after its job ends; only the latest
// recentPlans stay there, and none after a restart. Every plan must be the
// job's own document (its theta, cost and action count), read
// byte-identical to that first read through Job.Plan and GET
// /v1/jobs/{id}/plan, live and after a restart. A job whose journal is
// gone answers 500, never a plan.
func TestPlansServedFromJournal(t *testing.T) {
	const jobs = recentPlans + 8
	dir := t.TempDir()
	m := newManager(t, dir, func(c *Config) { c.LegStates = 1 << 20 })
	var ids []string
	plans := make(map[string][]byte, jobs)
	seen := make(map[string]string, jobs)
	for i := 0; i < jobs; i++ {
		rq := testRequest()
		rq.Theta = thetaOf(i)
		j, err := m.Submit(rq)
		if err != nil {
			t.Fatal(err)
		}
		st := waitTerminal(t, j)
		if st.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", st.ID, st.State, st.Detail)
		}
		if m.recentPlan(j.ID) == nil {
			t.Fatalf("%s: the job just finished, but its plan is not among the recent ones", j.ID)
		}
		plan, err := j.Plan()
		if err != nil {
			t.Fatal(err)
		}
		checkOwnPlan(t, "live", plan, rq.Theta, st)
		if other, dup := seen[string(plan)]; dup {
			t.Fatalf("%s and %s have the same plan document: the check could not tell them apart", other, j.ID)
		}
		seen[string(plan)] = j.ID
		ids = append(ids, j.ID)
		plans[j.ID] = plan
	}

	check := func(what string, m *Manager, recent int) {
		t.Helper()
		srv := httptest.NewServer(NewHandler(m))
		defer srv.Close()
		for i, id := range ids {
			j, err := m.Job(id)
			if err != nil {
				t.Fatal(err)
			}
			if held, want := m.recentPlan(id) != nil, i >= jobs-recent; held != want {
				t.Errorf("%s: %s (finished %d of %d) in memory: %v, want %v", what, id, i+1, jobs, held, want)
			}
			if got, err := j.Plan(); err != nil || !bytes.Equal(got, plans[id]) {
				t.Errorf("%s: Plan of %s differs from its first read (err %v)", what, id, err)
			}
			resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/plan")
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(body, plans[id]) {
				t.Errorf("%s: GET plan of %s: %d, body differs: %v (err %v)", what, id, resp.StatusCode, !bytes.Equal(body, plans[id]), err)
			}
		}
	}
	check("live", m, recentPlans)
	m.Close()

	m = newManager(t, dir, nil)
	defer m.Close()
	check("recovered", m, 0)

	// The document is on disk only; take the disk away.
	victim := ids[0]
	path, _ := m.jobPaths(victim)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	j, err := m.Job(victim)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := j.Plan(); err == nil || errors.Is(err, ErrNoPlan) {
		t.Errorf("Plan of %s without its journal = %d bytes, %v; want a read error", victim, len(got), err)
	}
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + victim + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("GET plan of %s without its journal: %d %s, want 500", victim, resp.StatusCode, body)
	}
}

// TestPlanReadsJournalWhileJobsEnd reads plans while jobs run and end:
// readers poll Plan on every job, finished or in flight, so reads of the
// ring of recent documents and of journals race jobs ending, which write
// the ring and push older documents out of it; the race detector checks
// them. A job in flight answers ErrNoPlan; once audited, every read
// returns its own document, the same bytes each time.
func TestPlanReadsJournalWhileJobsEnd(t *testing.T) {
	const jobs = 2 * recentPlans
	m := newManager(t, t.TempDir(), func(c *Config) { c.LegStates = 1 << 20 })
	defer m.Close()
	all := make([]*Job, jobs)
	var wg sync.WaitGroup
	var mu sync.Mutex
	first := make(map[string][]byte, jobs)
	stop := make(chan struct{})
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := r; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				j := all[k%jobs]
				mu.Unlock()
				if j == nil {
					continue
				}
				got, err := j.Plan()
				if errors.Is(err, ErrNoPlan) {
					continue
				}
				if err != nil {
					t.Errorf("%s: Plan while jobs end: %v", j.ID, err)
					return
				}
				mu.Lock()
				want, ok := first[j.ID]
				if !ok {
					first[j.ID] = got
				}
				mu.Unlock()
				if ok && !bytes.Equal(got, want) {
					t.Errorf("%s: Plan returned different bytes on a later read", j.ID)
					return
				}
			}
		}(r)
	}
	for i := 0; i < jobs; i++ {
		rq := testRequest()
		rq.Theta = thetaOf(i)
		j, err := m.Submit(rq)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		all[i] = j
		mu.Unlock()
		if i%4 == 3 { // a few jobs in flight at once
			waitTerminal(t, j)
		}
	}
	for i, j := range all {
		st := waitTerminal(t, j)
		if st.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", st.ID, st.State, st.Detail)
		}
		plan, err := j.Plan()
		if err != nil {
			t.Fatal(err)
		}
		checkOwnPlan(t, "after the race", plan, thetaOf(i), st)
	}
	close(stop)
	wg.Wait()
	for _, j := range all {
		want, _ := j.Plan()
		if got, ok := first[j.ID]; ok && !bytes.Equal(got, want) {
			t.Errorf("%s: a read during the race returned different bytes", j.ID)
		}
	}
}

// TestPlanNotServedUnlessJournaled closes a job's journal under it before
// its one planning leg, so the audited-and-done write fails after the
// document was built and put among the recent ones: the job ends FAILED
// and Plan answers ErrNoPlan, never the document the journal lacks.
func TestPlanNotServedUnlessJournaled(t *testing.T) {
	var m *Manager
	m = newManager(t, t.TempDir(), func(c *Config) {
		c.LegStates = 1 << 20
		c.LegHook = func(id string, leg int) error {
			j, err := m.Job(id)
			if err != nil {
				return err
			}
			j.mu.Lock()
			j.journal.Close()
			j.mu.Unlock()
			return nil
		}
	})
	defer m.Close()
	j, err := m.Submit(testRequest())
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || !strings.Contains(st.Detail, "journal write failed") {
		t.Fatalf("job finished %s (%s), want FAILED on the journal write", st.State, st.Detail)
	}
	if m.recentPlan(j.ID) == nil {
		t.Fatalf("the document was never among the recent ones; the check proves nothing")
	}
	if got, err := j.Plan(); !errors.Is(err, ErrNoPlan) {
		t.Errorf("Plan of a job whose audited record failed = %d bytes, %v; want ErrNoPlan", len(got), err)
	}
}
