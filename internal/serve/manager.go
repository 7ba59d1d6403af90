package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"klotski/internal/core"
	"klotski/internal/ctrl"
	"klotski/internal/durable"
	"klotski/internal/migration"
	"klotski/internal/npd"
	"klotski/internal/obs"
	"klotski/internal/sched"
	"klotski/internal/sim"
)

// Cancellation causes, distinguished via context.Cause so one planning
// interruption path can fan out to the right terminal (or non-terminal)
// state.
var (
	errDrainStop  = errors.New("serve: draining")
	errUserCancel = errors.New("serve: cancelled by client")
	errJobEnded   = errors.New("serve: job ended")
)

// Job is one planning job: the durable record set on disk plus the live
// in-memory run. All mutable fields are guarded by mu.
type Job struct {
	ID  string
	Req Request

	m   *Manager
	num int // the number in ID: the table's order

	mu      sync.Mutex
	seq     int // next journal record seq
	journal *durable.Log[record]
	subs    map[chan Status]struct{}

	state  State
	detail string

	legs           int
	incumbent      float64
	lowerBound     float64
	gap            float64
	partialActions int

	audited bool // the audited record is journaled: Plan reads it there
	cost    float64
	actions int

	recovered   bool
	serial      bool
	preemptions int

	ctx       context.Context
	cancelRun context.CancelCauseFunc
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() Status {
	gap := j.gap
	if j.legs == 0 && !j.state.Terminal() && !j.audited {
		gap = 1 // nothing certified yet
	}
	return Status{
		ID:             j.ID,
		Name:           j.Req.Name,
		State:          j.state,
		Detail:         j.detail,
		Legs:           j.legs,
		Incumbent:      j.incumbent,
		LowerBound:     j.lowerBound,
		Gap:            gap,
		PartialActions: j.partialActions,
		Actions:        j.actions,
		Cost:           j.cost,
		Recovered:      j.recovered,
		Serial:         j.serial,
		Preemptions:    j.preemptions,
	}
}

// Plan returns the job's final audited plan document bytes, or ErrNoPlan
// until the job reaches AUDITED. A document among the manager's latest
// is served from memory; any other is read from the last audited record
// of the job's journal, and Plan fails when that cannot be read.
func (j *Job) Plan() ([]byte, error) {
	j.mu.Lock()
	audited := j.audited
	j.mu.Unlock()
	if !audited {
		return nil, ErrNoPlan
	}
	if doc := j.m.recentPlan(j.ID); doc != nil {
		return append([]byte(nil), doc...), nil
	}
	path, _ := j.m.jobPaths(j.ID)
	recs, err := durable.Read[record](path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading the plan of %s: %w", j.ID, err)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].State == recAudited {
			return recs[i].Plan, nil
		}
	}
	return nil, fmt.Errorf("serve: %s: journal holds no audited record", j.ID)
}

// Subscribe registers a status stream: the current snapshot plus a
// channel that receives one snapshot per transition or checkpoint and is
// closed when the job reaches a terminal state. A slow consumer drops
// intermediate snapshots rather than blocking the planner; the terminal
// snapshot is always observable via the close + a final Status() read.
func (j *Job) Subscribe() (<-chan Status, Status) {
	ch := make(chan Status, 64)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		close(ch)
		return ch, j.statusLocked()
	}
	if j.subs == nil {
		j.subs = make(map[chan Status]struct{})
	}
	j.subs[ch] = struct{}{}
	return ch, j.statusLocked()
}

// Unsubscribe removes a Subscribe channel (idempotent; terminal
// transitions already removed it).
func (j *Job) Unsubscribe(ch <-chan Status) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for c := range j.subs {
		if c == ch {
			delete(j.subs, c)
			return
		}
	}
}

// publishLocked fans the current snapshot out to subscribers, closing
// them on terminal states. Callers hold j.mu.
func (j *Job) publishLocked() {
	st := j.statusLocked()
	for ch := range j.subs {
		select {
		case ch <- st:
		default: // slow consumer: drop, it will catch up on the next event
		}
	}
	if st.State.Terminal() {
		for ch := range j.subs {
			close(ch)
		}
		j.subs = nil
	}
}

// appendLocked journals recs in one write and one fsync (write-ahead:
// callers apply the in-memory effects only after it returns nil).
// Callers hold j.mu.
func (j *Job) appendLocked(recs ...record) error {
	if j.journal == nil {
		return errors.New("serve: job journal closed")
	}
	for i := range recs {
		recs[i].Seq = j.seq + i
	}
	if err := j.journal.Append(recs...); err != nil {
		return err
	}
	j.seq += len(recs)
	j.m.cfg.Recorder.Add(obs.ServeJournalSyncs, 1)
	return nil
}

// recordState is the lifecycle state each record kind leaves a job in; a
// checkpoint record keeps it PLANNING.
var recordState = map[string]State{
	recSubmitted:  StateSubmitted,
	recAdmitted:   StateAdmitted,
	recPlanning:   StatePlanning,
	recCheckpoint: StatePlanning,
	recAudited:    StateAudited,
	recDone:       StateDone,
	recCancelled:  StateCancelled,
	recFailed:     StateFailed,
}

// applyLocked applies one record's in-memory effect: the fold that live
// transitions and recovery share. Callers hold j.mu (or own j alone).
func (j *Job) applyLocked(r record) {
	if st, ok := recordState[r.State]; ok {
		j.state = st
	}
	if r.Detail != "" {
		j.detail = r.Detail
	}
	switch r.State {
	case recAdmitted:
		j.serial = r.Serial
	case recCheckpoint:
		j.legs = r.Leg
		j.incumbent = r.Incumbent
		j.lowerBound = r.LowerBound
		j.gap = r.Gap
		j.partialActions = r.PartialActions
	case recAudited:
		j.audited = true
		j.cost = r.Cost
		j.actions = r.Actions
		j.incumbent = r.Incumbent
		j.lowerBound = r.LowerBound
		j.gap = r.Gap
	}
}

// transition journals recs — one write, one fsync — and only after that
// returns applies and publishes each of them in order. A journal failure
// ends the job FAILED in memory instead (best effort: the disk is gone,
// so durability of the failure itself is not available).
func (j *Job) transition(recs ...record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	if err := j.appendLocked(recs...); err != nil {
		recs = []record{{State: recFailed, Detail: fmt.Sprintf("journal write failed: %v", err)}}
	}
	for _, r := range recs {
		j.applyLocked(r)
		if j.state.Terminal() {
			j.endLocked()
		}
		j.publishLocked()
	}
}

// endLocked runs once, as a live job's state turns terminal (transition
// is the only code that turns it): the job leaves the active gauge and
// gives back what only a running job needs — the journal handle (no
// record follows a terminal one), its context, and the request's NPD
// bytes (the submitted record holds them for recovery).
func (j *Job) endLocked() {
	j.journal.Close()
	j.journal = nil
	if j.cancelRun != nil { // nil for a job recovery completes unrun
		j.cancelRun(errJobEnded)
	}
	j.Req.NPD = nil
	j.m.cfg.Recorder.Add(obs.ServeJobsActive, -1)
}

// Manager owns the job table, the shared worker pool, and the state
// directory. Open recovers every journaled job before returning.
type Manager struct {
	cfg   Config
	pool  *sched.Pool
	tasks *taskCache

	runCtx    context.Context
	cancelRun context.CancelCauseFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job // by job number
	nextID   int
	draining bool

	// recent holds the latest recentPlans plan documents, a ring written
	// at nextRecent.
	recent [recentPlans]struct {
		id  string
		doc []byte
	}
	nextRecent int

	wg sync.WaitGroup
}

// Open creates (or reopens) a manager over cfg.Dir, recovering every
// journaled job: terminal jobs load into the table as-is, in-flight jobs
// re-enter planning by deterministic replay, and jobs whose plan is
// journaled but whose done record was lost to the crash are completed
// without replanning.
func Open(cfg Config) (*Manager, error) {
	if cfg.Dir == "" {
		return nil, errors.New("serve: Config.Dir required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: creating state dir: %w", err)
	}
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:   cfg,
		pool:  sched.NewPool(cfg.PoolWorkers, cfg.Recorder),
		tasks: newTaskCache(taskCacheEntries, taskCacheBytes),
		jobs:  make(map[string]*Job),
	}
	m.runCtx, m.cancelRun = context.WithCancelCause(context.Background())
	if err := m.recover(); err != nil {
		m.pool.Close()
		return nil, err
	}
	return m, nil
}

// recentPlans is how many of the latest plan documents stay in memory. A
// client that follows its job to DONE and fetches the plan right away is
// served from them instead of the job's journal; with two such clients
// (daemon-burst) nearly every read comes within two documents. DESIGN.md
// ("klotskid's per-job cost") has the measurements behind the size.
const recentPlans = 16

// rememberPlan puts a job's plan document into the ring of recent ones,
// dropping the oldest.
func (m *Manager) rememberPlan(id string, doc []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recent[m.nextRecent].id, m.recent[m.nextRecent].doc = id, doc
	m.nextRecent = (m.nextRecent + 1) % recentPlans
}

// recentPlan returns the job's document from the ring, or nil.
func (m *Manager) recentPlan(id string) []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range m.recent {
		if r.id == id {
			return r.doc
		}
	}
	return nil
}

// jobPaths returns the journal and checkpoint paths for a job ID.
func (m *Manager) jobPaths(id string) (journal, ckpt string) {
	return filepath.Join(m.cfg.Dir, id+".journal"), filepath.Join(m.cfg.Dir, id+".ckpt")
}

// Submit validates, journals, and schedules a new job. The submitted
// record is durable before the job is acknowledged: a daemon killed
// right after Submit returns still completes the job after restart.
func (m *Manager) Submit(req Request) (*Job, error) {
	if err := req.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	// Reject NPD documents that cannot even decode, so the submitter
	// learns synchronously.
	doc, err := npd.Decode(bytes.NewReader(req.NPD))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrInvalidRequest, err)
	}
	if req.Name == "" {
		req.Name = doc.Name
	}
	reqJSON, err := json.Marshal(&req)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding request: %w", err)
	}

	// The manager lock covers only what must be atomic with Drain: the
	// draining check, the ID, and the runner's wg.Add, so that Drain's Wait
	// counts this job. The journal is created and synced outside it.
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	num := m.nextID
	m.nextID++
	m.wg.Add(1)
	m.mu.Unlock()

	j := &Job{ID: fmt.Sprintf("job-%06d", num), num: num, Req: req, m: m, state: StateSubmitted}
	if err := j.create(reqJSON); err != nil {
		m.wg.Done()
		return nil, err
	}
	j.ctx, j.cancelRun = context.WithCancelCause(m.runCtx)
	m.mu.Lock()
	m.insertLocked(j)
	m.mu.Unlock()

	m.cfg.Recorder.Add(obs.ServeJobsSubmitted, 1)
	m.cfg.Recorder.Add(obs.ServeJobsActive, 1)
	go m.runJob(j, doc)
	return j, nil
}

// create makes the new job's journal and syncs its submitted record. A
// failure leaves no file behind.
func (j *Job) create(reqJSON []byte) error {
	path, _ := j.m.jobPaths(j.ID)
	journal, err := durable.Create[record](path)
	if err != nil {
		return fmt.Errorf("serve: creating job journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.journal = journal
	if err := j.appendLocked(record{State: recSubmitted, Request: reqJSON}); err != nil {
		journal.Close()
		os.Remove(path)
		return err
	}
	return nil
}

// insertLocked adds j to the table in job-number order, which concurrent
// submissions can reach out of order. Callers hold m.mu.
func (m *Manager) insertLocked(j *Job) {
	m.jobs[j.ID] = j
	i := sort.Search(len(m.order), func(i int) bool { return m.order[i].num > j.num })
	m.order = slices.Insert(m.order, i, j)
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs returns every job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.order)
}

// Cancel requests cancellation of a job. The job transitions to
// CANCELLED once its planner observes the cancellation (synchronously
// for queued jobs).
func (m *Manager) Cancel(id string) error {
	j, err := m.Job(id)
	if err != nil {
		return err
	}
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal {
		return fmt.Errorf("%w: %s", ErrTerminal, id)
	}
	j.cancelRun(errUserCancel)
	return nil
}

// Draining reports whether the manager has begun draining.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Drain stops accepting submissions, interrupts every running job so it
// journals a checkpoint (jobs stay PLANNING on disk — a restarted daemon
// resumes them), and waits for all runners to quiesce.
func (m *Manager) Drain() {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	if already {
		return
	}
	m.cfg.Recorder.Add(obs.ServeDrains, 1)
	m.cancelRun(errDrainStop)
	m.wg.Wait()
}

// Close drains and releases the pool and the journal handles of the jobs
// the drain left in flight (finished jobs released theirs as they ended).
func (m *Manager) Close() {
	m.Drain()
	m.pool.Close()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.order {
		j.mu.Lock()
		j.journal.Close()
		j.journal = nil
		j.mu.Unlock()
	}
}

// prepare returns the job's migration task and planning options. doc is
// the NPD document Submit decoded, nil for a recovered job.
func (m *Manager) prepare(j *Job, doc *npd.Document) (*migration.Task, core.Options, error) {
	task, err := m.task(j.Req.NPD, doc)
	if err != nil {
		return nil, core.Options{}, err
	}
	opts := m.cfg.Options
	opts.Timeout = 0 // RunLegs budgets each leg in states
	if j.Req.Theta > 0 {
		opts.Theta = j.Req.Theta
	}
	if j.Req.Alpha > 0 {
		opts.Alpha = j.Req.Alpha
	}
	if j.Req.MaxRun > 0 {
		opts.MaxRunLength = j.Req.MaxRun
	}
	opts.Recorder = m.cfg.Recorder
	return task, opts, nil
}

// task returns the task built from the NPD bytes raw: the cached one when
// a job submitted the same bytes before, else one built from doc (decoded
// from raw when nil) and cached unless the build failed or the task is
// over the cache's byte bound.
func (m *Manager) task(raw []byte, doc *npd.Document) (*migration.Task, error) {
	if task := m.tasks.get(raw); task != nil {
		m.cfg.Recorder.Add(obs.ServeTaskCacheHits, 1)
		return task, nil
	}
	m.cfg.Recorder.Add(obs.ServeTaskBuilds, 1)
	if doc == nil {
		var err error
		if doc, err = npd.Decode(bytes.NewReader(raw)); err != nil {
			return nil, err
		}
	}
	task, _, err := doc.Task()
	if err != nil {
		return nil, err
	}
	return m.tasks.put(raw, task), nil
}

// admit is the job's Admit for ctrl.RunLegs: it registers the job on the
// shared pool, waiting at most AdmitWait. A job the pool cannot admit in
// time degrades to serial planning instead of queueing indefinitely
// (admission control shapes capacity, it never wedges a job), and a
// registration that lands later is closed by a janitor. Only the first
// admission journals the job ADMITTED and PLANNING.
func (m *Manager) admit(ctx context.Context, j *Job, preemptions int) (*sched.Client, error) {
	if preemptions > 0 {
		j.mu.Lock()
		j.preemptions = preemptions
		j.mu.Unlock()
	}
	got := make(chan *sched.Client)
	gone := make(chan struct{}) // closed once admit stops waiting
	defer close(gone)
	go func() {
		c, _ := m.pool.Register(j.ID, sched.ClientOptions{Priority: j.Req.Priority, MinShare: j.Req.MinShare})
		select {
		case got <- c: // nil when the pool closed: plan serially
		case <-gone:
			if c != nil {
				c.Close()
			}
		}
	}()
	var timer <-chan time.Time
	if m.cfg.AdmitWait > 0 {
		t := time.NewTimer(m.cfg.AdmitWait)
		defer t.Stop()
		timer = t.C
	}
	var client *sched.Client
	select {
	case client = <-got:
	case <-timer:
		m.cfg.Recorder.Add(obs.ServeSerialDegrades, 1)
	case <-ctx.Done():
	}
	if err := ctx.Err(); err != nil {
		if client != nil {
			client.Close()
		}
		return nil, err
	}
	if preemptions == 0 {
		j.transition(record{State: recAdmitted, Serial: client == nil}, record{State: recPlanning})
	}
	return client, nil
}

// runJob is one job's planning loop, from admission to a terminal state
// (or a drain checkpoint). doc is the job's decoded NPD, nil for a
// recovered job.
func (m *Manager) runJob(j *Job, doc *npd.Document) {
	defer m.wg.Done()

	task, opts, err := m.prepare(j, doc)
	if err != nil {
		j.transition(record{State: recFailed, Detail: fmt.Sprintf("building scenario: %v", err)})
		return
	}

	ctx := j.ctx
	if j.Req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(j.Req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}

	// One bound engine lives across all legs of this job.
	opts.Bound = core.NewBoundEngine(task, opts)
	plan, _, _, err := ctrl.RunLegs(ctx, ctrl.Legs{
		Task:       task,
		Options:    opts,
		Planner:    ctrl.Planner(j.Req.Planner),
		Admit:      func(preemptions int) (*sched.Client, error) { return m.admit(ctx, j, preemptions) },
		Leg:        m.legHook(j),
		Checkpoint: func(cp *core.Checkpoint, reason error) { m.journalCheckpoint(j, cp, reason) },
		LegStates:  cmp.Or(j.Req.LegStates, m.cfg.LegStates),
	})
	if err != nil {
		m.finish(j, err, ctx)
		return
	}

	// The planner's post-pass audited the plan (Options.SkipAudit is
	// never set by the service); journal the audited document and the
	// terminal done record together.
	pd, err := npd.BuildPlanDocument(task, plan, opts)
	if err != nil {
		j.transition(record{State: recFailed, Detail: fmt.Sprintf("building plan document: %v", err)})
		return
	}
	docBytes, err := json.Marshal(pd)
	if err != nil {
		j.transition(record{State: recFailed, Detail: fmt.Sprintf("encoding plan document: %v", err)})
		return
	}
	// Remembered first, so the client that sees DONE reads it from memory;
	// Plan serves it only once the audited record is durable.
	m.rememberPlan(j.ID, docBytes)
	j.transition(record{
		State:      recAudited,
		Plan:       docBytes,
		Cost:       plan.Cost,
		Actions:    len(plan.Sequence),
		Incumbent:  plan.Metrics.IncumbentCost,
		LowerBound: plan.Metrics.LowerBound,
		Gap:        plan.Metrics.OptimalityGap,
	}, record{State: recDone})
}

// finish maps the error that ended a job's planning to the job's terminal
// (or, for drains, non-terminal) state.
func (m *Manager) finish(j *Job, planErr error, ctx context.Context) {
	cause := context.Cause(ctx)
	var lp *ctrl.LegPanic
	switch {
	case errors.As(planErr, &lp):
		// Terminal whatever else is going on — a drain included: a job that
		// stayed PLANNING on disk would be replayed into the same panic by
		// every restart.
		log.Printf("serve: job %s: %v\n%s", j.ID, lp, lp.Stack)
		m.cfg.Recorder.Add(obs.ServePlannerPanics, 1)
		j.transition(record{State: recFailed, Detail: lp.Error()})
	case errors.Is(cause, errDrainStop):
		// Checkpoint already journaled by the last leg; the job stays
		// PLANNING on disk and a restarted daemon replays it.
	case errors.Is(cause, errUserCancel):
		j.transition(record{State: recCancelled, Detail: "cancelled by client"})
	case errors.Is(cause, context.DeadlineExceeded):
		m.cfg.Recorder.Add(obs.ServeDeadlineExpiries, 1)
		j.transition(record{State: recFailed, Detail: "deadline expired"})
	default:
		j.transition(record{State: recFailed, Detail: planErr.Error()})
	}
}

// legHook is the job's per-leg hook for ctrl.RunLegs: Config.LegHook,
// with a sim.ErrTransient from it retried under the ctrl backoff policy,
// at most MaxRetries times per job.
func (m *Manager) legHook(j *Job) func(leg int) error {
	if m.cfg.LegHook == nil {
		return nil
	}
	var rng *rand.Rand // the backoff jitter, built at the first retry
	retries := 0
	return func(leg int) error {
		for {
			err := m.cfg.LegHook(j.ID, leg)
			if !errors.Is(err, sim.ErrTransient) || retries >= m.cfg.MaxRetries {
				return err
			}
			retries++
			if rng == nil {
				rng = rand.New(rand.NewSource(1))
			}
			m.cfg.Sleep(ctrl.Backoff(retryBackoff, maxRetryBackoff, retries, rng))
		}
	}
}

// journalCheckpoint seals the checkpoint document (npd.BuildCheckpointDocument,
// the document klotski -checkpoint writes) into the job's .ckpt file and
// journals a checkpoint record carrying the anytime certificate. The
// partial sequence in both is the checkpoint's SafePartial: a prefix an
// operator may execute and pause at.
func (m *Manager) journalCheckpoint(j *Job, cp *core.Checkpoint, reason error) {
	doc := npd.BuildCheckpointDocument(cp, reason)
	j.mu.Lock()
	leg := j.legs + 1
	j.mu.Unlock()
	detail := fmt.Sprintf("checkpoint (%v)", reason)
	_, ckptPath := m.jobPaths(j.ID)
	if err := durable.WriteSealedFile(ckptPath, npd.PlanFormat, doc); err != nil {
		// The journal record below is the durable truth; a failed
		// envelope write only degrades the checkpoint endpoint, so the
		// job plans on, and the record says why.
		detail += fmt.Sprintf("; envelope not written: %v", err)
	}
	j.transition(record{
		State:          recCheckpoint,
		Leg:            leg,
		Incumbent:      doc.Checkpoint.Incumbent,
		LowerBound:     doc.Checkpoint.LowerBound,
		Gap:            doc.Checkpoint.Gap,
		PartialActions: doc.Actions,
		Detail:         detail,
	})
}

// CheckpointEnvelope returns the job's latest sealed checkpoint envelope
// bytes (the .ckpt file), or an error when none exists or it is damaged.
func (m *Manager) CheckpointEnvelope(id string) ([]byte, error) {
	if _, err := m.Job(id); err != nil {
		return nil, err
	}
	_, ckptPath := m.jobPaths(id)
	data, err := os.ReadFile(ckptPath)
	if err != nil {
		return nil, err
	}
	if _, err := durable.OpenSealed(npd.PlanFormat, data); err != nil {
		return nil, err
	}
	return data, nil
}

// recover folds every journal in the state directory back into the job
// table. Terminal jobs load as-is; a job with an audited record but no
// done record is completed from its journaled plan (no replanning); any
// other in-flight job re-enters planning by deterministic replay. A
// journal with mid-file corruption is quarantined (renamed *.corrupt)
// and the job surfaces as FAILED. An empty journal — crash before the
// first durable record, submitter never acknowledged — is removed.
func (m *Manager) recover() error {
	paths, err := filepath.Glob(filepath.Join(m.cfg.Dir, "job-*.journal"))
	if err != nil {
		return fmt.Errorf("serve: scanning state dir: %w", err)
	}
	sort.Strings(paths)
	for _, path := range paths {
		id := filepath.Base(path)
		id = id[:len(id)-len(".journal")]
		var n int
		if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
			continue // not ours
		}
		if n >= m.nextID {
			m.nextID = n + 1
		}
		journal, recs, err := durable.Open[record](path)
		if err != nil {
			if errors.Is(err, durable.ErrCorrupt) {
				m.quarantine(id, n, path, err)
				continue
			}
			return err
		}
		if len(recs) == 0 {
			// No durable record (an empty file, or only a torn first
			// record): the submitter was never acknowledged, so the job
			// never existed.
			journal.Close()
			os.Remove(path)
			continue
		}
		j := m.foldJob(id, n, journal, recs)
		m.mu.Lock()
		m.insertLocked(j)
		m.mu.Unlock()

		if j.state.Terminal() {
			// Nothing will run: keep only how the job ended.
			journal.Close()
			j.journal = nil
			j.Req.NPD = nil
			continue
		}
		m.cfg.Recorder.Add(obs.ServeJobsActive, 1)
		m.cfg.Recorder.Add(obs.ServeJobsRecovered, 1)
		if j.state == StateAudited {
			// The plan is durable; only the done record was lost.
			j.transition(record{State: recDone})
			continue
		}
		// In-flight: replay from the journaled request.
		j.ctx, j.cancelRun = context.WithCancelCause(m.runCtx)
		m.wg.Add(1)
		go m.runJob(j, nil)
	}
	return nil
}

// quarantine renames a corrupt journal aside and registers the job as
// FAILED with a fresh journal recording why, so restarts converge
// instead of re-parsing the damage forever.
func (m *Manager) quarantine(id string, num int, path string, cause error) {
	os.Rename(path, path+".corrupt")
	j := &Job{ID: id, num: num, m: m, state: StateFailed, detail: fmt.Sprintf("journal corrupt: %v", cause)}
	if journal, err := durable.Create[record](path); err == nil {
		j.journal = journal
		j.mu.Lock()
		j.appendLocked(record{State: recFailed, Detail: j.detail})
		j.mu.Unlock()
		journal.Close()
		j.journal = nil
	}
	m.mu.Lock()
	m.insertLocked(j)
	m.mu.Unlock()
}

// foldJob replays a journal's records into a Job. The journal may hold
// several admission/planning cycles (one per recovery); the fold keeps
// the latest values.
func (m *Manager) foldJob(id string, num int, journal *durable.Log[record], recs []record) *Job {
	j := &Job{ID: id, num: num, m: m, journal: journal, state: StateSubmitted, recovered: true}
	maxSeq := -1
	for _, r := range recs {
		maxSeq = max(maxSeq, r.Seq)
		if r.State == recSubmitted && len(r.Request) > 0 {
			var req Request
			if err := json.Unmarshal(r.Request, &req); err == nil {
				j.Req = req
			}
		}
		j.applyLocked(r)
	}
	j.seq = maxSeq + 1
	return j
}
