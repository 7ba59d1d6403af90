package obs

import (
	"math"
	"time"
)

// Instrument names, one for each declared instrument. Exported so snapshot
// consumers (bench/, tests, dashboards) can reference them without string
// drift.
const (
	MetricStatesCreated      = "planner.states_created"
	MetricStatesExpanded     = "planner.states_expanded"
	MetricChecks             = "planner.checks"
	MetricCacheHits          = "planner.cache_hits"
	MetricCacheMisses        = "planner.cache_misses"
	MetricCacheHitRate       = "planner.cache_hit_rate"
	MetricCheckLatency       = "planner.check_latency_seconds"
	MetricPortRejects        = "planner.port_rejects"
	MetricCutRejects         = "planner.cut_rejects"
	MetricLiftedChecks       = "planner.lifted_checks"
	MetricLiftedFallbacks    = "planner.lifted_fallbacks"
	MetricLiftedFieldRepairs = "planner.lifted_field_repairs"
	MetricOpenListSize       = "planner.open_list_size"
	MetricPlansCompleted     = "planner.plans_completed"
	MetricPlansInterrupted   = "planner.plans_interrupted"
	MetricRetries            = "ctrl.retries"
	MetricReplans            = "ctrl.replans"
	MetricBoundaryViolations = "ctrl.boundary_violations"
	MetricDriftReplans       = "ctrl.drift_replans"
	MetricTelemetryFaults    = "ctrl.telemetry_faults"
	MetricDegradedRuns       = "ctrl.degraded_runs"
	MetricOptimalityGap      = "planner.optimality_gap"
	MetricBoundCutsLearned   = "bound.cuts_learned"
	MetricBoundCutHits       = "bound.cut_hits"
	MetricBoundStatesPruned  = "bound.states_pruned"
	MetricGapSkips           = "ctrl.gap_skips"
	MetricAuditSteps         = "audit.steps_checked"
	MetricAuditFailures      = "audit.failures"
	MetricSchedPreemptions   = "sched.preemptions"
	MetricFleetPlansAdmitted = "fleet.plans_admitted"

	// Planning-as-a-service daemon instruments (internal/serve).
	MetricServeJobsActive       = "serve.jobs_active"
	MetricServeJobsSubmitted    = "serve.jobs_submitted"
	MetricServeJobsRecovered    = "serve.jobs_recovered"
	MetricServeDrains           = "serve.drains"
	MetricServeDeadlineExpiries = "serve.deadline_expiries"
	MetricServeSerialDegrades   = "serve.serial_degrades"
	MetricServePlannerPanics    = "serve.planner_panics"
	MetricServeJournalSyncs     = "serve.journal_syncs"
	MetricServeTaskBuilds       = "serve.task_builds"
	MetricServeTaskCacheHits    = "serve.task_cache_hits"

	TraceName = "planner"
)

// Counters of the pool's retired task path. They are not declared, so no
// snapshot carries them.
//
// Deprecated: the pool runs no tasks, so nothing is stolen or queued.
const (
	MetricSchedSteals    = "sched.steals"
	MetricSchedQueueWait = "sched.queue_wait_ns"
)

// Instrument is the dense ID of one declared instrument: the name MetricX
// is the instrument X. An ID's doc comment is its help text, and README.md
// lists it (TestObservabilityTable).
type Instrument uint8

const (
	// StatesCreated counts search states pushed.
	StatesCreated Instrument = iota
	// StatesExpanded counts search states popped and expanded.
	StatesExpanded
	// Checks counts satisfiability checks, whoever answered them.
	Checks
	// CacheHits counts satisfiability-cache hits.
	CacheHits
	// CacheMisses counts satisfiability-cache misses.
	CacheMisses
	// CacheHitRate is hits / (hits + misses), computed at snapshot time.
	CacheHitRate
	// CheckLatency is the latency of each satisfiability check, in seconds.
	CheckLatency
	// PortRejects counts checks the planner's lane answered "over a port
	// budget" without routing them.
	PortRejects
	// CutRejects counts checks the lane answered "a capacity cut is
	// overloaded" (its crossing demand over θ × its up capacity) without
	// routing them.
	CutRejects
	// LiftedChecks counts routed checks the lane answered by routing the
	// quotient of the fabric, one switch per symmetry class. The lane turns
	// to it at its first routed check when the quotient has at most a quarter
	// of the fabric's circuits as circuit classes.
	LiftedChecks
	// LiftedFallbacks counts checks the quotient was unsure of and left to
	// the full evaluator.
	LiftedFallbacks
	// LiftedFieldRepairs counts distance fields the lifted check kept from
	// the check before and repaired around the circuit classes that changed,
	// instead of traversing the quotient again.
	LiftedFieldRepairs
	// OpenListSize is the size of the search's open list.
	OpenListSize
	// PlansCompleted counts planner runs that returned a plan.
	PlansCompleted
	// PlansInterrupted counts planner runs stopped by budget or
	// cancellation.
	PlansInterrupted
	// Retries counts control-loop action retries.
	Retries
	// Replans counts control-loop replans.
	Replans
	// BoundaryViolations counts constraint violations observed at a run
	// boundary during execution.
	BoundaryViolations
	// DriftReplans counts replans triggered by demand drift over the
	// controller's threshold.
	DriftReplans
	// TelemetryFaults counts demand-telemetry observations that were
	// dropped, stale or failed sanity checks.
	TelemetryFaults
	// DegradedRuns counts runs planned against the inflated-demand envelope
	// because telemetry was unusable.
	DegradedRuns
	// OptimalityGap is the latest certified relative optimality gap (0 is
	// provably optimal, 1 certifies nothing), kept once per registry.
	OptimalityGap
	// BoundCutsLearned counts infeasibility cuts the lower-bound engine
	// recorded.
	BoundCutsLearned
	// BoundCutHits counts lower-bound queries the cut set answered: a state
	// proven dead or dominated.
	BoundCutHits
	// BoundStatesPruned counts search states skipped because the bound
	// engine proved they lie on no optimal plan.
	BoundStatesPruned
	// GapSkips counts drift replans skipped because the executing plan's
	// remaining cost was certified within the controller's gap threshold.
	GapSkips
	// AuditSteps counts boundary states the independent plan auditor
	// checked.
	AuditSteps
	// AuditFailures counts plans the independent auditor rejected.
	AuditFailures
	// SchedPreemptions counts plans the shared pool forced to checkpoint so
	// that a higher-priority plan could take their reservation.
	SchedPreemptions
	// FleetPlansAdmitted counts fleet members admitted to the shared pool;
	// a re-admission after a preemption counts again.
	FleetPlansAdmitted
	// ServeJobsActive is the number of the daemon's jobs not yet terminal.
	ServeJobsActive
	// ServeJobsSubmitted counts jobs the daemon accepted and journaled.
	ServeJobsSubmitted
	// ServeJobsRecovered counts in-flight jobs rebuilt from their journals
	// after a daemon restart.
	ServeJobsRecovered
	// ServeDrains counts graceful daemon drains, which checkpoint every job
	// on SIGTERM or SIGINT.
	ServeDrains
	// ServeDeadlineExpiries counts jobs failed because their request
	// deadline expired before planning finished.
	ServeDeadlineExpiries
	// ServeSerialDegrades counts jobs planned serially because the pool's
	// reservations stayed exhausted past the admission wait.
	ServeSerialDegrades
	// ServePlannerPanics counts jobs failed because their planning or
	// audit call panicked.
	ServePlannerPanics
	// ServeJournalSyncs counts fsyncs of a job journal, each of which may
	// cover several records.
	ServeJournalSyncs
	// ServeTaskBuilds counts migration tasks the daemon built for jobs whose
	// NPD document it had not cached, failed builds included.
	ServeTaskBuilds
	// ServeTaskCacheHits counts jobs that planned on a task the daemon had
	// cached from an earlier job of the same NPD document.
	ServeTaskCacheHits

	// NumInstruments is the number of declared instruments, not one of them.
	NumInstruments
)

// decl is one row of the instrument table; a row that names no kind is a
// counter.
type decl struct {
	name   string
	kind   Kind
	bounds []float64                 // a histogram's bucket bounds
	derive func(r *Registry) float64 // a derived value computed at snapshot time
}

// table declares every instrument; a registry holds one cell per row.
var table = [NumInstruments]decl{
	StatesCreated:         {name: MetricStatesCreated},
	StatesExpanded:        {name: MetricStatesExpanded},
	Checks:                {name: MetricChecks},
	CacheHits:             {name: MetricCacheHits},
	CacheMisses:           {name: MetricCacheMisses},
	CacheHitRate:          {name: MetricCacheHitRate, kind: KindDerived, derive: cacheHitRate},
	CheckLatency:          {name: MetricCheckLatency, kind: KindHistogram, bounds: timeBuckets},
	PortRejects:           {name: MetricPortRejects},
	CutRejects:            {name: MetricCutRejects},
	LiftedChecks:          {name: MetricLiftedChecks},
	LiftedFallbacks:       {name: MetricLiftedFallbacks},
	LiftedFieldRepairs:    {name: MetricLiftedFieldRepairs},
	OpenListSize:          {name: MetricOpenListSize, kind: KindGauge},
	PlansCompleted:        {name: MetricPlansCompleted},
	PlansInterrupted:      {name: MetricPlansInterrupted},
	Retries:               {name: MetricRetries},
	Replans:               {name: MetricReplans},
	BoundaryViolations:    {name: MetricBoundaryViolations},
	DriftReplans:          {name: MetricDriftReplans},
	TelemetryFaults:       {name: MetricTelemetryFaults},
	DegradedRuns:          {name: MetricDegradedRuns},
	OptimalityGap:         {name: MetricOptimalityGap, kind: KindDerived},
	BoundCutsLearned:      {name: MetricBoundCutsLearned},
	BoundCutHits:          {name: MetricBoundCutHits},
	BoundStatesPruned:     {name: MetricBoundStatesPruned},
	GapSkips:              {name: MetricGapSkips},
	AuditSteps:            {name: MetricAuditSteps},
	AuditFailures:         {name: MetricAuditFailures},
	SchedPreemptions:      {name: MetricSchedPreemptions},
	FleetPlansAdmitted:    {name: MetricFleetPlansAdmitted},
	ServeJobsActive:       {name: MetricServeJobsActive, kind: KindGauge},
	ServeJobsSubmitted:    {name: MetricServeJobsSubmitted},
	ServeJobsRecovered:    {name: MetricServeJobsRecovered},
	ServeDrains:           {name: MetricServeDrains},
	ServeDeadlineExpiries: {name: MetricServeDeadlineExpiries},
	ServeSerialDegrades:   {name: MetricServeSerialDegrades},
	ServePlannerPanics:    {name: MetricServePlannerPanics},
	ServeJournalSyncs:     {name: MetricServeJournalSyncs},
	ServeTaskBuilds:       {name: MetricServeTaskBuilds},
	ServeTaskCacheHits:    {name: MetricServeTaskCacheHits},
}

func cacheHitRate(r *Registry) float64 {
	h, m := r.cells[CacheHits].v.Load(), r.cells[CacheMisses].v.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Name is the instrument's snapshot key.
func (id Instrument) Name() string { return table[id].name }

// Kind is what the instrument records.
func (id Instrument) Kind() Kind { return table[id].kind }

// Recorder is the hot-path façade the planners and control loop call into.
// A recorded event is one nil check and one atomic op on the registry's
// cell (a gauge also raises its high-water mark), and a nil *Recorder is
// the no-op default, costing one branch. Recorders on one registry share
// its instruments.
type Recorder struct {
	reg   *Registry
	trace *Trace
}

// NewRecorder returns a recorder publishing into reg (nil selects the
// process-wide Default registry).
func NewRecorder(reg *Registry) *Recorder {
	if reg == nil {
		reg = Default()
	}
	return &Recorder{reg: reg, trace: reg.Trace(TraceName, 0)}
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Registry returns the registry the recorder publishes into; nil on a nil
// receiver.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// Add adds n to a counter, or moves a gauge by n and tracks its high-water
// mark. Concurrent Adds to a gauge never lose one another, as a Set
// computed from a stale read would.
func (r *Recorder) Add(id Instrument, n int) {
	if r == nil {
		return
	}
	c := &r.reg.cells[id]
	v := c.v.Add(int64(n))
	if table[id].kind == KindGauge {
		c.raiseMax(v)
	}
}

// Set records a gauge's current value, tracking its high-water mark, or
// the value of a derived instrument that is not computed. NaN is ignored.
func (r *Recorder) Set(id Instrument, v float64) {
	if r == nil || math.IsNaN(v) {
		return
	}
	c := &r.reg.cells[id]
	if table[id].kind == KindGauge {
		c.v.Store(int64(v))
		c.raiseMax(int64(v))
		return
	}
	c.v.Store(int64(math.Float64bits(v)))
}

// Observe records one duration sample, in seconds, in a histogram.
func (r *Recorder) Observe(id Instrument, d time.Duration) {
	if r == nil {
		return
	}
	r.reg.cells[id].h.observe(d.Seconds())
}

// Span starts a named timed region in the recorder's trace stream. On a
// nil receiver it returns the zero Span, whose End is a no-op.
func (r *Recorder) Span(name string) Span {
	if r == nil {
		return Span{}
	}
	return r.trace.StartSpan(name)
}
