package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Instrument names published by Recorder into its registry. Exported so
// snapshot consumers (bench/, tests, dashboards) can reference
// them without string drift.
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
	MetricPlacementRepairs   = "planner.placement_repairs"
	MetricPlacementFallbacks = "planner.placement_fallbacks"
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
	MetricBoundCrossHits     = "bound.cross_plan_cut_hits"

	// Planning-as-a-service daemon instruments (internal/serve).
	MetricServeJobsActive       = "serve.jobs_active"
	MetricServeJobsSubmitted    = "serve.jobs_submitted"
	MetricServeJobsRecovered    = "serve.jobs_recovered"
	MetricServeDrains           = "serve.drains"
	MetricServeDeadlineExpiries = "serve.deadline_expiries"
	MetricServeSerialDegrades   = "serve.serial_degrades"
	MetricServePlannerPanics    = "serve.planner_panics"
	MetricServeJournalSyncs     = "serve.journal_syncs"

	TraceName = "planner"
)

// Counters of the pool's retired task path. Nothing increments them.
//
// Deprecated: the pool runs no tasks, so nothing is stolen or queued.
const (
	MetricSchedSteals    = "sched.steals"
	MetricSchedQueueWait = "sched.queue_wait_ns"
)

// Recorder is the typed hot-path façade the planners and control loop
// call into. It pre-resolves its instruments once at construction so a
// recorded event is a single atomic op, and every method is safe on a nil
// receiver — a nil *Recorder is the no-op default, costing one branch.
type Recorder struct {
	reg   *Registry
	trace *Trace

	statesCreated    *Counter
	statesExpanded   *Counter
	checks           *Counter
	cacheHits        *Counter
	cacheMisses      *Counter
	checkLatency     *Histogram
	portRejects      *Counter
	cutRejects       *Counter
	placeRepairs     *Counter
	placeFallbacks   *Counter
	openList         *Gauge
	plansCompleted   *Counter
	plansInterrupted *Counter
	retries          *Counter
	replans          *Counter
	boundaryViol     *Counter
	driftReplans     *Counter
	telemetryFaults  *Counter
	degradedRuns     *Counter
	boundCuts        *Counter
	boundCutHits     *Counter
	boundPruned      *Counter
	gapSkips         *Counter
	gapBits          atomic.Uint64 // float64 bits of the last certified gap
	auditSteps       *Counter
	auditFailures    *Counter
	schedPreemptions *Counter
	fleetAdmitted    *Counter
	boundCrossHits   *Counter

	serveActive     *Gauge
	serveSubmitted  *Counter
	serveRecovered  *Counter
	serveDrains     *Counter
	serveDeadlines  *Counter
	serveSerialDegr *Counter
	servePanics     *Counter
	serveSyncs      *Counter
}

// NewRecorder returns a recorder publishing into reg (nil selects the
// process-wide Default registry). It also registers the derived
// cache-hit-rate metric, hits/(hits+misses), computed at snapshot time.
func NewRecorder(reg *Registry) *Recorder {
	if reg == nil {
		reg = Default()
	}
	r := &Recorder{
		reg:              reg,
		trace:            reg.Trace(TraceName, 0),
		statesCreated:    reg.Counter(MetricStatesCreated),
		statesExpanded:   reg.Counter(MetricStatesExpanded),
		checks:           reg.Counter(MetricChecks),
		cacheHits:        reg.Counter(MetricCacheHits),
		cacheMisses:      reg.Counter(MetricCacheMisses),
		checkLatency:     reg.Histogram(MetricCheckLatency, nil),
		portRejects:      reg.Counter(MetricPortRejects),
		cutRejects:       reg.Counter(MetricCutRejects),
		placeRepairs:     reg.Counter(MetricPlacementRepairs),
		placeFallbacks:   reg.Counter(MetricPlacementFallbacks),
		openList:         reg.Gauge(MetricOpenListSize),
		plansCompleted:   reg.Counter(MetricPlansCompleted),
		plansInterrupted: reg.Counter(MetricPlansInterrupted),
		retries:          reg.Counter(MetricRetries),
		replans:          reg.Counter(MetricReplans),
		boundaryViol:     reg.Counter(MetricBoundaryViolations),
		driftReplans:     reg.Counter(MetricDriftReplans),
		telemetryFaults:  reg.Counter(MetricTelemetryFaults),
		degradedRuns:     reg.Counter(MetricDegradedRuns),
		boundCuts:        reg.Counter(MetricBoundCutsLearned),
		boundCutHits:     reg.Counter(MetricBoundCutHits),
		boundPruned:      reg.Counter(MetricBoundStatesPruned),
		gapSkips:         reg.Counter(MetricGapSkips),
		auditSteps:       reg.Counter(MetricAuditSteps),
		auditFailures:    reg.Counter(MetricAuditFailures),
		schedPreemptions: reg.Counter(MetricSchedPreemptions),
		fleetAdmitted:    reg.Counter(MetricFleetPlansAdmitted),
		boundCrossHits:   reg.Counter(MetricBoundCrossHits),
		serveActive:      reg.Gauge(MetricServeJobsActive),
		serveSubmitted:   reg.Counter(MetricServeJobsSubmitted),
		serveRecovered:   reg.Counter(MetricServeJobsRecovered),
		serveDrains:      reg.Counter(MetricServeDrains),
		serveDeadlines:   reg.Counter(MetricServeDeadlineExpiries),
		serveSerialDegr:  reg.Counter(MetricServeSerialDegrades),
		servePanics:      reg.Counter(MetricServePlannerPanics),
		serveSyncs:       reg.Counter(MetricServeJournalSyncs),
	}
	hits, misses := r.cacheHits, r.cacheMisses
	reg.Derived(MetricCacheHitRate, func() float64 {
		h, m := hits.Value(), misses.Value()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
	gap := &r.gapBits
	reg.Derived(MetricOptimalityGap, func() float64 {
		return math.Float64frombits(gap.Load())
	})
	return r
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

// StateCreated counts one search state pushed.
func (r *Recorder) StateCreated() {
	if r == nil {
		return
	}
	r.statesCreated.Inc()
}

// StateExpanded counts one search state popped/expanded.
func (r *Recorder) StateExpanded() {
	if r == nil {
		return
	}
	r.statesExpanded.Inc()
}

// CacheHit counts one satisfiability-cache hit.
func (r *Recorder) CacheHit() {
	if r == nil {
		return
	}
	r.cacheHits.Inc()
}

// CacheMiss counts one satisfiability-cache miss.
func (r *Recorder) CacheMiss() {
	if r == nil {
		return
	}
	r.cacheMisses.Inc()
}

// CheckObserved counts one satisfiability check and records its latency.
func (r *Recorder) CheckObserved(d time.Duration) {
	if r == nil {
		return
	}
	r.checks.Inc()
	r.checkLatency.ObserveDuration(d)
}

// PortReject counts one check the planner's lane answered "over a port
// budget" without routing it.
func (r *Recorder) PortReject() {
	if r == nil {
		return
	}
	r.portRejects.Inc()
}

// CutReject counts one check the planner's lane answered "a capacity cut is
// overloaded" without routing it.
func (r *Recorder) CutReject() {
	if r == nil {
		return
	}
	r.cutRejects.Inc()
}

// Placements counts routed checks the planner's evaluator answered from its
// retained placement, and those that tried to and ran the full sweeps.
func (r *Recorder) Placements(repairs, fallbacks int) {
	if r == nil {
		return
	}
	r.placeRepairs.Add(int64(repairs))
	r.placeFallbacks.Add(int64(fallbacks))
}

// OpenList records the current open-list size.
func (r *Recorder) OpenList(n int) {
	if r == nil {
		return
	}
	r.openList.Set(int64(n))
}

// PlanCompleted counts one planner run that returned a plan.
func (r *Recorder) PlanCompleted() {
	if r == nil {
		return
	}
	r.plansCompleted.Inc()
}

// PlanInterrupted counts one planner run stopped by budget or cancellation.
func (r *Recorder) PlanInterrupted() {
	if r == nil {
		return
	}
	r.plansInterrupted.Inc()
}

// Retry counts one control-loop action retry.
func (r *Recorder) Retry() {
	if r == nil {
		return
	}
	r.retries.Inc()
}

// Replan counts one control-loop replan.
func (r *Recorder) Replan() {
	if r == nil {
		return
	}
	r.replans.Inc()
}

// BoundaryViolation counts one observed constraint violation at a run
// boundary during execution.
func (r *Recorder) BoundaryViolation() {
	if r == nil {
		return
	}
	r.boundaryViol.Inc()
}

// DriftReplan counts one replan triggered by demand drift exceeding the
// controller's threshold.
func (r *Recorder) DriftReplan() {
	if r == nil {
		return
	}
	r.driftReplans.Inc()
}

// TelemetryFault counts one demand-telemetry observation that was dropped,
// stale, or failed sanity checks.
func (r *Recorder) TelemetryFault() {
	if r == nil {
		return
	}
	r.telemetryFaults.Inc()
}

// DegradedRun counts one run executed in degraded mode (planning against
// the inflated-demand envelope because telemetry was unusable).
func (r *Recorder) DegradedRun() {
	if r == nil {
		return
	}
	r.degradedRuns.Inc()
}

// BoundCutsLearnedAdded counts n new infeasibility cuts recorded by the
// lower-bound engine.
func (r *Recorder) BoundCutsLearnedAdded(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.boundCuts.Add(int64(n))
}

// BoundCutHitsAdded counts n lower-bound queries the cut set answered
// affirmatively (a state proven dead or dominated).
func (r *Recorder) BoundCutHitsAdded(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.boundCutHits.Add(int64(n))
}

// BoundStatesPruned counts n search states skipped because the bound
// engine proved they cannot lie on any optimal plan.
func (r *Recorder) BoundStatesPruned(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.boundPruned.Add(int64(n))
}

// OptimalityGap records the latest certified relative optimality gap
// (0 = provably optimal, 1 = nothing certified). Published as a derived
// metric so float precision survives the snapshot.
func (r *Recorder) OptimalityGap(gap float64) {
	if r == nil || math.IsNaN(gap) {
		return
	}
	r.gapBits.Store(math.Float64bits(gap))
}

// GapSkip counts one drift replan skipped because the executing plan's
// remaining cost was already certified within the controller's gap
// threshold of the lower bound.
func (r *Recorder) GapSkip() {
	if r == nil {
		return
	}
	r.gapSkips.Inc()
}

// AuditSteps counts n boundary states checked by the independent plan
// auditor.
func (r *Recorder) AuditSteps(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.auditSteps.Add(int64(n))
}

// AuditFailure counts one plan rejected by the independent auditor.
func (r *Recorder) AuditFailure() {
	if r == nil {
		return
	}
	r.auditFailures.Inc()
}

// SchedPreemption counts one lower-priority plan forced by the shared
// pool to checkpoint so a higher-priority plan could take its reservation.
func (r *Recorder) SchedPreemption() {
	if r == nil {
		return
	}
	r.schedPreemptions.Inc()
}

// FleetPlanAdmitted counts one fleet member admitted to the shared pool
// (re-admissions after a preemption count again).
func (r *Recorder) FleetPlanAdmitted() {
	if r == nil {
		return
	}
	r.fleetAdmitted.Inc()
}

// BoundCrossHitsAdded counts n structural cuts a plan imported from the
// shared cross-plan cut store (learned by a concurrent fleet member).
func (r *Recorder) BoundCrossHitsAdded(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.boundCrossHits.Add(int64(n))
}

// JobsActiveAdd moves the daemon's count of jobs in its table that are
// not yet terminal by delta: +1 as a job enters non-terminal, -1 as it
// ends.
func (r *Recorder) JobsActiveAdd(delta int) {
	if r == nil {
		return
	}
	r.serveActive.Add(int64(delta))
}

// JournalSync counts one fsync of a job journal, which may cover several
// records written together.
func (r *Recorder) JournalSync() {
	if r == nil {
		return
	}
	r.serveSyncs.Inc()
}

// JobSubmitted counts one job accepted (journaled durable) by the daemon.
func (r *Recorder) JobSubmitted() {
	if r == nil {
		return
	}
	r.serveSubmitted.Inc()
}

// JobRecovered counts one in-flight job rebuilt from its journal after a
// daemon restart.
func (r *Recorder) JobRecovered() {
	if r == nil {
		return
	}
	r.serveRecovered.Inc()
}

// ServeDrain counts one graceful daemon drain (checkpoint-all on
// SIGTERM/SIGINT).
func (r *Recorder) ServeDrain() {
	if r == nil {
		return
	}
	r.serveDrains.Inc()
}

// DeadlineExpiry counts one job failed because its request deadline
// expired before planning finished.
func (r *Recorder) DeadlineExpiry() {
	if r == nil {
		return
	}
	r.serveDeadlines.Inc()
}

// SerialDegrade counts one job planned serially because the shared pool's
// reservations stayed exhausted past the admission wait — degraded, not
// rejected.
func (r *Recorder) SerialDegrade() {
	if r == nil {
		return
	}
	r.serveSerialDegr.Inc()
}

// PlannerPanic counts one job failed because its planning or audit call
// panicked; the daemon contains the panic and keeps serving.
func (r *Recorder) PlannerPanic() {
	if r == nil {
		return
	}
	r.servePanics.Inc()
}

// Span starts a named timed region in the recorder's trace stream. On a
// nil receiver it returns the zero Span, whose End is a no-op.
func (r *Recorder) Span(name string) Span {
	if r == nil {
		return Span{}
	}
	return r.trace.StartSpan(name)
}
