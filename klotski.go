// Package klotski is an open reproduction of "Klotski: Efficient and Safe
// Network Migration of Large Production Datacenters" (SIGCOMM 2023): a
// planner that turns a datacenter-network migration — adding, removing, or
// swapping switches and circuits at regional scale — into a minimum-cost
// ordered sequence of drain/undrain actions whose every observable
// intermediate state satisfies traffic-demand and physical-port safety
// constraints.
//
// # Model
//
// A Topology is an immutable universe of typed switches (RSW, FSW, SSW,
// FADU, FAUU, MA, EB, DR, EBB) and circuits covering the network before,
// during, and after the migration; activity flags record what carries
// traffic. A Task groups the elements to operate into operation blocks,
// each with an action type (equipment kind × drain/undrain). A Plan orders
// the blocks; consecutive same-type actions form runs executed in parallel
// by field crews, and plan cost is (essentially) the number of runs —
// f_cost(x) = 1 + α(x−1) per run of length x.
//
// Safety is checked with a macro-scale ECMP model: every demand must route,
// and no circuit may exceed the utilization bound θ, at every run boundary
// and at the end of the plan (paper Eq. 4–6).
//
// # Planning
//
//	task := ... // from a generator, an NPD document, or built by hand
//	plan, err := klotski.PlanAStar(task, klotski.Options{Theta: 0.75})
//
// PlanAStar uses the A* search planner with the paper's compact
// ordering-agnostic state representation, cached satisfiability checking,
// and an admissible domain-specific heuristic; PlanDP is the
// dynamic-programming planner of §4.3, and PlanMRC / PlanJanus are the
// evaluation baselines. All four return identical Plan values.
//
// # Scenarios and the evaluation suite
//
// Suite("A".."E", "E-DMAG", "E-SSW") builds the Table-3 evaluation cases —
// Meta-style regions under the paper's three production migration types —
// at any scale, and JointScenario couples two regions. An NPD document
// (LoadNPD) describes a region and its migration declaratively; its task
// plans through the pipeline (RunPipelineTask). The simulator (NewExecutor)
// replays plans with asynchronous drains at forecast demand; faults are the
// World's, driven by the control loop (RunControlLoop).
package klotski

import (
	"context"
	"io"

	"klotski/internal/audit"
	"klotski/internal/baseline"
	"klotski/internal/bound"
	"klotski/internal/core"
	"klotski/internal/ctrl"
	"klotski/internal/demand"
	"klotski/internal/durable"
	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/npd"
	"klotski/internal/obs"
	"klotski/internal/pipeline"
	"klotski/internal/report"
	"klotski/internal/routing"
	"klotski/internal/sched"
	"klotski/internal/sim"
	"klotski/internal/topo"
)

// Topology model.
type (
	// Topology is the immutable switch/circuit universe plus base activity.
	Topology = topo.Topology
	// Switch is one network element.
	Switch = topo.Switch
	// View is a mutable activity overlay used to evaluate hypothetical states.
	View = topo.View
	// SwitchID indexes switches within a topology.
	SwitchID = topo.SwitchID
	// CircuitID indexes circuits within a topology.
	CircuitID = topo.CircuitID
)

// Switch roles, bottom-up through the DCN (paper §2.1).
const (
	RoleRSW  = topo.RoleRSW
	RoleFSW  = topo.RoleFSW
	RoleFADU = topo.RoleFADU
	RoleMA   = topo.RoleMA
	RoleEBB  = topo.RoleEBB
)

// NewTopology returns an empty named topology.
func NewTopology(name string) *Topology { return topo.New(name) }

// Traffic demands.
type (
	// Demand is an aggregate (source, destination, rate) requirement.
	Demand = demand.Demand
	// DemandSet is a collection of demands.
	DemandSet = demand.Set
	// Forecast models organic demand growth per migration step (§7.1).
	Forecast = demand.Forecast
	// Surge models an unexpected traffic spike (§7.2).
	Surge = demand.Surge
)

// Migration tasks.
type (
	// Task is a migration-planning problem: topology universe, operation
	// blocks with interned action types, and demands.
	Task = migration.Task
	// Block is one operation block, operated atomically.
	Block = migration.Block
	// ActionType identifies a kind of action within a task.
	ActionType = migration.ActionType
	// ActionTypeInfo describes an interned action type.
	ActionTypeInfo = migration.ActionTypeInfo
)

// Operation directions.
const (
	Drain   = migration.Drain
	Undrain = migration.Undrain
)

// Planners.
type (
	// Options parameterizes planning (θ, α, ablations, budgets, replanning).
	Options = core.Options
	// Plan is an ordered, safe, minimum-cost migration plan.
	Plan = core.Plan
	// Metrics reports planner effort.
	Metrics = core.Metrics
	// BoundEngine is the reusable lower-bound engine: an admissible
	// relaxation plus Benders-style no-good cuts learned from infeasible
	// boundary checks, cached across planner invocations and drift replans
	// over the same structure. Wire one via Options.Bound to enable
	// bound-guided pruning (A* dead-state discards, DP dominance skips)
	// and warm-started certified optimality gaps.
	BoundEngine = bound.Engine
)

// Planning errors, matchable with errors.Is.
var (
	ErrInfeasible  = core.ErrInfeasible
	ErrBudget      = core.ErrBudget
	ErrUnsupported = core.ErrUnsupported
)

// NoLast marks "no action executed yet" in sequence costs and lower bounds.
const NoLast = core.NoLast

// NewBoundEngine builds a lower-bound engine matched to the task's action
// structure (per-type block totals, unit costs, α). Assign it to
// Options.Bound; the same engine may be shared across successive planner
// runs over the same structure — a drift replan with changed demands keeps
// the structural cuts and re-proves the rest — and across planner kinds
// (A* and DP runs learn into the same cuts). Not safe for concurrent
// planner runs.
func NewBoundEngine(task *Task, opts Options) *BoundEngine {
	return core.NewBoundEngine(task, opts)
}

// PlanAStar finds a minimum-cost safe migration plan with the A* search
// planner (paper §4.4) — the production configuration. The search and its
// post-planning audit run serially on the calling goroutine.
func PlanAStar(task *Task, opts Options) (*Plan, error) { return core.PlanAStar(task, opts) }

// PlanDP finds a minimum-cost safe plan with the DP-based planner (§4.3),
// serial like PlanAStar.
func PlanDP(task *Task, opts Options) (*Plan, error) { return core.PlanDP(task, opts) }

// PlanMRC plans greedily by maximizing minimum residual capacity — the
// MRC baseline of the evaluation (§6.1). Plans are safe but not optimal.
func PlanMRC(task *Task, opts Options) (*Plan, error) { return baseline.PlanMRC(task, opts) }

// PlanJanus plans with a Janus-style symmetry planner — the second
// evaluation baseline. It finds optimal plans when it finishes, but its
// state space is pruned only by topological symmetry, so on
// production-like (asymmetric) topologies it grows exponentially and
// returns ErrBudget; it also rejects topology-changing migrations.
func PlanJanus(task *Task, opts Options) (*Plan, error) { return baseline.PlanJanus(task, opts) }

// Anytime planning: every planner has a Context variant that honors
// cancellation and, on budget exhaustion or cancellation, returns an
// *Interrupted error carrying a Checkpoint to continue from.
type (
	// Checkpoint is the saved state of an interrupted planning run — the
	// paper's §7.2 hard-budget regime, where a budget overrun must not
	// throw the search away. Partial is the most advanced sequence explored
	// after the blocks the search started from (Executed), and SafePartial
	// its longest prefix that is safe to pause at.
	Checkpoint = core.Checkpoint
	// Interrupted is returned (as *Interrupted, matchable with errors.As)
	// when a planner stops early; it wraps ErrBudget or the context error
	// and carries the Checkpoint.
	Interrupted = core.Interrupted
)

// ResumePlan continues an interrupted search under a fresh budget envelope.
// No state is re-expanded and the eventual plan is identical to what an
// uninterrupted run would have produced.
func ResumePlan(ctx context.Context, cp *Checkpoint, opts Options) (*Plan, error) {
	return core.Resume(ctx, cp, opts)
}

// PlanAStarContext is PlanAStar with cooperative cancellation.
func PlanAStarContext(ctx context.Context, task *Task, opts Options) (*Plan, error) {
	return core.PlanAStarContext(ctx, task, opts)
}

// PlanDPContext is PlanDP with cooperative cancellation.
func PlanDPContext(ctx context.Context, task *Task, opts Options) (*Plan, error) {
	return core.PlanDPContext(ctx, task, opts)
}

// PlanMRCContext is PlanMRC with cooperative cancellation. The baselines
// stop cleanly on budget exhaustion (ErrBudget) but do not checkpoint.
func PlanMRCContext(ctx context.Context, task *Task, opts Options) (*Plan, error) {
	return baseline.PlanMRCContext(ctx, task, opts)
}

// PlanJanusContext is PlanJanus with cooperative cancellation.
func PlanJanusContext(ctx context.Context, task *Task, opts Options) (*Plan, error) {
	return baseline.PlanJanusContext(ctx, task, opts)
}

// Independent plan auditing: a defense-in-depth verifier that replays a
// sequence step by step against a pristine serial evaluator, sharing none
// of the planners' fast paths (caches, retained evaluator state). Every
// planner runs it automatically as a post-pass unless
// Options.SkipAudit is set; Plan.Audit carries the report.
type (
	// AuditReport is the structured result of an independent plan audit.
	AuditReport = audit.Report
)

// AuditPlan independently audits a plan sequence that completes the
// migration from the state after opts.Executed (the initial state when
// empty). freeOrder permits same-type blocks out of canonical order (the
// baseline planners' output). The report's Passed field carries the
// verdict; the returned error only signals malformed inputs.
func AuditPlan(task *Task, seq []int, opts Options, freeOrder bool) (*AuditReport, error) {
	return core.AuditSequence(task, seq, opts, freeOrder)
}

// AuditPartialPlan audits a safe partial sequence — a checkpoint's prefix
// — whose endpoint is checked as a final observable state without
// requiring the migration to be complete.
func AuditPartialPlan(task *Task, seq []int, opts Options, freeOrder bool) (*AuditReport, error) {
	return core.AuditPartial(task, seq, opts, freeOrder)
}

// VerifyPlan is AuditPlan's verdict as an error: nil when the audit passed,
// an error wrapping ErrInfeasible when a state is unsafe, and a plain error
// when the sequence is malformed (out of canonical order, a block missing or
// repeated).
func VerifyPlan(task *Task, seq []int, opts Options) error {
	return core.VerifyPlan(task, seq, opts)
}

// VerifyPlanFreeOrder is VerifyPlan for a plan that may operate same-type
// blocks out of canonical order (the baseline planners' output): the
// free-order audit, which applies space budgets but not funneling headroom
// or run-cap splits.
func VerifyPlanFreeOrder(task *Task, seq []int, opts Options) error {
	return core.VerifyPlanFreeOrder(task, seq, opts)
}

// SequenceCost computes the generalized cost (Eq. 1 + §5) of a block
// sequence.
func SequenceCost(task *Task, seq []int, alpha float64, initialLast ActionType) float64 {
	return core.SequenceCost(task, seq, alpha, initialLast)
}

// Routing / safety evaluation.
type (
	// Evaluator places traffic with ECMP and checks safety constraints.
	Evaluator = routing.Evaluator
	// CheckOpts parameterizes a safety check (θ, funneling headroom).
	CheckOpts = routing.CheckOpts
)

// NewEvaluator returns a routing evaluator for views over t.
func NewEvaluator(t *Topology) *Evaluator { return routing.NewEvaluator(t) }

// Generators and the Table-3 suite.
type (
	// RegionParams describes a Meta-style region to synthesize.
	RegionParams = gen.RegionParams
	// Scenario is a ready-to-plan migration over a generated region.
	Scenario = gen.Scenario
	// JointParams parameterizes a joint two-region migration.
	JointParams = gen.JointParams
)

// Suite builds one of the Table-3 evaluation scenarios ("A".."E", "E-DMAG",
// "E-SSW") at the given scale (1 = paper-sized).
func Suite(name string, scale float64) (*Scenario, error) { return gen.Suite(name, scale) }

// SuiteParams returns a suite topology's region parameters at the given
// scale, for building derived scenarios.
func SuiteParams(name string, scale float64) (RegionParams, error) {
	return gen.SuiteParams(name, scale)
}

// JointScenario merges two regions' HGRID migrations into one coupled
// planning problem (paper §2.2, "Consider multiple DCs").
func JointScenario(name string, p JointParams) (*Scenario, error) {
	return gen.JointScenario(name, p)
}

// SuiteNames lists the scenario names accepted by Suite, in Table-3 order.
func SuiteNames() []string { return gen.SuiteNames() }

// NPD format and EDP-Lite pipeline.
type (
	// NPDDocument is a declarative region + migration description (§5).
	NPDDocument = npd.Document
	// PlanDocument is the serialized ordered-phases planner output.
	PlanDocument = npd.PlanDocument
	// PipelineConfig parameterizes a pipeline run.
	PipelineConfig = pipeline.Config
	// PipelineResult is the output of a pipeline run.
	PipelineResult = pipeline.Result
	// PlannerName selects the pipeline's planning algorithm.
	PlannerName = pipeline.Planner
)

// LoadNPD reads and validates an NPD document from JSON.
func LoadNPD(r io.Reader) (*NPDDocument, error) { return npd.Decode(r) }

// RunPipelineTask executes the pipeline on an already-built task.
func RunPipelineTask(task *Task, cfg PipelineConfig) (*PipelineResult, error) {
	return pipeline.RunTask(task, cfg)
}

// RunPipelineTaskContext is RunPipelineTask with cooperative cancellation.
func RunPipelineTaskContext(ctx context.Context, task *Task, cfg PipelineConfig) (*PipelineResult, error) {
	return pipeline.RunTaskContext(ctx, task, cfg)
}

// ReplanMigration continues a partially executed migration, optionally with
// a new demand set (§7.1–7.2).
func ReplanMigration(task *Task, executed []int, newDemands *DemandSet, cfg PipelineConfig) (*Plan, error) {
	return pipeline.Replan(task, executed, newDemands, cfg)
}

// ReplanMigrationContext is ReplanMigration with cooperative cancellation.
func ReplanMigrationContext(ctx context.Context, task *Task, executed []int, newDemands *DemandSet, cfg PipelineConfig) (*Plan, error) {
	return pipeline.ReplanContext(ctx, task, executed, newDemands, cfg)
}

// ReplanAfterOutage continues a partially executed migration after
// out-of-band maintenance took switches down (§7.2), under the one outage
// rule of Task.WithOutages.
func ReplanAfterOutage(task *Task, executed []int, down []SwitchID, cfg PipelineConfig) (*Plan, error) {
	return pipeline.ReplanAfterOutage(task, executed, down, cfg)
}

// BuildPlanDocument converts a plan into its ordered-phases document.
func BuildPlanDocument(task *Task, plan *Plan, opts Options) (*PlanDocument, error) {
	return npd.BuildPlanDocument(task, plan, opts)
}

// WriteTimeline renders a plan document as a phase-per-line text timeline
// with utilization bars.
func WriteTimeline(w io.Writer, doc *PlanDocument) error { return report.Timeline(w, doc) }

// Execution simulation.
type (
	// SimExecutor replays plans against the routing model.
	SimExecutor = sim.Executor
	// SimOptions parameterizes a simulation (bound, split, asynchrony).
	SimOptions = sim.Options
	// SimGranularity controls intra-run asynchrony.
	SimGranularity = sim.Granularity
)

// Simulation granularities.
const (
	GranularityRun     = sim.GranularityRun
	GranularityBlock   = sim.GranularityBlock
	GranularityCircuit = sim.GranularityCircuit
)

// NewExecutor returns a plan executor for the task.
func NewExecutor(task *Task) *SimExecutor { return sim.NewExecutor(task) }

// Chaos: fault schedules and the live-network World driven by the
// fault-tolerant control loop (§7.2's operating regime).
type (
	// FaultSchedule is a fault train fired as execution progresses.
	FaultSchedule = sim.Schedule
	// FaultScheduleOptions parameterizes RandomFaultSchedule.
	FaultScheduleOptions = sim.ScheduleOptions
	// World is the live network a controller drives: real topology, real
	// demand, and a fault schedule the plan's model may drift from.
	World = sim.World
)

// RandomFaultSchedule draws a seeded fault train targeting only equipment
// the migration does not operate and that carries no demand endpoint.
func RandomFaultSchedule(task *Task, seed int64, opts FaultScheduleOptions) FaultSchedule {
	return sim.RandomSchedule(task, seed, opts)
}

// Fault-tolerant control loop: plan → execute → observe → replan.
type (
	// ControlOptions parameterizes a control-loop run (retry budget,
	// backoff, replan budget, journal).
	ControlOptions = ctrl.Options
	// ControlOutcome reports what one control-loop run did.
	ControlOutcome = ctrl.Outcome
	// ControlJournal is the crash-safe write-ahead journal of executed
	// actions.
	ControlJournal = ctrl.Journal
	// ChaosCampaignOptions parameterizes a Monte Carlo chaos campaign.
	// Its Run.Plan, when it is the audited plan of the untouched task, is
	// where every run starts (see ChaosCampaign).
	ChaosCampaignOptions = ctrl.CampaignOptions
	// ChaosCampaignReport aggregates a chaos campaign's outcomes.
	ChaosCampaignReport = ctrl.CampaignReport
)

// RunControlLoop drives the migration to completion against the live
// world, retrying transient failures with capped exponential backoff and
// replanning whenever the environment drifts from the plan's model.
func RunControlLoop(ctx context.Context, task *Task, world *World, opts ControlOptions) (*ControlOutcome, error) {
	return ctrl.Run(ctx, task, world, opts)
}

// ChaosCampaign runs the control loop against many seeded random fault
// schedules and aggregates completion rate, retries, replans, and
// boundary-violation counts. The seeds run on min(Seeds, GOMAXPROCS)
// goroutines and their outcomes fold in seed order, so the report is the
// same at any GOMAXPROCS; Run.Sleep and Run.Config.Options.Recorder are
// called from several goroutines. Run.Config.Options.Evaluator and .Bound
// serve one planner at a time, so they plan only the untouched task: each
// goroutine runs its seeds on a fork of the evaluator and on a fresh bound
// engine. Plans are byte-identical either way. Set ChaosCampaignOptions.Pool
// to also admit each seed through a shared admission pool. Every run starts
// from the plan of the untouched task: set Run.Plan to the audited plan
// RunPipelineTask returned and the campaign does not plan it again; otherwise
// the campaign plans it once. Run.Plan is ignored unless its audit passed
// from no executed block and it covers every action.
func ChaosCampaign(ctx context.Context, task *Task, opts ChaosCampaignOptions) (*ChaosCampaignReport, error) {
	return ctrl.Campaign(ctx, task, opts)
}

// Fleet-scale planning: a process-wide admission pool shared by concurrent
// plans, with priority preemption.
type (
	// WorkerPool is the shared admission pool. A caller registers a
	// client before it plans and closes it after; the pool decides only
	// when a plan may run, never what it computes, so every plan stays
	// byte-identical to its unpooled result at any pool size or preemption
	// point.
	WorkerPool = sched.Pool
	// FleetMember is one fabric's planning job in a fleet run.
	FleetMember = ctrl.FleetMember
	// FleetOptions parameterizes a fleet run.
	FleetOptions = ctrl.FleetOptions
	// FleetReport aggregates a fleet run.
	FleetReport = ctrl.FleetReport
	// FleetPlanner selects a fleet member's planning algorithm.
	FleetPlanner = ctrl.Planner
)

// NewWorkerPool returns a shared admission pool with the given worker
// budget (0 selects GOMAXPROCS). Close it when the fleet is done.
func NewWorkerPool(workers int, rec *ObsRecorder) *WorkerPool {
	return sched.NewPool(workers, rec)
}

// PlanFleet plans every member concurrently under the shared pool with
// admission control and priority preemption (preempted members checkpoint
// and resume byte-identically).
func PlanFleet(ctx context.Context, members []FleetMember, opts FleetOptions) (*FleetReport, error) {
	return ctrl.Fleet(ctx, members, opts)
}

// Observability: a declared table of instruments, a process-wide registry
// with JSON-snapshot export, ring-buffered span traces, and the
// nil-safe Recorder the planners accept via Options.Recorder.
type (
	// ObsRecorder is the typed hot-path recorder; a nil *ObsRecorder is
	// the no-op default.
	ObsRecorder = obs.Recorder
	// ObsRegistry holds one of each declared instrument (counters, gauges,
	// histograms, derived values) and the trace streams.
	ObsRegistry = obs.Registry
)

// NewObsRecorder returns a recorder publishing into reg (nil selects the
// process-wide default registry). Wire it via Options.Recorder and
// ControlOptions.Recorder.
func NewObsRecorder(reg *ObsRegistry) *ObsRecorder { return obs.NewRecorder(reg) }

// DefaultObsRegistry returns the process-wide registry the CLI's -stats-out
// export writes.
func DefaultObsRegistry() *ObsRegistry { return obs.Default() }

// Durable-state errors, matchable with errors.Is.
var (
	// ErrJournalExists means NewControlJournal found a journal already at
	// the path; OverwriteControlJournal replaces it deliberately.
	ErrJournalExists = ctrl.ErrJournalExists
	// ErrJournalCorrupt means a journal holds damage somewhere other than
	// its final record — not the torn tail of a crash, so the log cannot
	// be trusted for recovery.
	ErrJournalCorrupt = durable.ErrCorrupt
)

// NewControlJournal creates a write-ahead journal at path, refusing with
// ErrJournalExists if a file is already there — a prior run's journal is
// the only record of what was executed and must not be clobbered
// silently.
func NewControlJournal(path string) (*ControlJournal, error) { return ctrl.NewJournal(path) }

// OverwriteControlJournal creates a journal at path, replacing any
// existing file — the explicit opt-in NewControlJournal refuses to
// perform silently.
func OverwriteControlJournal(path string) (*ControlJournal, error) {
	return ctrl.NewJournalOverwrite(path)
}
