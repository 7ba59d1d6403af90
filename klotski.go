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
// The gen-layer entry points (BuildRegion, HGRIDScenario, ForkliftScenario,
// DMAGScenario, Suite) synthesize Meta-style regions and the paper's three
// production migration types; Suite("A".."E", "E-DMAG", "E-SSW") builds the
// Table-3 evaluation cases at any scale. NPD documents (LoadNPD,
// RunPipeline) drive the same machinery declaratively, and the simulator
// (NewExecutor) replays plans with asynchronous drains at forecast demand;
// faults are the World's, driven by the control loop (RunControlLoop).
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
	// Circuit is a link between two switches with capacity and routing metric.
	Circuit = topo.Circuit
	// View is a mutable activity overlay used to evaluate hypothetical states.
	View = topo.View
	// Role identifies a switch's layer (RSW … EBB).
	Role = topo.Role
	// SwitchID indexes switches within a topology.
	SwitchID = topo.SwitchID
	// CircuitID indexes circuits within a topology.
	CircuitID = topo.CircuitID
	// TopologyStats summarizes a topology or view.
	TopologyStats = topo.Stats
)

// Switch roles, bottom-up through the DCN (paper §2.1).
const (
	RoleRSW  = topo.RoleRSW
	RoleFSW  = topo.RoleFSW
	RoleSSW  = topo.RoleSSW
	RoleFADU = topo.RoleFADU
	RoleFAUU = topo.RoleFAUU
	RoleMA   = topo.RoleMA
	RoleEB   = topo.RoleEB
	RoleDR   = topo.RoleDR
	RoleEBB  = topo.RoleEBB
)

// NewTopology returns an empty named topology.
func NewTopology(name string) *Topology { return topo.New(name) }

// MergeTopologies combines two universes into one (prefixing names),
// returning the merged topology and the ID offsets applied to b's switches
// and circuits. Used to plan multi-region migrations jointly (§2.2).
func MergeTopologies(name, prefixA string, a *Topology, prefixB string, b *Topology) (*Topology, SwitchID, CircuitID) {
	return topo.Merge(name, prefixA, a, prefixB, b)
}

// ParseRole converts a role name such as "SSW" back to a Role.
func ParseRole(s string) (Role, error) { return topo.ParseRole(s) }

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
	// OpType is the drain/undrain direction of an action.
	OpType = migration.OpType
	// TaskStats summarizes a task's scale (Table 1 columns).
	TaskStats = migration.TaskStats
)

// Operation directions.
const (
	Drain   = migration.Drain
	Undrain = migration.Undrain
)

// Reblock merges or splits a task's operation blocks by the given factor
// (Fig. 11's organization-policy sweep).
func Reblock(t *Task, factor float64) (*Task, error) { return migration.Reblock(t, factor) }

// SymmetryGranularity re-blocks a task at strict symmetry-block
// granularity — the Janus baseline's granularity and the "w/o OB" ablation.
func SymmetryGranularity(t *Task) *Task { return migration.SymmetryGranularity(t) }

// StrictSymmetryBlocks partitions switches into Janus-style symmetry
// blocks: equivalent iff they share role, generation, and exact
// (neighbor, capacity) multisets.
func StrictSymmetryBlocks(t *Topology, switches []SwitchID) [][]SwitchID {
	return migration.StrictSymmetryBlocks(t, switches)
}

// Planners.
type (
	// Options parameterizes planning (θ, α, ablations, budgets, replanning).
	Options = core.Options
	// Plan is an ordered, safe, minimum-cost migration plan.
	Plan = core.Plan
	// PlanRun is a maximal same-type subsequence of a plan.
	PlanRun = core.Run
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
	// ErrAudit means the planner's output failed the independent
	// post-planning audit — a planner bug caught before the plan could
	// reach an operator.
	ErrAudit = core.ErrAudit
)

// NoLast marks "no action executed yet" in sequence costs and lower bounds.
const NoLast = core.NoLast

// NewBoundEngine builds a lower-bound engine matched to the task's action
// structure (per-type block totals, unit costs, α). Assign it to
// Options.Bound; the same engine may be shared across successive planner
// runs over the same structure — a drift replan with changed demands keeps
// the structural cuts and re-proves the rest — and across planner kinds
// (A* and DP runs feed the same cut store). Not safe for concurrent
// planner runs.
func NewBoundEngine(task *Task, opts Options) *BoundEngine {
	return core.NewBoundEngine(task, opts)
}

// CompletionLowerBound returns an admissible lower bound on the cost to
// finish the migration from the state described by per-type finished
// counts: the capped-run relaxation of Eq. 1 that ignores safety
// constraints. It never exceeds the true optimal completion cost, so it
// anchors certified optimality gaps for external incumbents (e.g. the
// control loop's remaining-suffix cost).
func CompletionLowerBound(task *Task, counts []int, last ActionType, alpha float64, maxRun int) float64 {
	return core.CompletionLowerBound(task, counts, last, alpha, maxRun)
}

// WorkersAdaptive is the lowest value Options.Workers accepts.
//
// Deprecated: Options.Workers is ignored; the audit replays on one lane.
const WorkersAdaptive = core.WorkersAdaptive

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
	// AuditStep records one boundary-state check of an audit replay.
	AuditStep = audit.Step
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

// CheckState verifies a single network state given per-type progress counts.
func CheckState(task *Task, counts []int, opts Options) error {
	return core.CheckState(task, counts, opts)
}

// SequenceCost computes the generalized cost (Eq. 1 + §5) of a block
// sequence.
func SequenceCost(task *Task, seq []int, alpha float64, initialLast ActionType) float64 {
	return core.SequenceCost(task, seq, alpha, initialLast)
}

// SequenceCostCapped is SequenceCost under Options.MaxRunLength semantics
// (runs force-split every maxRun actions).
func SequenceCostCapped(task *Task, seq []int, alpha float64, initialLast ActionType, maxRun, initialRun int) float64 {
	return core.SequenceCostCapped(task, seq, alpha, initialLast, maxRun, initialRun)
}

// RunsOf groups a block sequence into runs, splitting same-type runs every
// maxRun actions when maxRun > 0.
func RunsOf(task *Task, seq []int, maxRun int) []PlanRun {
	return core.RunsOf(task, seq, maxRun)
}

// Routing / safety evaluation.
type (
	// Evaluator places traffic with ECMP and checks safety constraints.
	Evaluator = routing.Evaluator
	// CheckOpts parameterizes a safety check (θ, funneling headroom).
	CheckOpts = routing.CheckOpts
	// Violation describes a constraint failure.
	Violation = routing.Violation
	// EvalResult summarizes a full traffic placement.
	EvalResult = routing.Result
	// SplitMode selects ECMP or capacity-weighted (WCMP) traffic splitting.
	SplitMode = routing.SplitMode
	// PathDAG is the ECMP forwarding structure of one (src, dst) pair,
	// from Evaluator.Trace.
	PathDAG = routing.PathDAG
)

// Traffic-splitting policies. SplitCapacityWeighted models the temporary
// routing configurations of paper §7.1 for asymmetric parallel paths.
const (
	SplitEqual            = routing.SplitEqual
	SplitCapacityWeighted = routing.SplitCapacityWeighted
)

// NewEvaluator returns a routing evaluator for views over t.
func NewEvaluator(t *Topology) *Evaluator { return routing.NewEvaluator(t) }

// Generators and the Table-3 suite.
type (
	// RegionParams describes a Meta-style region to synthesize.
	RegionParams = gen.RegionParams
	// FabricParams describes one building's fabric.
	FabricParams = gen.FabricParams
	// HGRIDParams describes the fabric-aggregation layer.
	HGRIDParams = gen.HGRIDParams
	// Region is a built topology plus structural references.
	Region = gen.Region
	// Scenario is a ready-to-plan migration over a generated region.
	Scenario = gen.Scenario
	// DemandSpec parameterizes synthetic demand generation.
	DemandSpec = gen.DemandSpec
	// HGRIDScenarioParams parameterizes the HGRID V1→V2 migration.
	HGRIDScenarioParams = gen.HGRIDScenarioParams
	// ForkliftParams parameterizes the SSW forklift migration.
	ForkliftParams = gen.ForkliftParams
	// DMAGParams parameterizes the DMAG layer-insertion migration.
	DMAGParams = gen.DMAGParams
	// JointParams parameterizes a joint two-region migration.
	JointParams = gen.JointParams
)

// BuildRegion constructs a generation-1 region topology.
func BuildRegion(p RegionParams) *Region { return gen.BuildRegion(p) }

// HGRIDScenario builds an HGRID V1→V2 migration task (paper §2.4, Fig. 3a).
func HGRIDScenario(name string, p HGRIDScenarioParams) (*Scenario, error) {
	return gen.HGRIDScenario(name, p)
}

// ForkliftScenario builds an SSW forklift migration task (Fig. 3b).
func ForkliftScenario(name string, p ForkliftParams) (*Scenario, error) {
	return gen.ForkliftScenario(name, p)
}

// DMAGScenario builds a DMAG layer-insertion migration task (Fig. 3c).
func DMAGScenario(name string, p DMAGParams) (*Scenario, error) {
	return gen.DMAGScenario(name, p)
}

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
	// PlanPhase is one ordered phase of a plan document.
	PlanPhase = npd.Phase
	// PipelineConfig parameterizes a pipeline run.
	PipelineConfig = pipeline.Config
	// PipelineResult is the output of a pipeline run.
	PipelineResult = pipeline.Result
	// PlannerName selects the pipeline's planning algorithm.
	PlannerName = pipeline.Planner
)

// Pipeline planner names.
const (
	PlannerAStar = pipeline.PlannerAStar
	PlannerDP    = pipeline.PlannerDP
	PlannerMRC   = pipeline.PlannerMRC
	PlannerJanus = pipeline.PlannerJanus
)

// LoadNPD reads and validates an NPD document from JSON.
func LoadNPD(r io.Reader) (*NPDDocument, error) { return npd.Decode(r) }

// RunPipeline executes the EDP-Lite pipeline on an NPD document: build the
// scenario, plan, audit, and emit ordered topology phases.
func RunPipeline(doc *NPDDocument, cfg PipelineConfig) (*PipelineResult, error) {
	return pipeline.Run(doc, cfg)
}

// RunPipelineContext is RunPipeline with cooperative cancellation threaded
// through to the planner. To plan under demand growth, give the task a
// forecast (Task.WithForecast) and call RunPipelineTaskContext.
func RunPipelineContext(ctx context.Context, doc *NPDDocument, cfg PipelineConfig) (*PipelineResult, error) {
	return pipeline.RunContext(ctx, doc, cfg)
}

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

// ReplanAfterOutageContext is ReplanAfterOutage with cooperative
// cancellation.
func ReplanAfterOutageContext(ctx context.Context, task *Task, executed []int, down []SwitchID, cfg PipelineConfig) (*Plan, error) {
	return pipeline.ReplanAfterOutageContext(ctx, task, executed, down, cfg)
}

// BuildPlanDocument converts a plan into its ordered-phases document.
func BuildPlanDocument(task *Task, plan *Plan, opts Options) (*PlanDocument, error) {
	return npd.BuildPlanDocument(task, plan, opts)
}

// WriteTimeline renders a plan document as a phase-per-line text timeline
// with utilization bars.
func WriteTimeline(w io.Writer, doc *PlanDocument) error { return report.Timeline(w, doc) }

// WriteMargins renders the per-phase safety margins and flags the tightest
// phase.
func WriteMargins(w io.Writer, doc *PlanDocument) error { return report.Margins(w, doc) }

// Execution simulation.
type (
	// SimExecutor replays plans against the routing model.
	SimExecutor = sim.Executor
	// SimOptions parameterizes a simulation (bound, split, asynchrony).
	SimOptions = sim.Options
	// SimReport summarizes an execution.
	SimReport = sim.Report
	// SimCampaignReport aggregates a Monte Carlo asynchrony campaign.
	SimCampaignReport = sim.CampaignReport
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
	// Fault is one scheduled fault: switch outage, circuit flap, demand
	// surge, or transient action failure.
	Fault = sim.Fault
	// FaultKind enumerates the injectable fault classes.
	FaultKind = sim.FaultKind
	// FaultSchedule is a fault train fired as execution progresses.
	FaultSchedule = sim.Schedule
	// FaultScheduleOptions parameterizes RandomFaultSchedule.
	FaultScheduleOptions = sim.ScheduleOptions
	// World is the live network a controller drives: real topology, real
	// demand, and a fault schedule the plan's model may drift from.
	World = sim.World
)

// Injectable fault classes.
const (
	FaultSwitchDown  = sim.FaultSwitchDown
	FaultCircuitFlap = sim.FaultCircuitFlap
	FaultSurge       = sim.FaultSurge
	FaultTransient   = sim.FaultTransient

	// Telemetry faults degrade the controller's demand-observation channel
	// without touching the network itself.
	FaultTelemetryStale   = sim.FaultTelemetryStale
	FaultTelemetryDrop    = sim.FaultTelemetryDrop
	FaultTelemetryCorrupt = sim.FaultTelemetryCorrupt
)

// ErrTransient marks an action failure expected to clear on retry,
// matchable with errors.Is.
var ErrTransient = sim.ErrTransient

// ErrTelemetry marks a failed demand observation (dropped collector),
// matchable with errors.Is.
var ErrTelemetry = sim.ErrTelemetry

// RandomFaultSchedule draws a seeded fault train targeting only equipment
// the migration does not operate and that carries no demand endpoint.
func RandomFaultSchedule(task *Task, seed int64, opts FaultScheduleOptions) FaultSchedule {
	return sim.RandomSchedule(task, seed, opts)
}

// NewWorld builds a live-network world over the task's initial topology
// and demands, with the given fault schedule.
func NewWorld(task *Task, schedule FaultSchedule, seed int64) *World {
	return sim.NewWorld(task, schedule, seed)
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
	// JournalEntry is one journal record (begin, done, or replan).
	JournalEntry = ctrl.Entry
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
// engine, the engines sharing structural cuts through one cut store. Plans
// are byte-identical either way. Set ChaosCampaignOptions.Pool to also
// admit each seed through a shared admission pool. Every run starts from
// the plan of the untouched task: set Run.Plan to the audited plan
// RunPipeline returned and the campaign does not plan it again; otherwise
// the campaign plans it once. Run.Plan is ignored unless its audit passed
// from no executed block and it covers every action.
func ChaosCampaign(ctx context.Context, task *Task, opts ChaosCampaignOptions) (*ChaosCampaignReport, error) {
	return ctrl.Campaign(ctx, task, opts)
}

// Fleet-scale planning: a process-wide admission pool shared by concurrent
// plans, with priority preemption.
type (
	// WorkerPool is the shared admission pool. A caller registers a
	// PoolClient before it plans and closes it after; the pool decides only
	// when a plan may run, never what it computes, so every plan stays
	// byte-identical to its unpooled result at any pool size or preemption
	// point.
	WorkerPool = sched.Pool
	// PoolClient is one plan's admission on the pool.
	PoolClient = sched.Client
	// PoolClientOptions sets a registration's priority and minimum share.
	PoolClientOptions = sched.ClientOptions
	// FleetMember is one fabric's planning job in a fleet run.
	FleetMember = ctrl.FleetMember
	// FleetOptions parameterizes a fleet run.
	FleetOptions = ctrl.FleetOptions
	// FleetReport aggregates a fleet run.
	FleetReport = ctrl.FleetReport
	// FleetMemberReport is one fleet member's outcome.
	FleetMemberReport = ctrl.FleetMemberReport
	// FleetPlanner selects a fleet member's planning algorithm.
	FleetPlanner = ctrl.Planner
	// BoundStore shares structural lower-bound cuts across engines (and
	// fleet members) planning the same fabric structure; see
	// BoundEngine.Attach.
	BoundStore = bound.Store
)

// Fleet planner names (the checkpoint-resumable core planners).
const (
	FleetPlannerAStar = ctrl.PlannerAStar
	FleetPlannerDP    = ctrl.PlannerDP
)

// NewWorkerPool returns a shared admission pool with the given worker
// budget (0 selects GOMAXPROCS). Close it when the fleet is done.
func NewWorkerPool(workers int, rec *ObsRecorder) *WorkerPool {
	return sched.NewPool(workers, rec)
}

// PlanFleet plans every member concurrently under the shared pool with
// admission control, cross-member structural-cut sharing, and priority
// preemption (preempted members checkpoint and resume byte-identically).
func PlanFleet(ctx context.Context, members []FleetMember, opts FleetOptions) (*FleetReport, error) {
	return ctrl.Fleet(ctx, members, opts)
}

// NewBoundStore returns an empty cross-plan structural-cut store; attach
// it to engines via BoundEngine.Attach (PlanFleet wires one automatically
// unless FleetOptions.NoSharedCuts is set).
func NewBoundStore() *BoundStore { return bound.NewStore() }

// Observability: a declared table of instruments, a process-wide registry
// with expvar and JSON-snapshot export, ring-buffered span traces, and the
// nil-safe Recorder the planners accept via Options.Recorder.
type (
	// ObsRecorder is the typed hot-path recorder; a nil *ObsRecorder is
	// the no-op default.
	ObsRecorder = obs.Recorder
	// ObsRegistry holds one of each declared instrument (counters, gauges,
	// histograms, derived values) and the trace streams.
	ObsRegistry = obs.Registry
	// ObsSnapshot is a point-in-time JSON-marshalable registry export.
	ObsSnapshot = obs.Snapshot
)

// NewObsRecorder returns a recorder publishing into reg (nil selects the
// process-wide default registry). Wire it via Options.Recorder and
// ControlOptions.Recorder.
func NewObsRecorder(reg *ObsRegistry) *ObsRecorder { return obs.NewRecorder(reg) }

// NewObsRegistry returns an empty observability registry.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// DefaultObsRegistry returns the process-wide registry used by the CLI's
// -stats-out and -debug-addr exports.
func DefaultObsRegistry() *ObsRegistry { return obs.Default() }

// Durable-state errors, matchable with errors.Is.
var (
	// ErrJournalExists means NewControlJournal found a journal already at
	// the path; use OverwriteControlJournal or OpenControlJournal.
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

// OpenControlJournal opens an existing journal for crash recovery: replay
// its committed prefix, then append.
func OpenControlJournal(path string) (*ControlJournal, error) { return ctrl.OpenJournal(path) }

// ReadControlJournal reads a journal's entries, tolerating a damaged
// final record (crash mid-append) but failing with ErrJournalCorrupt on
// damage anywhere else.
func ReadControlJournal(path string) ([]JournalEntry, error) { return ctrl.ReadJournal(path) }
