// Package pipeline implements the EDP-Lite migration pipeline (paper §5)
// and the operational practices around it from the deployment section (§7):
//
//   - end-to-end planning: NPD document → topology/task → planner → audited
//     plan → ordered topology phases;
//   - demand-forecast integration (§7.1): plans are re-verified against
//     forecasted demand at every step and re-planned when growth breaks
//     them;
//   - replanning after partial execution, demand shifts, or out-of-band
//     equipment outages (§7.2 "failures during operation duration" and
//     "simultaneous operations");
//   - independent plan audits before anything is handed to operators.
package pipeline

import (
	"cmp"
	"context"
	"fmt"

	"klotski/internal/baseline"
	"klotski/internal/core"
	"klotski/internal/demand"
	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/npd"
	"klotski/internal/sim"
	"klotski/internal/topo"
)

// Planner selects the planning algorithm.
type Planner string

// Available planners. The baselines are exposed for evaluation runs.
const (
	PlannerAStar Planner = "astar"
	PlannerDP    Planner = "dp"
	PlannerMRC   Planner = "mrc"
	PlannerJanus Planner = "janus"
)

// Plan dispatches to the selected planning algorithm.
func (p Planner) Plan(task *migration.Task, opts core.Options) (*core.Plan, error) {
	return p.PlanContext(context.Background(), task, opts)
}

// PlanContext dispatches to the selected planning algorithm with
// cooperative cancellation. The core planners additionally return a
// resumable *core.Interrupted on budget exhaustion or cancellation.
func (p Planner) PlanContext(ctx context.Context, task *migration.Task, opts core.Options) (*core.Plan, error) {
	switch p {
	case PlannerAStar, "":
		return core.PlanAStarContext(ctx, task, opts)
	case PlannerDP:
		return core.PlanDPContext(ctx, task, opts)
	case PlannerMRC:
		return baseline.PlanMRCContext(ctx, task, opts)
	case PlannerJanus:
		return baseline.PlanJanusContext(ctx, task, opts)
	}
	return nil, fmt.Errorf("pipeline: unknown planner %q", p)
}

// Resumable reports whether p names a planner that checkpoints and resumes
// (core.Resume): the default, A* and DP, the ones RunLegs in ctrl runs.
func (p Planner) Resumable() bool {
	return p == "" || p == PlannerAStar || p == PlannerDP
}

// FreeOrder reports whether p is an evaluation baseline, whose plans are
// audited free-order: they are not bound to canonical within-type order and
// ignore Options.MaxRunLength.
func (p Planner) FreeOrder() bool {
	return p == PlannerMRC || p == PlannerJanus
}

// planFrom plans the remainder of a migration after the executed blocks,
// listed in the order they were operated. The core planners resume from
// per-type counts, which name exactly the executed set because their plans
// keep canonical within-type order. A baseline's plan does not, so the
// baselines resume from the blocks themselves.
func (p Planner) planFrom(ctx context.Context, task *migration.Task, executed []int, opts core.Options) (*core.Plan, error) {
	switch p {
	case PlannerMRC:
		return baseline.PlanMRCFrom(ctx, task, executed, opts)
	case PlannerJanus:
		return baseline.PlanJanusFrom(ctx, task, executed, opts)
	}
	opts.InitialCounts = countsOf(task, executed)
	opts.InitialLast = core.NoLast
	if len(executed) > 0 {
		opts.InitialLast = task.Blocks[executed[len(executed)-1]].Type
	}
	return p.PlanContext(ctx, task, opts)
}

// Config parameterizes a pipeline run.
type Config struct {
	Planner Planner
	Options core.Options

	// Forecast, when non-zero, is the organic demand growth per completed
	// migration step (§7.1). The pipeline verifies the plan against grown
	// demand at every step and re-plans from the first step where growth
	// makes the remainder unsafe.
	Forecast demand.Forecast

	// CampaignSeeds, when > 0, replays the audited plan that many times
	// with randomized intra-run asynchrony (worst-case circuit-level
	// drains) and attaches the transient-exposure distribution to the
	// result — the funneling risk report of §2.2/§7.2.
	CampaignSeeds int
}

// Result is the output of a pipeline run.
type Result struct {
	Scenario *gen.Scenario
	Task     *migration.Task
	Plan     *core.Plan
	Document *npd.PlanDocument

	// Replans counts how many times forecast integration had to re-plan.
	Replans int

	// Campaign is the transient-exposure distribution when
	// Config.CampaignSeeds > 0.
	Campaign *sim.CampaignReport
}

// Run executes the full pipeline on an NPD document with a migration part.
func Run(doc *npd.Document, cfg Config) (*Result, error) {
	return RunContext(context.Background(), doc, cfg)
}

// RunContext is Run with cooperative cancellation threaded through to the
// planner (and any forecast-driven replans).
func RunContext(ctx context.Context, doc *npd.Document, cfg Config) (*Result, error) {
	task, scenario, err := doc.Task()
	if err != nil {
		return nil, err
	}
	res, err := RunTaskContext(ctx, task, cfg)
	if err != nil {
		return nil, err
	}
	res.Scenario = scenario
	return res, nil
}

// RunTask executes the pipeline on an already-built migration task.
func RunTask(task *migration.Task, cfg Config) (*Result, error) {
	return RunTaskContext(context.Background(), task, cfg)
}

// RunTaskContext is RunTask with cooperative cancellation.
func RunTaskContext(ctx context.Context, task *migration.Task, cfg Config) (*Result, error) {
	rec := cfg.Options.Recorder
	planSpan := rec.Span("pipeline.plan")
	plan, replans, err := planWithForecast(ctx, task, cfg)
	planSpan.End()
	if err != nil {
		return nil, err
	}
	auditSpan := rec.Span("pipeline.audit")
	err = audit(task, plan, cfg)
	auditSpan.End()
	if err != nil {
		return nil, fmt.Errorf("pipeline: plan failed audit: %w", err)
	}
	docPlan, err := npd.BuildPlanDocument(task, plan, cfg.Options)
	if err != nil {
		return nil, err
	}
	res := &Result{Task: task, Plan: plan, Document: docPlan, Replans: replans}
	if cfg.CampaignSeeds > 0 {
		// The plan's task carries the forecast it was planned under, so the
		// replay sees the demand each state will carry.
		res.Campaign, err = sim.NewExecutor(plan.Task).Campaign(plan.Sequence, sim.Options{
			Theta: cfg.Options.Theta,
			Split: cfg.Options.Split,
		}, cfg.CampaignSeeds)
		if err != nil {
			return nil, fmt.Errorf("pipeline: funneling campaign: %w", err)
		}
	}
	return res, nil
}

// planWithForecast plans the task under demand growth (§7.1). The planners
// sample the task's demand forecast at every probed state's horizon
// (migration.Task.Forecast), so the plan is forecast-safe by construction;
// the walk below remains as an independent safety net. It audits the whole
// sequence against the forecast and re-plans the remainder from the audit's
// first failing step. Every replan lengthens the executed prefix, so the
// loop ends.
func planWithForecast(ctx context.Context, task *migration.Task, cfg Config) (*core.Plan, int, error) {
	if cfg.Forecast.GrowthPerStep == 0 {
		plan, err := cfg.Planner.PlanContext(ctx, task, cfg.Options)
		return plan, 0, err
	}

	// Time-indexed demand: every boundary check — the planners' and the
	// audit's — uses the forecast sampled at the checked state's
	// finished-action count.
	ftask := task.WithForecast(cfg.Forecast)
	plan, err := cfg.Planner.PlanContext(ctx, ftask, cfg.Options)
	if err != nil {
		return nil, 0, err
	}

	// The audit starts from the initial state: it always checks the state it
	// starts from, and a prefix that ends mid-run is not an observed state.
	opts := cfg.Options
	opts.InitialCounts, opts.InitialLast = nil, core.NoLast
	var executed []int
	for replans := 0; ; replans++ {
		full := append(append([]int(nil), executed...), plan.Sequence...)
		rep := plan.Audit
		if replans > 0 || rep == nil {
			if rep, err = core.AuditSequence(ftask, full, opts, cfg.Planner.FreeOrder()); err != nil {
				return nil, replans, err
			}
		}
		if rep.Passed {
			// Runs and cost follow the run cap as the planner's own do: the
			// core planners split runs at the cap, the baselines ignore it.
			maxRun := cfg.Options.MaxRunLength
			if cfg.Planner.FreeOrder() {
				maxRun = 0
			}
			return &core.Plan{
				Task:     ftask,
				Sequence: full,
				Runs:     core.RunsOf(ftask, full, maxRun),
				Cost:     core.SequenceCostCapped(ftask, full, cfg.Options.Alpha, core.NoLast, maxRun, 0),
				Metrics:  plan.Metrics,
				Audit:    rep,
			}, replans, nil
		}
		broken := min(rep.FailStep, len(full)-1)
		if broken <= len(executed) {
			cause := core.ErrAudit
			if n := len(rep.Steps); n > 0 && !rep.Steps[n-1].OK {
				cause = core.ErrInfeasible
			}
			return nil, replans, fmt.Errorf("pipeline: %s plan after %d executed steps fails under forecast: %w: step %d: %s",
				cmp.Or(cfg.Planner, PlannerAStar), len(executed), cause, rep.FailStep, rep.Reason)
		}
		// Execute up to the step the audit failed at, then re-plan the
		// remainder. The counts are absolute, so the replan's boundary
		// checks keep sampling the forecast at global horizons.
		executed = full[:broken]
		plan, err = cfg.Planner.planFrom(ctx, ftask, executed, cfg.Options)
		if err != nil {
			return nil, replans + 1, fmt.Errorf("pipeline: replanning under forecast after %d steps: %w",
				len(executed), err)
		}
	}
}

func countsOf(task *migration.Task, seq []int) []int {
	counts := make([]int, task.NumTypes())
	for _, id := range seq {
		counts[task.Blocks[id].Type]++
	}
	return counts
}

// audit independently re-verifies the plan (§7.2 "we add extra audits and
// safety checks to Klotski's plans during operation") with the pristine
// serial replay engine of internal/audit, attaching the structured report.
// Core planners arrive pre-audited (their own post-pass sets Plan.Audit),
// and so does every plan made under a forecast, audited against it by
// planWithForecast; baseline planners are not bound to canonical
// within-type order, so they verify free-order here.
func audit(task *migration.Task, plan *core.Plan, cfg Config) error {
	if plan.Audit == nil {
		opts := cfg.Options
		opts.InitialCounts = nil
		opts.InitialLast = core.NoLast
		rep, err := core.AuditSequence(task, plan.Sequence, opts, cfg.Planner.FreeOrder())
		if err != nil {
			return err
		}
		plan.Audit = rep
	}
	if !plan.Audit.Passed {
		return fmt.Errorf("%w: step %d: %s", core.ErrAudit, plan.Audit.FailStep, plan.Audit.Reason)
	}
	return nil
}

// Replan continues a partially executed migration: executed lists the block
// IDs already operated (in order); newDemands, when non-nil, replaces the
// task's demand set (demand shifted mid-migration, §7.1–7.2).
func Replan(task *migration.Task, executed []int, newDemands *demand.Set, cfg Config) (*core.Plan, error) {
	return ReplanContext(context.Background(), task, executed, newDemands, cfg)
}

// ReplanContext is Replan with cooperative cancellation.
func ReplanContext(ctx context.Context, task *migration.Task, executed []int, newDemands *demand.Set, cfg Config) (*core.Plan, error) {
	planTask := task
	if newDemands != nil {
		planTask = task.WithDemands(*newDemands)
	}
	if cfg.Forecast.GrowthPerStep != 0 && planTask.Forecast.GrowthPerStep == 0 {
		// Carry the pipeline's growth model into the replan so its boundary
		// checks sample demand at each state's (absolute) horizon too.
		planTask = planTask.WithForecast(cfg.Forecast)
	}
	return cfg.Planner.planFrom(ctx, planTask, executed, cfg.Options)
}

// ReplanAfterOutage continues a partially executed migration after
// out-of-band maintenance or failures took switches down (§7.2
// "simultaneous operations": firmware upgrades and device rebuilds are not
// controlled by Klotski but change the real-time topology). A down switch
// operated by the migration is a conflict — except when its operating
// block is a drain that has already been executed: the switch was already
// taken out of service by the plan, so the outage changes nothing the
// remaining steps depend on.
func ReplanAfterOutage(task *migration.Task, executed []int, down []topo.SwitchID, cfg Config) (*core.Plan, error) {
	return ReplanAfterOutageContext(context.Background(), task, executed, down, cfg)
}

// ReplanAfterOutageContext is ReplanAfterOutage with cooperative
// cancellation.
func ReplanAfterOutageContext(ctx context.Context, task *migration.Task, executed []int, down []topo.SwitchID, cfg Config) (*core.Plan, error) {
	operated := make(map[topo.SwitchID]int)
	for i := range task.Blocks {
		for _, s := range task.Blocks[i].Switches {
			operated[s] = i
		}
	}
	executedSet := make(map[int]bool, len(executed))
	for _, b := range executed {
		executedSet[b] = true
	}
	drainedByPlan := make(map[topo.SwitchID]bool)
	for _, s := range down {
		b, ok := operated[s]
		if !ok {
			continue
		}
		if executedSet[b] && task.Types[task.Blocks[b].Type].Op == migration.Drain {
			// The plan already drained this switch; it being physically
			// down is harmless to the remaining steps. The executed drain
			// keeps it inactive in every replanned state, so the base
			// topology must keep it nominally active for task validation.
			drainedByPlan[s] = true
			continue
		}
		return nil, fmt.Errorf("pipeline: switch %q is down but operated by block %q; resolve the conflict first",
			task.Topo.Switch(s).Name, task.Blocks[b].Name)
	}
	outageTopo := task.Topo.Clone()
	for _, s := range down {
		if !drainedByPlan[s] {
			outageTopo.SetSwitchActive(s, false)
		}
	}
	outageTask := task.WithTopology(outageTopo)
	return ReplanContext(ctx, outageTask, executed, nil, cfg)
}
