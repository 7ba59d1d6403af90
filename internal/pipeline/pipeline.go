// Package pipeline implements the EDP-Lite migration pipeline (paper §5)
// and the operational practices around it from the deployment section (§7):
//
//   - end-to-end planning: NPD document → topology/task → planner → audited
//     plan → ordered topology phases;
//   - demand-forecast integration (§7.1): the growth model rides on the
//     task (migration.Task.Forecast), so the planners and the audit check
//     every state at the demand forecast for its horizon;
//   - replanning after partial execution, demand shifts, or out-of-band
//     equipment outages (§7.2 "failures during operation duration" and
//     "simultaneous operations"), the last through one outage rule,
//     migration.Task.WithOutages;
//   - independent plan audits before anything is handed to operators.
package pipeline

import (
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

// Config parameterizes a pipeline run.
type Config struct {
	Planner Planner
	Options core.Options

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

	// Campaign is the transient-exposure distribution when
	// Config.CampaignSeeds > 0.
	Campaign *sim.CampaignReport
}

// Run executes the full pipeline on an NPD document with a migration part.
func Run(doc *npd.Document, cfg Config) (*Result, error) {
	return RunContext(context.Background(), doc, cfg)
}

// RunContext is Run with cooperative cancellation threaded through to the
// planner. The document's task carries no forecast; to plan under demand
// growth, build the task, give it one with WithForecast, and call
// RunTaskContext.
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

// RunTaskContext is RunTask with cooperative cancellation. The plan is
// made and audited against the task, under the task's forecast.
func RunTaskContext(ctx context.Context, task *migration.Task, cfg Config) (*Result, error) {
	rec := cfg.Options.Recorder
	planSpan := rec.Span("pipeline.plan")
	plan, err := cfg.Planner.PlanContext(ctx, task, cfg.Options)
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
	res := &Result{Task: task, Plan: plan, Document: docPlan}
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

// audit independently re-verifies the plan (§7.2 "we add extra audits and
// safety checks to Klotski's plans during operation") with the pristine
// serial replay engine of internal/audit, attaching the structured report.
// Core planners arrive pre-audited (their own post-pass sets Plan.Audit);
// baseline planners are not bound to canonical within-type order, so they
// verify free-order here. Either audit checks every state under the task's
// forecast, and a plan that fails it is an error wrapping core.ErrAudit
// that names the failing step.
func audit(task *migration.Task, plan *core.Plan, cfg Config) error {
	if plan.Audit == nil {
		rep, err := core.AuditSequence(task, plan.Sequence, cfg.Options, cfg.Planner.FreeOrder())
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
// task's demand set (demand shifted mid-migration, §7.1–7.2). The replan
// keeps the task's forecast, sampled at each state's absolute horizon.
func Replan(task *migration.Task, executed []int, newDemands *demand.Set, cfg Config) (*core.Plan, error) {
	return ReplanContext(context.Background(), task, executed, newDemands, cfg)
}

// ReplanContext is Replan with cooperative cancellation. The planner
// starts after the executed blocks (core.Options.Executed): A* and DP need
// them in canonical within-type order, the baselines take any order.
func ReplanContext(ctx context.Context, task *migration.Task, executed []int, newDemands *demand.Set, cfg Config) (*core.Plan, error) {
	planTask := task
	if newDemands != nil {
		planTask = task.WithDemands(*newDemands)
	}
	opts := cfg.Options
	opts.Executed = executed
	return cfg.Planner.PlanContext(ctx, planTask, opts)
}

// ReplanAfterOutage continues a partially executed migration after
// out-of-band maintenance or failures took switches down (§7.2
// "simultaneous operations"), under the outage rule of
// migration.Task.WithOutages: a down switch that the migration operates is
// a conflict, unless an executed drain already took it out of service.
func ReplanAfterOutage(task *migration.Task, executed []int, down []topo.SwitchID, cfg Config) (*core.Plan, error) {
	return ReplanAfterOutageContext(context.Background(), task, executed, down, cfg)
}

// ReplanAfterOutageContext is ReplanAfterOutage with cooperative
// cancellation.
func ReplanAfterOutageContext(ctx context.Context, task *migration.Task, executed []int, down []topo.SwitchID, cfg Config) (*core.Plan, error) {
	outageTask, err := task.WithOutages(executed, down, nil)
	if err != nil {
		return nil, err
	}
	return ReplanContext(ctx, outageTask, executed, nil, cfg)
}
