package core

import (
	"errors"

	"klotski/internal/audit"
	"klotski/internal/migration"
)

// ErrAudit means the planner produced a sequence that the independent
// post-planning audit rejected — a planner bug (most likely in a fast
// path: the satisfiability cache or the evaluator's retained state),
// caught before the plan could reach an operator.
var ErrAudit = errors.New("core: plan failed independent audit")

// auditConfig maps the planner options' constraint set and executed
// blocks onto the independent auditor's configuration. The planner's own
// fast-path state (its caches, its shared Evaluator) deliberately does not
// cross this boundary: the auditor builds all of its state from the task
// alone, and replays Executed through its own run loop.
func auditConfig(opts *Options) audit.Config {
	return audit.Config{
		Theta:        opts.Theta,
		Split:        opts.Split,
		FunnelFactor: opts.FunnelFactor,
		MaxRunLength: opts.MaxRunLength,
		SpaceBudget:  opts.SpaceBudget,
		Executed:     opts.Executed,
		Recorder:     opts.Recorder,
	}
}

// AuditSequence replays seq against the independent verifier of
// internal/audit, honoring the planning options' constraint set (θ, split
// mode, funneling, run cap, space budget), from the state after
// opts.Executed. It returns the structured report; an error only signals
// malformed inputs, not a failed audit.
func AuditSequence(task *migration.Task, seq []int, opts Options, freeOrder bool) (*audit.Report, error) {
	cfg := auditConfig(&opts)
	cfg.FreeOrder = freeOrder
	return audit.Verify(task, seq, cfg)
}

// AuditPartial audits a safe partial sequence — a checkpoint's prefix —
// where stopping short of the full migration is expected: the partial's
// endpoint is checked as a final observable state, but the missing
// remainder is not an error.
func AuditPartial(task *migration.Task, seq []int, opts Options, freeOrder bool) (*audit.Report, error) {
	cfg := auditConfig(&opts)
	cfg.FreeOrder = freeOrder
	cfg.AllowPartial = true
	return audit.Verify(task, seq, cfg)
}

// planHook, when set, is called with the space of every plan that reaches
// finishPlan, before the audit. Tests set it to read what the search left in
// the space's lane; it is nil otherwise.
var planHook func(sp *space)

// finishPlan runs the opt-out post-planning audit on a freshly
// reconstructed plan. Every planner success path funnels through here, so
// resumed runs (ResumePlan re-enters the same paths) are covered too. The
// audit replays the sequence on fresh views with fresh evaluators, sharing
// nothing with the search that produced it; a failure turns the "success"
// into ErrAudit — a wrong plan must never look like a right one.
func (sp *space) finishPlan(p *Plan) (*Plan, error) {
	if planHook != nil {
		planHook(sp)
	}
	// A completed run's optimal cost is the incumbent the next run over the
	// same bound problem prunes against. Interrupted and infeasible runs
	// never reach here and seal nothing.
	if sp.bd != nil {
		sp.bd.Seal(p.Cost)
	}
	if sp.opts.SkipAudit {
		return p, nil
	}
	span := sp.rec.Span("audit.verify")
	rep, err := AuditSequence(sp.task, p.Sequence, sp.opts, false)
	span.End()
	if err != nil {
		return nil, err
	}
	p.Audit = rep
	rep.Gap = p.Metrics.OptimalityGap
	if !rep.Passed {
		return nil, planErrf(ErrAudit, "%s", rep.Reason)
	}
	return p, nil
}
