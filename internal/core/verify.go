package core

import (
	"fmt"

	"klotski/internal/migration"
)

// VerifyPlan is the independent audit of internal/audit as an error: the
// sequence must be a canonical-order permutation of the task's remaining
// blocks, and the initial state, every run boundary, and the final state
// must satisfy the demand, port, and (when configured) space constraints.
// An unsafe state fails with ErrInfeasible; a malformed sequence fails with
// a plain error.
//
// This is the "extra audits and safety checks" layer of the paper's
// deployment section (§7.2): plans are re-verified before execution and
// after any out-of-band change, independently of the planner that produced
// them.
func VerifyPlan(task *migration.Task, seq []int, opts Options) error {
	return verify(task, seq, opts, false)
}

// VerifyPlanFreeOrder is VerifyPlan on the audit's free-order replay, for
// plans that may operate same-type blocks out of canonical order (baseline
// planners are not bound by Klotski's ordering-agnostic state
// representation). The sequence must be a complete permutation of the
// task's blocks; space budgets apply, while funneling headroom and run-cap
// splits, which are defined on the canonical representation, do not.
func VerifyPlanFreeOrder(task *migration.Task, seq []int, opts Options) error {
	return verify(task, seq, opts, true)
}

// verify audits seq under opts and reads the verdict off the report: an
// unsafe state is a failed last Step, a structural fault leaves none.
func verify(task *migration.Task, seq []int, opts Options, freeOrder bool) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	rep, err := AuditSequence(task, seq, opts, freeOrder)
	if err != nil {
		return err
	}
	if rep.Passed {
		return nil
	}
	if n := len(rep.Steps); n > 0 && !rep.Steps[n-1].OK {
		return planErrf(ErrInfeasible, "%s", rep.Reason)
	}
	return fmt.Errorf("core: %s", rep.Reason)
}
