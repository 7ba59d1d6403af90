package core

import (
	"context"
	"fmt"
	"slices"

	"klotski/internal/migration"
)

// Checkpoint captures the state of an interrupted planning run so it can be
// resumed without redoing completed work (the paper's §7.2 operating regime:
// planners run under a hard budget — 24 hours in production — and a budget
// overrun must not throw the search away). A* checkpoints retain the open
// list, the best-cost and closed tables, and the satisfiability cache; DP
// checkpoints retain the memo table, the predecessor table, and the cache.
//
// The exported fields describe the best partial result at interruption
// time: Partial is the canonical-order block sequence from the search's
// start state (the state after Executed) to the most advanced explored
// state (every intermediate run boundary of Partial was verified safe
// during the search), and Metrics the effort spent so far. They are
// advisory — Resume continues the exact internal search, not the Partial
// prefix.
type Checkpoint struct {
	Planner string  // "astar" or "dp"
	Partial []int   // block IDs after Executed, in execution order
	Metrics Metrics // planner effort up to the interruption

	sp     *space // the search's space: its task, options and resume basis
	resume func(context.Context, Options) (*Plan, error)
}

// Task returns the migration task the checkpointed search is planning.
func (cp *Checkpoint) Task() *migration.Task { return cp.sp.task }

// Options returns the options the checkpointed search was built from.
func (cp *Checkpoint) Options() Options { return cp.sp.opts }

// Executed returns the blocks operated before the search's start state
// (Options.Executed); Partial continues after them.
func (cp *Checkpoint) Executed() []int { return cp.sp.opts.Executed }

// SafePartial returns the longest prefix of Partial whose paused endpoint
// satisfies the constraints (CheckState) under the search's own options,
// and that prefix cut into runs the way a plan resumed after Executed is:
// under MaxRunLength the first run finishes the chunk in progress. The
// search verifies states only at run boundaries — A* pushes run extensions
// unchecked, and Partial reaches the most advanced pushed state — but an
// operator who executes the partial sequence and pauses there makes its
// endpoint an observable network state, counted after Executed. The
// search's bound engine is not consulted, so it is left as it was.
func (cp *Checkpoint) SafePartial() (seq []int, runs []Run) {
	sp := cp.sp
	opts := sp.opts
	opts.Bound = nil
	counts := CountsOf(sp.task, append(slices.Clone(opts.Executed), cp.Partial...))
	seq = cp.Partial
	for len(seq) > 0 && CheckState(sp.task, counts, opts) != nil {
		counts[sp.task.Blocks[seq[len(seq)-1]].Type]--
		seq = seq[:len(seq)-1]
	}
	return seq, sp.runs(seq)
}

// Gap returns the interrupted search's anytime optimality certificate:
// the best incumbent cost found so far (0 when no complete plan has been
// seen yet), the global lower bound proven so far, and the certified
// relative gap between them (1 when nothing is certified yet). Resume
// restores the certificate and can only tighten it.
func (cp *Checkpoint) Gap() (incumbent, lowerBound, gap float64) {
	return cp.Metrics.IncumbentCost, cp.Metrics.LowerBound, cp.Metrics.OptimalityGap
}

// Resume continues an interrupted search from its checkpoint under a fresh
// budget envelope: opts.MaxStates and opts.Timeout bound the resumed leg
// (counted from the resumption, not cumulatively), and ctx cancels it
// cooperatively. All other options are taken from the original run — they
// shaped the cached search state and cannot change mid-search. A resumed
// search continues where it stopped: A* re-expands no state; DP recomputes
// the recursion path that was in flight at the interruption (evicted, as
// its entries held no final value) while every finalized memo entry
// answers at once, and each DP leg finalizes at least one entry before its
// state budget may stop it. No satisfiability check is repeated, and the
// eventual plan is identical to what an uninterrupted run would have
// produced. Resuming may itself be interrupted again, returning a further
// *Interrupted checkpoint.
func Resume(ctx context.Context, cp *Checkpoint, opts Options) (*Plan, error) {
	if cp == nil || cp.resume == nil {
		return nil, fmt.Errorf("core: nil or non-resumable checkpoint")
	}
	return cp.resume(ctx, opts)
}

// Interrupted is the error returned when a planner stops before finding an
// optimal plan because its budget ran out or its context was cancelled. It
// wraps the reason — ErrBudget, context.Canceled, or
// context.DeadlineExceeded, matchable with errors.Is — and carries the
// checkpoint to continue from.
type Interrupted struct {
	Reason     error // ErrBudget or the context's error
	Checkpoint *Checkpoint
	Detail     string
}

func (e *Interrupted) Error() string {
	return fmt.Sprintf("core: planning interrupted (%v): %s", e.Reason, e.Detail)
}

func (e *Interrupted) Unwrap() error { return e.Reason }

// interruptErrf builds an *Interrupted for a stopped search.
func interruptErrf(reason error, cp *Checkpoint, format string, args ...any) error {
	return &Interrupted{Reason: reason, Checkpoint: cp, Detail: fmt.Sprintf(format, args...)}
}

// frontier tracks the most advanced (most finished actions) state pushed
// during a search, for checkpoint reporting.
type frontier struct {
	valid    bool
	finished int
	vecIdx   int32
	last     migration.ActionType
	tail     int
}

func (f *frontier) observe(sp *space, vecIdx int32, last migration.ActionType, tail int) {
	fin := sp.finished(vecIdx)
	if !f.valid || fin > f.finished {
		f.valid = true
		f.finished = fin
		f.vecIdx = vecIdx
		f.last = last
		f.tail = tail
	}
}

// snapshot renders the frontier as the partial sequence reaching it, using
// the predecessor table. An empty frontier (interrupted before the first
// push) yields an empty sequence.
func (f *frontier) snapshot(sp *space, prev map[int64]prevInfo) []int {
	if !f.valid {
		return nil
	}
	return sp.reconstruct(prev, f.vecIdx, f.last, f.tail)
}
