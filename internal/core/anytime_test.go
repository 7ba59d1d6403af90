package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

// resumeLadder drives an interruptible planner to completion: it starts
// with a tiny MaxStates budget, expects an *Interrupted checkpoint, and
// resumes with a doubled budget until the plan lands. It returns the final
// plan and the number of interruptions survived.
func resumeLadder(t *testing.T, plan func(context.Context, Options) (*Plan, error), opts Options, startBudget int) (*Plan, int) {
	t.Helper()
	ctx := context.Background()
	budget := startBudget
	lopts := opts
	lopts.MaxStates = budget
	p, err := plan(ctx, lopts)
	hops := 0
	for err != nil {
		var intr *Interrupted
		if !errors.As(err, &intr) {
			t.Fatalf("want *Interrupted, got %T: %v", err, err)
		}
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("interruption reason should be ErrBudget, got %v", intr.Reason)
		}
		if intr.Checkpoint == nil {
			t.Fatal("Interrupted without checkpoint")
		}
		hops++
		if hops > 64 {
			t.Fatal("resume ladder did not converge")
		}
		budget *= 2
		ropts := opts
		ropts.MaxStates = budget
		p, err = Resume(ctx, intr.Checkpoint, ropts)
	}
	return p, hops
}

// TestAnytimeResumeMatchesUninterrupted asserts the anytime contract on
// both core planners: a search interrupted by an absurdly small MaxStates
// budget and resumed (possibly many times) under doubling budgets produces
// the exact plan — cost and sequence — of an uninterrupted run.
func TestAnytimeResumeMatchesUninterrupted(t *testing.T) {
	task := bridgeTask(t, 4, 4, 100, 100, 150, 0)
	opts := Options{Alpha: 0.2}

	for _, tc := range []struct {
		name string
		plan func(context.Context, Options) (*Plan, error)
	}{
		{"astar", func(ctx context.Context, o Options) (*Plan, error) { return PlanAStarContext(ctx, task, o) }},
		{"dp", func(ctx context.Context, o Options) (*Plan, error) { return PlanDPContext(ctx, task, o) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, err := tc.plan(context.Background(), opts)
			if err != nil {
				t.Fatalf("uninterrupted plan: %v", err)
			}
			p, hops := resumeLadder(t, tc.plan, opts, 2)
			if hops == 0 {
				t.Fatal("budget of 2 states did not interrupt the search")
			}
			if math.Abs(p.Cost-ref.Cost) > 1e-9 {
				t.Fatalf("resumed cost %v != uninterrupted %v (after %d interruptions)", p.Cost, ref.Cost, hops)
			}
			if !reflect.DeepEqual(p.Sequence, ref.Sequence) {
				t.Fatalf("resumed sequence %v != uninterrupted %v", p.Sequence, ref.Sequence)
			}
			checkPlan(t, task, p, opts)
		})
	}
}

// TestAnytimeTimeoutCheckpoint asserts a 1ns timeout interrupts both core
// planners deterministically (the first budget poll trips), the error
// wraps ErrBudget, and resuming with the timeout lifted completes the
// plan.
func TestAnytimeTimeoutCheckpoint(t *testing.T) {
	task := bridgeTask(t, 3, 3, 100, 100, 150, 0)
	opts := Options{Alpha: 0.2, Timeout: time.Nanosecond}

	for _, tc := range []struct {
		name string
		plan func(context.Context, Options) (*Plan, error)
	}{
		{"astar", func(ctx context.Context, o Options) (*Plan, error) { return PlanAStarContext(ctx, task, o) }},
		{"dp", func(ctx context.Context, o Options) (*Plan, error) { return PlanDPContext(ctx, task, o) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.plan(context.Background(), opts)
			var intr *Interrupted
			if !errors.As(err, &intr) {
				t.Fatalf("want *Interrupted, got %v", err)
			}
			if !errors.Is(err, ErrBudget) {
				t.Fatalf("timeout should wrap ErrBudget, got %v", intr.Reason)
			}
			ropts := Options{Alpha: 0.2} // no timeout on the resumed leg
			p, err := Resume(context.Background(), intr.Checkpoint, ropts)
			if err != nil {
				t.Fatalf("resume after timeout: %v", err)
			}
			ref, err := PlanAStar(task, Options{Alpha: 0.2})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(p.Cost-ref.Cost) > 1e-9 {
				t.Fatalf("resumed cost %v != reference %v", p.Cost, ref.Cost)
			}
		})
	}
}

// TestAnytimeContextCancelled asserts a pre-cancelled context interrupts
// all context-aware core planners with an error matching both
// context.Canceled and carrying a resumable checkpoint.
func TestAnytimeContextCancelled(t *testing.T) {
	task := bridgeTask(t, 3, 3, 100, 100, 150, 0)
	opts := Options{Alpha: 0.2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name string
		plan func(context.Context, Options) (*Plan, error)
	}{
		{"astar", func(ctx context.Context, o Options) (*Plan, error) { return PlanAStarContext(ctx, task, o) }},
		{"dp", func(ctx context.Context, o Options) (*Plan, error) { return PlanDPContext(ctx, task, o) }},
		// Workers sizes only the audit; the name predates that.
		{"dp-parallel", func(ctx context.Context, o Options) (*Plan, error) {
			o.Workers = 2
			return PlanDPContext(ctx, task, o)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.plan(ctx, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			var intr *Interrupted
			if !errors.As(err, &intr) {
				t.Fatalf("want *Interrupted, got %T", err)
			}
			p, rerr := Resume(context.Background(), intr.Checkpoint, Options{Alpha: 0.2})
			if rerr != nil {
				t.Fatalf("resume after cancellation: %v", rerr)
			}
			checkPlan(t, task, p, Options{Alpha: 0.2})
		})
	}
}

// TestCheckpointPartialIsExecutable asserts the advisory Partial prefix in
// a checkpoint is a valid executable prefix: canonical per-type order with
// every intermediate boundary safe.
func TestCheckpointPartialIsExecutable(t *testing.T) {
	task := bridgeTask(t, 4, 4, 100, 100, 150, 0)
	opts := Options{Alpha: 0.2, MaxStates: 6}
	_, err := PlanAStarContext(context.Background(), task, opts)
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("want *Interrupted, got %v", err)
	}
	cp := intr.Checkpoint
	if len(cp.Partial) == 0 {
		t.Skip("search interrupted before any state was reached")
	}
	// Each type's subsequence must be the canonical within-type prefix —
	// the contract that lets pipeline.Replan continue from the partial.
	seen := make([]int, task.NumTypes())
	for _, id := range cp.Partial {
		ty := task.Blocks[id].Type
		if want := task.BlocksOfType(ty)[seen[ty]]; id != want {
			t.Fatalf("partial sequence %v breaks canonical order: got block %d, want %d", cp.Partial, id, want)
		}
		seen[ty]++
	}
}
