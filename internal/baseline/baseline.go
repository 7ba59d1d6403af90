// Package baseline implements the two state-of-the-art planners Klotski is
// evaluated against (paper §6.1):
//
//   - MRC: a greedy planner that, at every step, picks the feasible next
//     action maximizing the minimum residual circuit capacity, in the
//     style of the minimal-rewiring planner [37].
//   - Janus: a symmetry-based planner [4] that preprocesses the
//     feasibility of every available action combination and then
//     exhaustively traverses the pruned search space for the optimal
//     ordering. Following the paper's methodology, Janus's "superblock" is
//     defined as Klotski's operation block.
//
// Neither baseline can plan migrations that change the network's layer
// structure (the DMAG migration of §2.4): MRC's residual-capacity ranking
// and Janus's symmetry model both assume equipment is swapped in place.
// Both return core.ErrUnsupported for such tasks, which the evaluation
// renders as crosses (Fig. 9).
package baseline

import (
	"context"
	"fmt"
	"math"
	"time"

	"klotski/internal/core"
	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/routing"
)

// mrcStickiness is the same-type preference margin in residual-capacity
// units; see the candidate-scoring loop.
const mrcStickiness = 0.02

// PlanMRC plans a migration with the greedy max-min-residual-capacity
// strategy. The returned plan is safe but generally not cost-optimal
// (Fig. 8a): the greedy choice ignores run structure, so it changes action
// types more often than necessary.
func PlanMRC(task *migration.Task, opts core.Options) (*core.Plan, error) {
	return PlanMRCContext(context.Background(), task, opts)
}

// PlanMRCContext is PlanMRC with cooperative cancellation: the context and
// the Options.Timeout/MaxStates budget are checked at every greedy step,
// and overruns wrap core.ErrBudget exactly like the core planners'. It
// plans the remainder after Options.Executed, in whatever order those
// blocks were operated: MRC plans are free-order.
func PlanMRCContext(ctx context.Context, task *migration.Task, opts core.Options) (*core.Plan, error) {
	if err := checkTask(task); err != nil {
		return nil, err
	}
	last, err := executedStart(task, opts.Executed)
	if err != nil {
		return nil, err
	}
	return planMRC(ctx, task, opts.Executed, last, opts)
}

// checkTask rejects the tasks neither baseline can plan.
func checkTask(task *migration.Task) error {
	if task.TopologyChanging {
		return core.ErrUnsupported
	}
	return task.Validate()
}

// executedStart validates an executed block list and returns the type of
// its last block (core.NoLast when nothing was executed).
func executedStart(task *migration.Task, executed []int) (migration.ActionType, error) {
	seen := make([]bool, len(task.Blocks))
	for _, id := range executed {
		if id < 0 || id >= len(task.Blocks) {
			return core.NoLast, fmt.Errorf("baseline: executed prefix references invalid block %d", id)
		}
		if seen[id] {
			return core.NoLast, fmt.Errorf("baseline: executed prefix lists block %q twice", task.Blocks[id].Name)
		}
		seen[id] = true
	}
	if len(executed) == 0 {
		return core.NoLast, nil
	}
	return task.Blocks[executed[len(executed)-1]].Type, nil
}

// planMRC runs the greedy from the state after the done blocks, with
// initialLast the type of the run in progress.
func planMRC(ctx context.Context, task *migration.Task, done []int, initialLast migration.ActionType, opts core.Options) (*core.Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = start.Add(opts.Timeout)
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = 4_000_000
	}
	theta := opts.Theta
	if theta <= 0 {
		theta = 0.75
	}
	eval := opts.Evaluator
	if eval == nil {
		eval = routing.NewEvaluator(task.Topo)
	}
	rec := opts.Recorder
	span := rec.Span("mrc.plan")
	defer span.End()

	// MRC is not bound by Klotski's canonical within-type ordering: at
	// every step it evaluates every remaining block as a candidate (the
	// paper's "preprocess all available action combinations", and the main
	// reason it measures 7.1–262.6× slower than Klotski-A*).
	isDone := make([]bool, len(task.Blocks))
	view := task.Topo.NewView()
	for _, id := range done {
		isDone[id] = true
		task.Apply(view, id)
	}
	remaining := len(task.Blocks) - len(done)

	var seq []int
	metrics := core.Metrics{}
	copts := routing.CheckOpts{Theta: theta, Split: opts.Split}
	last := initialLast
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("baseline: MRC cancelled after %d steps: %w", len(seq), err)
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: MRC exceeded its time budget after %d steps, %d checks",
				core.ErrBudget, len(seq), metrics.Checks)
		}
		if metrics.StatesCreated > maxStates {
			return nil, fmt.Errorf("%w: MRC exceeded %d states after %d steps",
				core.ErrBudget, maxStates, len(seq))
		}
		// Boundary-check semantics (paper Eq. 4–6): switching action types
		// ends the current parallel run, so the current state must be safe
		// before a different-type action may start. Extending the run is
		// always allowed.
		boundaryOK := last == core.NoLast
		if !boundaryOK {
			metrics.Checks++
			checkStart := time.Now()
			boundaryOK = eval.Check(view, &task.Demands, copts).OK()
			rec.Add(obs.Checks, 1)
			rec.Observe(obs.CheckLatency, time.Since(checkStart))
		}
		bestResidual := math.Inf(-1)
		bestBlock := -1
		for blockID := range task.Blocks {
			if isDone[blockID] {
				continue
			}
			at := task.Blocks[blockID].Type
			if at != last && !boundaryOK {
				continue
			}
			task.Apply(view, blockID)
			// MRC ranks candidates by full placement statistics, so it
			// cannot use an early-exit check: every candidate costs a
			// complete evaluation. Each evaluated candidate materializes
			// one hypothetical state, which is what MaxStates bounds.
			evalStart := time.Now()
			res, viol := eval.Evaluate(view, &task.Demands, copts)
			metrics.Checks++
			metrics.StatesCreated++
			rec.Add(obs.Checks, 1)
			rec.Observe(obs.CheckLatency, time.Since(evalStart))
			rec.Add(obs.StatesCreated, 1)
			task.Revert(view, blockID)
			score := res.MinResidual
			if at == last {
				// Field crews batch same-type work: continuing the current
				// run carries a small preference over switching, breaking
				// the near-ties that otherwise make the greedy flip-flop
				// action types at every step.
				score += mrcStickiness
			}
			if viol.Kind == routing.ViolationPorts {
				// Port-overflowing states are legal mid-run but dead ends
				// for the greedy: it cannot switch action types out of
				// them. Rank them below every port-safe state.
				score -= 1e6
			}
			if res.Unreachable > 0 {
				// States that strand demands are a last resort even
				// mid-run; rank them below any routable state.
				score = -1e9 - float64(res.Unreachable)
			}
			if score > bestResidual {
				bestResidual = score
				bestBlock = blockID
			}
		}
		if bestBlock < 0 {
			return nil, core.ErrInfeasible
		}
		task.Apply(view, bestBlock)
		seq = append(seq, bestBlock)
		isDone[bestBlock] = true
		last = task.Blocks[bestBlock].Type
		remaining--
		metrics.StatesPopped++
		rec.Add(obs.StatesExpanded, 1)
	}
	// The final state ends the last run and must itself be safe.
	if viol := eval.Check(view, &task.Demands, copts); !viol.OK() {
		return nil, core.ErrInfeasible
	}
	metrics.PlanningTime = time.Since(start)
	return &core.Plan{
		Task:     task,
		Sequence: seq,
		Runs:     core.RunsOf(task, seq, 0),
		Cost:     core.SequenceCost(task, seq, opts.Alpha, initialLast),
		Metrics:  metrics,
	}, nil
}
