package core

import (
	"context"
	"fmt"
	"math"

	"klotski/internal/migration"
	"klotski/internal/obs"
)

// PlanDP finds a minimum-cost safe migration plan with the DP-based planner
// (paper §4.3, Algorithm 1).
//
// The DP state f(V, a) is the minimal cost of reaching the compact topology
// V with a last action of type a; it is computed over every vector between
// the initial and target vectors (memoized top-down, which evaluates states
// in the same dependency order as the paper's ascending-total-actions
// sweep). Unlike A*, the DP planner must materialize the entire product
// space, which is why the paper reports it 1.7–3.8× slower.
func PlanDP(task *migration.Task, opts Options) (*Plan, error) {
	return PlanDPContext(context.Background(), task, opts)
}

// PlanDPContext is PlanDP with cooperative cancellation: the context is
// polled alongside the MaxStates/Timeout budget, and on cancellation or
// budget exhaustion the sweep returns an *Interrupted error carrying a
// resumable Checkpoint (the warmed memo table and satisfiability cache)
// instead of discarding its work.
func PlanDPContext(ctx context.Context, task *migration.Task, opts Options) (*Plan, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	return planDP(ctx, task, opts)
}

// planDP is the DP planner body.
func planDP(ctx context.Context, task *migration.Task, opts Options) (*Plan, error) {
	sp, err := newSpace(task, opts)
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		sp.ctx = ctx
	}

	startIdx, _ := sp.intern(sp.initial)
	if !sp.feasible(startIdx, NoLast) {
		return nil, planErrf(ErrInfeasible, "initial network state violates constraints")
	}
	if tIdx, _ := sp.intern(sp.totals); !sp.feasible(tIdx, NoLast) {
		return nil, planErrf(ErrInfeasible, "target network state violates constraints")
	}

	d := &dpRun{
		sp:   sp,
		memo: make(map[int64]float64),
		prev: make(map[int64]prevInfo),
	}

	targetVec := append([]uint16(nil), sp.totals...)
	targetIdx, _ := sp.intern(targetVec)
	if sp.remaining(targetIdx) != 0 {
		panic("core: target vector construction error")
	}
	if targetIdx == startIdx {
		sp.incumbent, sp.lowerBound = 0, 0 // empty plan, trivially optimal
		return sp.finishPlan(&Plan{Task: task, Cost: 0, Metrics: sp.elapsedMetrics()})
	}
	d.targetIdx = targetIdx
	sp.initLowerBound(startIdx, sp.startLast, sp.startTail)
	return d.sweep()
}

type dpRun struct {
	sp        *space
	targetIdx int32
	memo      map[int64]float64
	prev      map[int64]prevInfo

	// stack holds the keys of memo entries currently being computed (the
	// recursion's in-flight path). On interruption those entries hold the
	// cycle sentinel, not a final value, and must be evicted before the
	// memo can serve as a checkpoint.
	stack []int64

	// progressed is set once the current leg has finalized a memo entry.
	// Until then the state budget cannot stop the leg: an interruption
	// evicts the in-flight path, so a leg that finalized nothing would
	// leave the next leg exactly where it began, and legs whose budget is
	// below the recursion depth would never finish. The context still
	// stops a leg at once.
	progressed bool
}

// sweep evaluates the DP at the target over every admissible last action
// and tail length, reconstructs the optimal sequence, and assembles the
// plan. It is re-entered by Resume after an interruption, at which point
// every previously finalized memo entry answers instantly.
func (d *dpRun) sweep() (*Plan, error) {
	sp := d.sp
	task := sp.task
	span := sp.rec.Span("dp.sweep")
	defer span.End()
	bestCost := math.Inf(1)
	bestLast := NoLast
	bestTail := 0
	for a := 0; a < sp.nTypes; a++ {
		if sp.totals[a] == sp.initial[a] {
			continue
		}
		for _, t := range d.tails() {
			c, err := d.f(d.targetIdx, migration.ActionType(a), t)
			if err != nil {
				return nil, d.interrupt(err)
			}
			if c < bestCost {
				bestCost = c
				bestLast = migration.ActionType(a)
				bestTail = t
			}
		}
	}
	if math.IsInf(bestCost, 1) {
		return nil, planErrf(ErrInfeasible, "DP table contains no path to target (%d states evaluated)",
			sp.metrics.StatesPopped)
	}
	seq := sp.reconstruct(d.prev, d.targetIdx, bestLast, bestTail)
	sp.rec.Add(obs.PlansCompleted, 1)
	// The DP optimum is exact: the certificate closes with gap 0.
	sp.incumbent, sp.lowerBound = bestCost, bestCost
	return sp.finishPlan(&Plan{
		Task:     task,
		Sequence: seq,
		Runs:     sp.runs(seq),
		Cost:     bestCost,
		Metrics:  sp.elapsedMetrics(),
	})
}

// interrupt evicts half-computed memo entries and packages the finalized
// DP table into a resumable checkpoint.
func (d *dpRun) interrupt(reason error) error {
	sp := d.sp
	sp.rec.Add(obs.PlansInterrupted, 1)
	for _, k := range d.stack {
		delete(d.memo, k)
	}
	d.stack = d.stack[:0]
	sp.pause()
	cp := &Checkpoint{
		Planner: "dp",
		Partial: d.frontierSnapshot(),
		Metrics: sp.elapsedMetrics(),
		sp:      sp,
	}
	cp.resume = func(ctx context.Context, opts Options) (*Plan, error) {
		sp.rebudget(ctx, opts)
		d.progressed = false
		return d.sweep()
	}
	return interruptErrf(reason, cp, "DP stopped after %d states, %d checks",
		sp.metrics.StatesCreated, sp.metrics.Checks)
}

// frontierSnapshot finds the most advanced reachable state among finalized
// memo entries and reconstructs the partial sequence leading to it.
func (d *dpRun) frontierSnapshot() []int {
	sp := d.sp
	var front frontier
	for key, c := range d.memo {
		if math.IsInf(c, 1) {
			continue
		}
		vecIdx, last, tail := sp.decodeKeyT(key)
		front.observe(sp, vecIdx, last, tail)
	}
	return front.snapshot(sp, d.prev)
}

// tails returns the valid in-progress run lengths: {0} when runs are
// uncapped, 1..MaxRunLength otherwise.
func (d *dpRun) tails() []int {
	k := d.sp.runCap()
	if k == 0 {
		return []int{0}
	}
	ts := make([]int, k)
	for i := range ts {
		ts[i] = i + 1
	}
	return ts
}

// f computes the DP recurrence (paper Eq. 7–8, extended with the
// in-progress run length t under Options.MaxRunLength): the minimal cost
// of reaching vector vecIdx with a run of t actions of type a at the tail,
// or +Inf when unreachable through feasible states.
func (d *dpRun) f(vecIdx int32, a migration.ActionType, t int) (float64, error) {
	sp := d.sp
	key := sp.extKeyT(vecIdx, a, t)
	if c, ok := d.memo[key]; ok {
		return c, nil
	}
	if sp.bd != nil && sp.bd.DominatedDP(sp.vec(vecIdx), int(a)) {
		// The bound engine proves this cell cannot lie on any optimal
		// plan (dead, or reach + cost-to-go provably above the sealed
		// incumbent). Memoizing +Inf without recursing is value-exact for
		// dead/unreachable cells and harmlessly pessimistic for dominated
		// ones: a raised value can only propagate to cells that are
		// themselves above the incumbent, which never win (or tie) a
		// predecessor selection on any cell the optimal plan traverses —
		// so the sweep's plan stays byte-identical to the unpruned one.
		// Counted as pruned, not created: the recursion never evaluates
		// the cell.
		d.memo[key] = math.Inf(1)
		sp.metrics.BoundStatesPruned++
		sp.rec.Add(obs.BoundStatesPruned, 1)
		return math.Inf(1), nil
	}
	sp.metrics.StatesCreated++
	sp.rec.Add(obs.StatesCreated, 1)
	var err error
	if d.progressed {
		err = sp.interrupted()
	} else {
		err = sp.polled()
	}
	if err != nil {
		return 0, err
	}
	// Seed the memo to guard against cycles (none exist — every step
	// strictly increases the action total — but a sentinel keeps a bug
	// from recursing forever), and record the key as in-flight so an
	// interruption can evict the half-computed entry.
	d.memo[key] = math.Inf(1)
	d.stack = append(d.stack, key)
	best, bestPrev, err := d.compute(vecIdx, a, t)
	if err != nil {
		return 0, err // key stays in-flight; evicted by interrupt
	}
	d.stack = d.stack[:len(d.stack)-1]
	d.memo[key] = best
	d.progressed = true
	if !math.IsInf(best, 1) {
		d.prev[key] = bestPrev
	}
	return best, nil
}

// compute evaluates the recurrence body for one state (vector vecIdx, last
// action a, tail t). The per-predecessor consideration order (b ascending,
// tails ascending, strict <) is the plan tie-breaker.
func (d *dpRun) compute(vecIdx int32, a migration.ActionType, t int) (float64, prevInfo, error) {
	sp := d.sp
	v := sp.vec(vecIdx)
	if v[a] <= sp.initial[a] {
		return math.Inf(1), prevInfo{}, nil // a cannot have been the last action
	}
	sp.metrics.StatesPopped++
	sp.rec.Add(obs.StatesExpanded, 1)

	pred := append([]uint16(nil), v...)
	pred[a]--
	predIdx, _ := sp.intern(pred)

	atInitial := true
	for i := range pred {
		if pred[i] != sp.initial[i] {
			atInitial = false
			break
		}
	}

	// Boundary-check semantics (Eq. 4–6 "s.t." clause): the predecessor
	// state is only observed by the network — and therefore only needs to
	// be safe — when the incoming action starts a new run (type change, or
	// a forced split once the run reaches MaxRunLength). The initial and
	// target states are pre-checked by PlanDP.
	best := math.Inf(1)
	bestPrev := prevInfo{last: NoLast}
	if atInitial {
		c, nt, _ := sp.step(sp.startLast, a, sp.startTail)
		if nt == t || (sp.runCap() == 0 && t == 0) {
			best = c
			bestPrev = prevInfo{last: sp.startLast, tail: int16(sp.startTail)}
		}
		return best, bestPrev, nil
	}

	predFeasible := -1 // lazy: -1 unknown, 0 no, 1 yes
	checkPred := func(bt migration.ActionType) bool {
		if sp.opts.FunnelFactor > 1 {
			// Funneling makes feasibility depend on the in-flight
			// block, so it cannot be reused across last-types.
			return sp.feasible(predIdx, bt)
		}
		if predFeasible < 0 {
			if sp.feasible(predIdx, bt) {
				predFeasible = 1
			} else {
				predFeasible = 0
			}
		}
		return predFeasible == 1
	}
	consider := func(bt migration.ActionType, pt int, step float64) error {
		pc, err := d.f(predIdx, bt, pt)
		if err != nil {
			return err
		}
		if c := pc + step; c < best {
			best = c
			bestPrev = prevInfo{last: bt, tail: int16(pt)}
		}
		return nil
	}
	k := sp.runCap()
	unit := sp.units[a]
	switch {
	case k == 0:
		// Uncapped: same-type extension at α, type change at unit with
		// a boundary check on the predecessor.
		for b := 0; b < sp.nTypes; b++ {
			bt := migration.ActionType(b)
			if pred[b] <= sp.initial[b] {
				continue
			}
			step := sp.opts.Alpha * unit
			if bt != a {
				if !checkPred(bt) {
					continue
				}
				step = unit
			}
			if err := consider(bt, 0, step); err != nil {
				return 0, prevInfo{}, err
			}
		}
	case t > 1:
		// Mid-run: the only predecessor is the same run, one shorter.
		if err := consider(a, t-1, sp.opts.Alpha*unit); err != nil {
			return 0, prevInfo{}, err
		}
	default: // t == 1: a fresh run started here; predecessor observed.
		for b := 0; b < sp.nTypes; b++ {
			bt := migration.ActionType(b)
			if pred[b] <= sp.initial[b] {
				continue
			}
			if bt == a {
				// Same type: only a forced split (full previous chunk)
				// may start a new run.
				if !checkPred(bt) {
					continue
				}
				if err := consider(a, k, unit); err != nil {
					return 0, prevInfo{}, err
				}
				continue
			}
			if !checkPred(bt) {
				continue
			}
			for _, pt := range d.tails() {
				if err := consider(bt, pt, unit); err != nil {
					return 0, prevInfo{}, err
				}
			}
		}
	}
	return best, bestPrev, nil
}

// planErrf wraps a sentinel planning error with detail while keeping it
// matchable via errors.Is.
func planErrf(sentinel error, format string, args ...any) error {
	return fmt.Errorf("%w: %s", sentinel, fmt.Sprintf(format, args...))
}
