package core

import (
	"container/heap"
	"context"

	"klotski/internal/migration"
	"klotski/internal/obs"
)

// PlanAStar finds a minimum-cost safe migration plan with the A* search
// planner (paper §4.4, Algorithm 2).
//
// States are (compact vector, last action type); the priority is
// f = g + h with the consistent heuristic of space.heuristic, tie-broken by
// the number of finished actions (states closer to the target first) and
// then by insertion order for determinism. The search starts from the
// original network state (or a replanning checkpoint) and returns the
// moment the target topology is popped, which — with a consistent
// heuristic — is guaranteed optimal.
func PlanAStar(task *migration.Task, opts Options) (*Plan, error) {
	return PlanAStarContext(context.Background(), task, opts)
}

// PlanAStarContext is PlanAStar with cooperative cancellation: the context
// is polled alongside the MaxStates/Timeout budget, and on cancellation or
// budget exhaustion the search returns an *Interrupted error carrying a
// resumable Checkpoint instead of discarding its work.
func PlanAStarContext(ctx context.Context, task *migration.Task, opts Options) (*Plan, error) {
	return planAStar(ctx, task, opts)
}

func planAStar(ctx context.Context, task *migration.Task, opts Options) (*Plan, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
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
	targetIdx, _ := sp.intern(sp.totals)
	if !sp.feasible(targetIdx, NoLast) {
		return nil, planErrf(ErrInfeasible, "target network state violates constraints")
	}

	s := &astarSearch{
		sp:      sp,
		best:    make(map[int64]float64),
		closed:  make(map[int64]bool),
		prev:    make(map[int64]prevInfo),
		pq:      &openHeap{secondary: !opts.DisableSecondaryPriority},
		scratch: make([]uint16, sp.nTypes),
	}
	s.push(startIdx, sp.startLast, sp.startTail, 0)
	sp.initLowerBound(startIdx, sp.startLast, sp.startTail)
	return s.run()
}

// astarSearch is the complete mutable state of one A* run: it survives
// interruptions inside a Checkpoint, so Resume continues the identical
// search — same open list, same closed set, same satisfiability cache.
type astarSearch struct {
	sp      *space
	best    map[int64]float64 // lowest g per (vec, last, tail)
	closed  map[int64]bool    // expanded states
	prev    map[int64]prevInfo
	pq      *openHeap
	scratch []uint16
	front   frontier
}

func (s *astarSearch) push(vecIdx int32, last migration.ActionType, tail int, g float64) {
	sp := s.sp
	k := sp.extKeyT(vecIdx, last, tail)
	if old, ok := s.best[k]; ok && old <= g {
		return
	}
	s.best[k] = g
	sp.metrics.StatesCreated++
	sp.rec.Add(obs.StatesCreated, 1)
	s.front.observe(sp, vecIdx, last, tail)
	if g < sp.incumbent && sp.isTarget(vecIdx) {
		// Anytime incumbent: reaching the target with a cheaper g tightens
		// the certificate even before the target is popped (and even if the
		// search is interrupted before it ever is).
		sp.incumbent = g
	}
	heap.Push(s.pq, openItem{
		f:        g + sp.heuristic(vecIdx, last, tail),
		finished: int32(sp.finished(vecIdx)),
		order:    int64(sp.metrics.StatesCreated),
		g:        g,
		vecIdx:   vecIdx,
		last:     last,
		tail:     int16(tail),
	})
}

// run drives the search loop to completion, interruption, or exhaustion.
// It is re-entered by Resume after an interruption.
func (s *astarSearch) run() (*Plan, error) {
	sp := s.sp
	task := sp.task
	span := sp.rec.Span("astar.run")
	defer span.End()
	for s.pq.Len() > 0 {
		if reason := sp.interrupted(); reason != nil {
			return nil, s.interrupt(reason)
		}
		it := heap.Pop(s.pq).(openItem)
		// With a consistent heuristic the popped f values are
		// non-decreasing over clean (non-stale) pops, so the largest f seen
		// is the min over the open list at some point in time — a valid
		// global lower bound on the optimum, even mid-search.
		if it.f > sp.lowerBound {
			sp.lowerBound = it.f
		}
		k := sp.extKeyT(it.vecIdx, it.last, int(it.tail))
		if s.closed[k] || it.g > s.best[k] {
			continue // stale duplicate
		}
		s.closed[k] = true
		if sp.bd != nil && it.last != NoLast && sp.bd.Dead(sp.vec(it.vecIdx), int(it.last)) {
			// The cut set proves no feasible completion exists from this
			// state: expanding it could only generate more dead states, so
			// skipping the expansion cannot change which plan is found (or
			// the order the surviving states are pushed in — the plan stays
			// byte-identical to the unpruned search's).
			sp.metrics.BoundStatesPruned++
			sp.rec.Add(obs.BoundStatesPruned, 1)
			continue
		}
		sp.metrics.StatesPopped++
		if sp.rec.Enabled() {
			sp.rec.Add(obs.StatesExpanded, 1)
			sp.rec.Set(obs.OpenListSize, float64(s.pq.Len()))
		}

		if sp.isTarget(it.vecIdx) {
			seq := sp.reconstruct(s.prev, it.vecIdx, it.last, int(it.tail))
			sp.rec.Add(obs.PlansCompleted, 1)
			sp.incumbent = it.g
			sp.lowerBound = it.g // popped target g is provably optimal
			return sp.finishPlan(&Plan{
				Task:     task,
				Sequence: seq,
				Runs:     sp.runs(seq),
				Cost:     it.g,
				Metrics:  sp.elapsedMetrics(),
			})
		}

		// Constraint semantics (paper Eq. 4–6 "s.t." clause): consecutive
		// same-type actions are operated in parallel, so the network is
		// only observed — and therefore only checked — when the action
		// type changes and at the end of the sequence. Extending the
		// current run needs no check; switching run types requires the
		// state being left (the completed run's boundary) to be safe.
		cur := sp.vec(it.vecIdx)
		boundaryOK := true
		boundaryChecked := false
		for a := 0; a < sp.nTypes; a++ {
			if cur[a] >= sp.totals[a] {
				continue
			}
			at := migration.ActionType(a)
			stepCost, newTail, needsBoundary := sp.step(it.last, at, int(it.tail))
			if needsBoundary && it.last != NoLast {
				if !boundaryChecked {
					boundaryOK = sp.feasible(it.vecIdx, it.last)
					boundaryChecked = true
				}
				if !boundaryOK {
					continue
				}
			}
			copy(s.scratch, cur)
			s.scratch[a]++
			nextIdx, _ := sp.intern(s.scratch)
			ng := it.g + stepCost
			nk := sp.extKeyT(nextIdx, at, newTail)
			if s.closed[nk] {
				continue
			}
			if old, ok := s.best[nk]; !ok || ng < old {
				s.prev[nk] = prevInfo{last: it.last, tail: it.tail}
				s.push(nextIdx, at, newTail, ng)
			}
		}
	}
	return nil, planErrf(ErrInfeasible, "search space exhausted after %d states without reaching target",
		sp.metrics.StatesPopped)
}

// interrupt packages the live search into a resumable checkpoint.
func (s *astarSearch) interrupt(reason error) error {
	sp := s.sp
	sp.rec.Add(obs.PlansInterrupted, 1)
	sp.pause()
	cp := &Checkpoint{
		Planner: "astar",
		Partial: s.front.snapshot(sp, s.prev),
		Metrics: sp.elapsedMetrics(),
		sp:      sp,
	}
	cp.resume = func(ctx context.Context, opts Options) (*Plan, error) {
		sp.rebudget(ctx, opts)
		return s.run()
	}
	return interruptErrf(reason, cp,
		"A* stopped after %d states, %d checks (frontier %d/%d actions)",
		sp.metrics.StatesCreated, sp.metrics.Checks, s.front.finished, sp.task.NumActions())
}

// openItem is one priority-queue entry. Lower f wins; among equal f, more
// finished actions wins (secondary priority, §4.4); ties fall back to
// insertion order for deterministic plans.
type openItem struct {
	f        float64
	finished int32
	order    int64
	g        float64
	vecIdx   int32
	last     migration.ActionType
	tail     int16 // in-progress run length, used under Options.MaxRunLength
}

type openHeap struct {
	items     []openItem
	secondary bool
}

func (h *openHeap) Len() int { return len(h.items) }

func (h *openHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.f != b.f {
		return a.f < b.f
	}
	if h.secondary && a.finished != b.finished {
		return a.finished > b.finished
	}
	return a.order < b.order
}

func (h *openHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *openHeap) Push(x any) { h.items = append(h.items, x.(openItem)) }

func (h *openHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
