package core

import "sync"

// batchTestHook, when non-nil, runs inside every frontier-warmer worker
// before its shard. Tests use it to inject worker panics and verify the
// planner retires the warmer and finishes serially with an identical plan.
var batchTestHook func(worker int)

// Batched frontier warming for A*'s lazy path.
//
// A* only consults the evaluator at run boundaries, one state per
// expansion, so unlike the DP planner it cannot sweep the whole product
// space up front. But at the moment a node is expanded, the states that
// will need fresh feasibility verdicts soon are known with high
// probability: the node itself (its boundary check), its successors (their
// boundary checks when they are popped in turn), and — speculatively — the
// top of the open heap, whose entries are the next expansion candidates. A
// frontierWarmer resolves all of those that miss the shared satisfiability
// cache in one parallel batch on persistent worker lanes (each owning a
// forked evaluator whose retained up state stays warm across batches),
// committing verdicts through the cache's claim protocol. Verdicts are
// deterministic functions of the state, so the warmed cache is identical to
// what lazy serial checking would produce (plus speculative extra entries
// that cannot change search decisions): plans are byte-identical to the
// serial planner's; only wall-clock time and the check accounting differ.
// Speculative entries the search never consults are tallied in
// Metrics.SpeculativeWaste.
//
// Warming requires verdicts keyed by vector alone, so it is disabled under
// funneling (feasibility then depends on the in-flight block) and when the
// cache is off.

// frontierWarmer holds the persistent worker state for batched frontier
// checks.
type frontierWarmer struct {
	sp      *space
	workers int
	topK    int // open-heap prefix length warmed speculatively
	lanes   []*lane
	items   []int32
	scratch []uint16

	// retired latches after a worker panic: the warmer is dead for the
	// rest of the run and the search falls back to the serial lazy path.
	retired bool
}

// newFrontierWarmer returns a warmer for sp, or nil when warming cannot
// help (fewer than two workers, cache disabled, funneling in effect, a
// prior worker panic degraded the run to serial, or the adaptive policy
// has switched warming off).
func (sp *space) newFrontierWarmer(workers int) *frontierWarmer {
	if workers < 2 || sp.opts.DisableCache || sp.opts.FunnelFactor > 1 || sp.degraded {
		return nil
	}
	if sp.adaptive != nil && !sp.adaptive.warming {
		return nil
	}
	if sp.specPending == nil {
		sp.specPending = make(map[int32]struct{}, 64)
	}
	return &frontierWarmer{
		sp:      sp,
		workers: workers,
		topK:    4 * workers,
		scratch: make([]uint16, sp.nTypes),
	}
}

// run resolves, in one parallel batch, the feasibility of the expanded
// node's boundary state, its successors, and the boundary states and
// successors of the open heap's top-K entries, for every vector that
// misses the shared cache. Subsequent serial feasible() calls then hit the
// cache. Called from the planner goroutine between pop and expansion; the
// batch joins before it returns, so the serial search never observes a
// claim in flight. cur is the expanded node's vector.
func (fw *frontierWarmer) run(cur []uint16, vecIdx int32, pq *openHeap) {
	sp := fw.sp
	fw.items = fw.items[:0]
	fw.add(vecIdx)
	fw.addSuccessors(cur)
	// The heap prefix is deterministic: it is a pure function of the push
	// and pop sequence, which parallelism does not alter. Entries may be
	// stale duplicates; warming them is harmless (worst case it is counted
	// as speculative waste). Entries the bound engine already proves dead
	// are skipped: pop-time pruning will discard them unexpanded, so
	// resolving verdicts for them or their successors is guaranteed waste.
	// Verdict-neutral — warming only prefills the cache.
	for i := 0; i < fw.topK && i < len(pq.items); i++ {
		it := pq.items[i]
		if sp.bd != nil && it.last != NoLast && sp.bd.Dead(sp.vec(it.vecIdx), int(it.last)) {
			continue
		}
		fw.add(it.vecIdx)
		fw.addSuccessors(sp.vec(it.vecIdx))
	}
	if len(fw.items) < 2 {
		return // a single miss is cheaper on the lazy path than a spawn
	}
	fw.ensureLanes()

	var (
		panicMu  sync.Mutex
		panicked bool
	)
	tasks := make([]func(), fw.workers)
	for w := 0; w < fw.workers; w++ {
		w, ln := w, fw.lanes[w]
		tasks[w] = func() {
			// Panic containment: the claim protocol releases the in-flight
			// claim on unwind, the remaining items stay unknown for lazy
			// serial rechecking, and the warmer retires itself below — one
			// poisoned lane must not take the search down.
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					panicked = true
					panicMu.Unlock()
				}
			}()
			if hook := batchTestHook; hook != nil {
				hook(w)
			}
			for i := w; i < len(fw.items); i += fw.workers {
				sp.feasibleOn(ln, fw.items[i])
			}
		}
	}
	sp.runTasks(tasks)

	resolved := 0
	for _, idx := range fw.items {
		if v := sp.feasT.get(idx); v == feasYes || v == feasNo {
			sp.specPending[idx] = struct{}{}
			resolved++
		}
	}
	for _, ln := range fw.lanes {
		ln.fold()
	}
	sp.metrics.BatchedChecks += resolved
	sp.rec.BatchedChecks(resolved)
	if panicked {
		// Verdicts committed before the panic are final and correct; only
		// the lanes are suspect. Retire the warmer and degrade the run.
		fw.retired = true
		sp.degradeToSerial()
		return
	}
	if ap := sp.adaptive; ap != nil {
		// Lanes are joined and folded: a safe decision point. The policy
		// may shrink the batch width or switch warming off entirely; both
		// are verdict-neutral, so the search is unaffected beyond timing.
		ap.observe()
		if ap.lanes < fw.workers {
			fw.workers = ap.lanes
		}
		if !ap.warming || fw.workers < 2 {
			fw.retired = true
		}
	}
}

// add queues idx for the batch unless its verdict is already known or it
// is already queued.
func (fw *frontierWarmer) add(idx int32) {
	if fw.sp.feasT.get(idx) != 0 {
		return
	}
	for _, it := range fw.items {
		if it == idx {
			return
		}
	}
	fw.items = append(fw.items, idx)
}

// addSuccessors queues the cache-missing successor vectors of cur,
// interning them on the coordinator (interning stays serial in A*, keeping
// dense-index assignment deterministic).
func (fw *frontierWarmer) addSuccessors(cur []uint16) {
	sp := fw.sp
	for a := 0; a < sp.nTypes; a++ {
		if cur[a] >= sp.totals[a] {
			continue
		}
		copy(fw.scratch, cur)
		fw.scratch[a]++
		idx, _ := sp.intern(fw.scratch)
		fw.add(idx)
	}
}

// ensureLanes builds the persistent worker lanes on first use. Each owns a
// forked evaluator and scratch view; per-check recording is disabled in
// workers and folded in bulk after each batch.
func (fw *frontierWarmer) ensureLanes() {
	if fw.lanes != nil {
		return
	}
	fw.lanes = make([]*lane, fw.workers)
	for w := range fw.lanes {
		fw.lanes[w] = fw.sp.workerLane()
	}
}
