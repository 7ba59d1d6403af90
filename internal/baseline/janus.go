package baseline

import (
	"container/heap"
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"klotski/internal/core"
	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// PlanJanus plans a migration in the style of Janus [4]: an exhaustive
// uniform-cost search over block orderings, pruned only by the intrinsic
// symmetry of the topology — operating equivalent blocks in either order
// yields equivalent states, so a state is identified by how many members
// of each *symmetry class* are done (plus the last action type).
//
// Following the paper's methodology, Janus's "superblock" is defined as
// Klotski's operation block. The contrast with Klotski is exactly the
// paper's point: Klotski's ordering-agnostic representation (§4.2) counts
// finished actions per *action type* — polynomial in the action count —
// while Janus can only count per symmetry class. When the topology is
// highly symmetric the two coincide; on production-like topologies there
// is little symmetry ("each symmetry block consists of at most two
// switches"), classes degenerate to singletons, and Janus's state space
// becomes the set of block subsets — exponential. The paper measures it
// 8.4–380.7× slower than Klotski-A* under a 24-hour cap; here overruns of
// Options.MaxStates / Options.Timeout surface as core.ErrBudget, which the
// figures render as crosses.
func PlanJanus(task *migration.Task, opts core.Options) (*core.Plan, error) {
	return PlanJanusContext(context.Background(), task, opts)
}

// PlanJanusContext is PlanJanus with cooperative cancellation: the context
// is polled alongside the MaxStates/Timeout budget in the search loop, and
// budget overruns wrap core.ErrBudget exactly like the core planners'. It
// plans the remainder after Options.Executed, in whatever order those
// blocks were operated.
func PlanJanusContext(ctx context.Context, task *migration.Task, opts core.Options) (*core.Plan, error) {
	if err := checkTask(task); err != nil {
		return nil, err
	}
	last, err := executedStart(task, opts.Executed)
	if err != nil {
		return nil, err
	}
	return planJanus(ctx, task, opts.Executed, last, opts)
}

// planJanus searches from the state after the done blocks, with
// initialLast the type of the run in progress.
func planJanus(ctx context.Context, task *migration.Task, done []int, initialLast migration.ActionType, opts core.Options) (*core.Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	j := &janusRun{task: task, opts: opts, view: task.Topo.NewView(), ctx: ctx, rec: opts.Recorder}
	if opts.Timeout > 0 {
		j.deadline = start.Add(opts.Timeout)
	}
	j.theta = opts.Theta
	if j.theta <= 0 {
		j.theta = 0.75
	}
	j.eval = opts.Evaluator
	if j.eval == nil {
		j.eval = routing.NewEvaluator(task.Topo)
	}
	j.maxNodes = opts.MaxStates
	if j.maxNodes <= 0 {
		j.maxNodes = 4_000_000
	}
	j.classify()
	if err := j.checkClassEncoding(); err != nil {
		return nil, err
	}
	return j.search(j.startAt(done), initialLast, start)
}

// janusRun carries the search machinery.
type janusRun struct {
	task     *migration.Task
	opts     core.Options
	eval     *routing.Evaluator
	theta    float64
	deadline time.Time
	maxNodes int
	view     *topo.View
	ctx      context.Context

	// classMembers lists each symmetry class's block IDs: the executed
	// ones first, then the rest, each part ascending (see startAt).
	classMembers [][]int

	metrics core.Metrics
	rec     *obs.Recorder
}

// classify groups blocks into strict symmetry classes: two blocks are
// equivalent iff they have the same action type and their switches and
// circuits occupy structurally identical positions. Operating either
// member of a class first yields equivalent intermediate networks — the
// only pruning Janus has.
func (j *janusRun) classify() {
	t := j.task
	sigs := make(map[string]int)
	for i := range t.Blocks {
		sig := blockSignature(t, &t.Blocks[i])
		id, ok := sigs[sig]
		if !ok {
			id = len(sigs)
			sigs[sig] = id
			j.classMembers = append(j.classMembers, nil)
		}
		j.classMembers[id] = append(j.classMembers[id], i)
	}
	for _, m := range j.classMembers {
		sort.Ints(m)
	}
}

// checkClassEncoding rejects tasks whose symmetry classes exceed the
// byte-per-class state encoding (255 members) — far beyond any real
// migration's symmetry.
func (j *janusRun) checkClassEncoding() error {
	for c, m := range j.classMembers {
		if len(m) > 255 {
			return fmt.Errorf("baseline: Janus symmetry class %d has %d members, exceeding encoding limit", c, len(m))
		}
	}
	return nil
}

// startAt moves the done blocks to the front of their symmetry classes and
// returns the per-class counts that name them, so that a state's counts
// keep meaning "the first counts[c] members of class c are done". With no
// done blocks, or a canonical prefix, every class keeps its ascending order.
func (j *janusRun) startAt(done []int) []byte {
	isDone := make([]bool, len(j.task.Blocks))
	for _, id := range done {
		isDone[id] = true
	}
	initial := make([]byte, len(j.classMembers))
	for c, members := range j.classMembers {
		sort.SliceStable(members, func(a, b int) bool { return isDone[members[a]] && !isDone[members[b]] })
		for _, id := range members {
			if isDone[id] {
				initial[c]++
			}
		}
	}
	return initial
}

func blockSignature(t *migration.Task, b *migration.Block) string {
	var parts []string
	for _, s := range b.Switches {
		parts = append(parts, switchPositionSignature(t.Topo, s))
	}
	sort.Strings(parts)
	var cparts []string
	for _, c := range b.Circuits {
		cparts = append(cparts, circuitPositionSignature(t.Topo, t.Topo.Circuit(c)))
	}
	sort.Strings(cparts)
	return fmt.Sprintf("t%d|%s|%s", b.Type, strings.Join(parts, ","), strings.Join(cparts, ";"))
}

// switchPositionSignature captures a switch's structural position: role,
// generation, port budget, and the multiset of (neighbor, capacity,
// metric) tuples. Distinct neighbor identities make otherwise-similar
// switches inequivalent — the "little symmetry" property of real DCNs.
func switchPositionSignature(t *topo.Topology, id topo.SwitchID) string {
	s := t.Switch(id)
	var nb []string
	for _, cid := range s.Circuits() {
		c := t.Circuit(cid)
		nb = append(nb, fmt.Sprintf("%d@%g/%d", c.Other(id), c.Capacity, c.Metric))
	}
	sort.Strings(nb)
	return fmt.Sprintf("%s.g%d.p%d[%s]", s.Role, s.Generation, s.Ports, strings.Join(nb, " "))
}

func circuitPositionSignature(t *topo.Topology, c *topo.Circuit) string {
	a, b := c.A, c.B
	if b < a {
		a, b = b, a
	}
	return fmt.Sprintf("%d-%d@%g/%d", a, b, c.Capacity, c.Metric)
}

// nodeInfo records the best-known way to reach a state, for plan
// reconstruction.
type nodeInfo struct {
	g         float64
	prevKey   string
	prevBlock int
	closed    bool
}

type janusItem struct {
	key  string
	g    float64
	last migration.ActionType
	idx  int64
}

type janusHeap []janusItem

func (h janusHeap) Len() int { return len(h) }
func (h janusHeap) Less(i, k int) bool {
	if h[i].g != h[k].g {
		return h[i].g < h[k].g
	}
	return h[i].idx < h[k].idx
}
func (h janusHeap) Swap(i, k int) { h[i], h[k] = h[k], h[i] }
func (h *janusHeap) Push(x any)   { *h = append(*h, x.(janusItem)) }
func (h *janusHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// key encodes (per-class counts, last type).
func (j *janusRun) key(counts []byte, last migration.ActionType) string {
	return string(counts) + "|" + string(rune(last+2))
}

// countsOfKey decodes the per-class counts back out of a key.
func (j *janusRun) countsOfKey(key string) []byte {
	return []byte(key[:len(j.classMembers)])
}

// feasible materializes the state (first counts[c] members of every class,
// ascending block ID — legitimate because class members are symmetric) and
// checks it. Janus has no ordering-agnostic cache: every call pays a full
// rebuild and check.
func (j *janusRun) feasible(counts []byte) bool {
	j.metrics.Checks++
	if j.rec.Enabled() {
		checkStart := time.Now()
		defer func() {
			j.rec.Add(obs.Checks, 1)
			j.rec.Observe(obs.CheckLatency, time.Since(checkStart))
		}()
	}
	j.view.Reset()
	for c, n := range counts {
		for k := 0; k < int(n); k++ {
			j.task.Apply(j.view, j.classMembers[c][k])
		}
	}
	copts := routing.CheckOpts{Theta: j.theta, Split: j.opts.Split}
	return j.eval.Check(j.view, &j.task.Demands, copts).OK()
}

func (j *janusRun) search(initial []byte, initialLast migration.ActionType, start time.Time) (*core.Plan, error) {
	task := j.task
	span := j.rec.Span("janus.search")
	defer span.End()
	if !j.feasible(initial) {
		return nil, core.ErrInfeasible
	}

	nodes := make(map[string]*nodeInfo)
	var pq janusHeap
	idx := int64(0)
	push := func(counts []byte, last migration.ActionType, g float64, prevKey string, prevBlock int) {
		key := j.key(counts, last)
		if n, ok := nodes[key]; ok && n.g <= g {
			return
		}
		nodes[key] = &nodeInfo{g: g, prevKey: prevKey, prevBlock: prevBlock}
		idx++
		j.metrics.StatesCreated++
		j.rec.Add(obs.StatesCreated, 1)
		heap.Push(&pq, janusItem{key: key, g: g, last: last, idx: idx})
	}
	startKey := j.key(initial, initialLast)
	push(initial, initialLast, 0, "", -1)

	// Context and deadline are polled every pollInterval pops; the first
	// pop always polls, so an expired deadline or cancelled context trips
	// deterministically even on tiny searches.
	const pollInterval = 64
	pollCountdown := 1
	for pq.Len() > 0 {
		if j.metrics.StatesCreated > j.maxNodes {
			return nil, fmt.Errorf("%w: Janus exceeded %d states (%d symmetry classes over %d blocks)",
				core.ErrBudget, j.maxNodes, len(j.classMembers), len(task.Blocks))
		}
		pollCountdown--
		if pollCountdown <= 0 {
			pollCountdown = pollInterval
			if err := j.ctx.Err(); err != nil {
				return nil, fmt.Errorf("baseline: Janus cancelled after %d states: %w",
					j.metrics.StatesCreated, err)
			}
			if !j.deadline.IsZero() && time.Now().After(j.deadline) {
				return nil, fmt.Errorf("%w: Janus exceeded its time budget after %d states",
					core.ErrBudget, j.metrics.StatesCreated)
			}
		}
		it := heap.Pop(&pq).(janusItem)
		node := nodes[it.key]
		if node.closed || it.g > node.g {
			continue
		}
		node.closed = true
		j.metrics.StatesPopped++
		if j.rec.Enabled() {
			j.rec.Add(obs.StatesExpanded, 1)
			j.rec.Set(obs.OpenListSize, float64(pq.Len()))
		}
		counts := j.countsOfKey(it.key)

		done := 0
		for _, n := range counts {
			done += int(n)
		}
		if done == len(task.Blocks) {
			if !j.feasible(counts) {
				continue
			}
			seq := j.reconstruct(nodes, it.key, startKey)
			j.metrics.PlanningTime = time.Since(start)
			return &core.Plan{
				Task:     task,
				Sequence: seq,
				Runs:     core.RunsOf(task, seq, 0),
				Cost:     it.g,
				Metrics:  j.metrics,
			}, nil
		}

		// Boundary semantics (paper Eq. 4–6): switching action types
		// requires the state being left to be safe.
		boundaryChecked := false
		boundaryOK := false
		for c := range j.classMembers {
			if int(counts[c]) >= len(j.classMembers[c]) {
				continue
			}
			block := j.classMembers[c][counts[c]]
			ty := task.Blocks[block].Type
			if ty != it.last && it.last != core.NoLast {
				if !boundaryChecked {
					boundaryOK = j.feasible(counts)
					boundaryChecked = true
				}
				if !boundaryOK {
					continue
				}
			}
			unit := task.Types[ty].UnitCost
			if unit == 0 {
				unit = 1
			}
			step := unit
			if ty == it.last {
				step = j.opts.Alpha * unit
			}
			next := append([]byte(nil), counts...)
			next[c]++
			push(next, ty, it.g+step, it.key, block)
		}
	}
	return nil, core.ErrInfeasible
}

// reconstruct walks parent pointers back from the goal.
func (j *janusRun) reconstruct(nodes map[string]*nodeInfo, goal, start string) []int {
	var rev []int
	key := goal
	for key != start {
		n := nodes[key]
		if n == nil || n.prevBlock < 0 {
			break
		}
		rev = append(rev, n.prevBlock)
		key = n.prevKey
	}
	seq := make([]int, len(rev))
	for i := range rev {
		seq[i] = rev[len(rev)-1-i]
	}
	return seq
}
