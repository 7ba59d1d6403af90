package audit

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// This file implements the lane replay engine — the cheap audit of ROADMAP
// item 3. The serial engine in audit.go walks the sequence once, evaluating
// and accounting boundary by boundary. The lane engine audits the same
// boundary states but:
//
//   - enumerates the boundaries up front and evaluates them apart from the
//     verdict assembly, so the list can be split across worker lanes, each
//     lane replaying its contiguous segment on its own fresh view and
//     evaluator (whose up state and distance fields follow the view from one
//     boundary to the next, as the serial engine's do);
//   - counts datacenter occupancy with a reused dense scratch instead of a
//     fresh map per boundary.
//
// Independence is preserved. The auditor still builds its own topo.View and
// its own routing evaluator, still re-derives boundary positions, funneling
// circuits, and occupancy directly from the task definition, and still
// shares no code or state with internal/core (which this package does not
// import). It calls the same routing.Evaluate the serial auditor does, and
// the engine as a whole is differential-tested byte-identical, Report for
// Report, against the serial auditor across fabrics, tamperings, and worker
// counts; ModeSerial remains the pristine reference path.
//
// Verdict assembly is strictly sequential regardless of worker count: lane
// results are merged in ascending boundary order and the report is
// truncated at the first failing boundary, so StatesChecked, WorstUtil,
// Steps, FailStep, and Reason are exactly what the serial replay produces.

// Mode selects the audit replay engine.
type Mode uint8

const (
	// ModeSerial replays the sequence in one pass, evaluating and
	// accounting each boundary in turn — the pristine reference engine.
	ModeSerial Mode = iota

	// ModeIncremental evaluates the boundaries lane by lane, optionally in
	// parallel (Config.Workers), and assembles the verdict afterwards.
	// Differential-tested byte-identical to ModeSerial.
	ModeIncremental
)

// boundary is one state the replay must audit: the state reached after
// applying seq[:idx], checked before executing block (or -1 at the end).
type boundary struct {
	idx        int
	block      int
	withFunnel bool
	applied    int // absolute executed-action count (demand horizon)
	lastBlock  int // block whose funneling headroom applies; -1 none
}

// boundaryResult is one boundary's evaluation, produced by a lane and
// consumed by the sequential assembly.
type boundaryResult struct {
	res       routing.Result
	viol      routing.Violation
	occOK     bool
	occDC     int
	occN      int
	occBudget int
}

// boundaries enumerates the audited states of seq with exactly the loop
// structure of the serial replay: the initial state, every run boundary
// (type change, or forced MaxRunLength split), and the final state.
func boundaries(task *migration.Task, seq []int, cfg *Config, last migration.ActionType, tail, applied, lastBlock int) []boundary {
	bs := make([]boundary, 0, len(seq)+2)
	next := -1
	if len(seq) > 0 {
		next = seq[0]
	}
	bs = append(bs, boundary{idx: 0, block: next, withFunnel: false, applied: applied, lastBlock: lastBlock})
	for i, id := range seq {
		ty := task.Blocks[id].Type
		b := ty != last ||
			(!cfg.FreeOrder && cfg.MaxRunLength > 0 && tail >= cfg.MaxRunLength)
		if b && last != NoLast {
			bs = append(bs, boundary{idx: i, block: id, withFunnel: true, applied: applied + i, lastBlock: lastBlock})
		}
		if ty != last || b {
			tail = 1
		} else {
			tail++
		}
		last = ty
		lastBlock = id
	}
	bs = append(bs, boundary{idx: len(seq), block: -1, withFunnel: true, applied: applied + len(seq), lastBlock: lastBlock})
	return bs
}

// replayIncremental is the ModeIncremental counterpart of replay. It
// produces a Report byte-identical to the serial engine's.
func replayIncremental(task *migration.Task, seq []int, cfg *Config, rep *Report) {
	theta := cfg.Theta
	if theta <= 0 {
		theta = 0.75
	}

	// Establish the already-executed starting context, mirroring replay.
	last := NoLast
	tail := 0
	applied := 0
	lastBlock := -1
	if cfg.FreeOrder {
		applied = len(cfg.Executed)
		if n := len(cfg.Executed); n > 0 {
			lastBlock = cfg.Executed[n-1]
			last = task.Blocks[lastBlock].Type
		}
	} else if cfg.InitialCounts != nil {
		for _, c := range cfg.InitialCounts {
			applied += c
		}
		last = cfg.InitialLast
		tail = cfg.InitialRunLength
		if last != NoLast && cfg.InitialCounts[last] > 0 {
			lastBlock = task.BlocksOfType(last)[cfg.InitialCounts[last]-1]
		}
	}

	bs := boundaries(task, seq, cfg, last, tail, applied, lastBlock)
	results := make([]boundaryResult, len(bs))

	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(bs) {
		workers = len(bs)
	}
	if workers == 1 {
		runLane(0, task, seq, cfg, theta, bs, results)
	} else {
		// Contiguous segments, balanced to within one boundary. Each lane
		// re-applies its prefix once and then replays its blocks; results land
		// in disjoint slices of the shared results array, so the tasks are
		// order-independent and safe to hand to any runner. A lane runs on a
		// goroutine no caller frame encloses — a pool worker, or one of ours —
		// so it keeps its panic instead of raising it, and Verify raises the
		// lowest lane's again on its own goroutine once all have returned.
		var tasks []func()
		var panics []*LanePanic
		for w := 0; w < workers; w++ {
			lo := w * len(bs) / workers
			hi := (w + 1) * len(bs) / workers
			if lo == hi {
				continue
			}
			lane := len(tasks)
			panics = append(panics, nil)
			tasks = append(tasks, func() {
				defer func() {
					if v := recover(); v != nil {
						panics[lane] = &LanePanic{Lane: lane, Value: v, Stack: debug.Stack()}
					}
				}()
				runLane(lane, task, seq, cfg, theta, bs[lo:hi], results[lo:hi])
			})
		}
		if cfg.Runner != nil {
			cfg.Runner(tasks)
		} else {
			var wg sync.WaitGroup
			wg.Add(len(tasks))
			for _, t := range tasks {
				go func(t func()) {
					defer wg.Done()
					t()
				}(t)
			}
			wg.Wait()
		}
		for _, p := range panics {
			if p != nil {
				panic(p)
			}
		}
	}

	// Sequential assembly in ascending boundary order: exactly the serial
	// replay's accounting, truncated at the first failing boundary.
	for k := range bs {
		b := &bs[k]
		r := &results[k]
		rep.StatesChecked++
		if r.res.MaxUtil > rep.WorstUtil {
			rep.WorstUtil = r.res.MaxUtil
		}
		step := Step{Index: b.idx, Block: b.block, OK: true, MaxUtil: r.res.MaxUtil, PlacedMaxUtil: r.res.PlacedMaxUtil}
		if !r.viol.OK() {
			step.OK = false
			step.Violation = r.viol
			rep.Steps = append(rep.Steps, step)
			rep.fail(b.idx, "unsafe state before step %d: %s", b.idx, r.viol)
			return
		}
		if !r.occOK {
			step.OK = false
			step.Detail = fmt.Sprintf("space budget exceeded in DC %d: %d switches present, budget %d", r.occDC, r.occN, r.occBudget)
			rep.Steps = append(rep.Steps, step)
			rep.fail(b.idx, "unsafe state before step %d: %s", b.idx, step.Detail)
			return
		}
		rep.Steps = append(rep.Steps, step)
	}
	rep.Passed = true
}

// LanePanic is a panic raised inside a lane of the lane engine, carried to
// the goroutine that called Verify and raised there again, so that whatever
// contains a panic of the caller's — klotskid's planning leg — contains this
// one too.
type LanePanic struct {
	Lane  int    // the lane, numbered from 0 in boundary order
	Value any    // what the lane panicked with
	Stack []byte // the lane's stack at the panic
}

func (p *LanePanic) Error() string { return fmt.Sprintf("audit lane %d: %v", p.Lane, p.Value) }

// laneHook, when set, runs at the start of every lane with the lane's number:
// a seam for tests that make a lane fail. SetLaneHook sets it.
var laneHook atomic.Pointer[func(lane int)]

// SetLaneHook installs f to run at the start of every lane of the lane
// engine, with the lane's number; nil removes it. It exists for tests that
// make a lane panic, in this package and in the packages that plan through
// it.
func SetLaneHook(f func(lane int)) {
	if f == nil {
		laneHook.Store(nil)
		return
	}
	laneHook.Store(&f)
}

// runLane runs lane number lane: the hook, then replayLane.
func runLane(lane int, task *migration.Task, seq []int, cfg *Config, theta float64, bs []boundary, results []boundaryResult) {
	if h := laneHook.Load(); h != nil {
		(*h)(lane)
	}
	replayLane(task, seq, cfg, theta, bs, results)
}

// replayLane evaluates one contiguous run of boundaries on a fresh view and
// a fresh evaluator: it applies the executed prefix plus every sequence step
// preceding its first boundary, then walks its boundaries in order,
// evaluating each on the same evaluator.
func replayLane(task *migration.Task, seq []int, cfg *Config, theta float64, bs []boundary, results []boundaryResult) {
	view := task.Topo.NewView()
	eval := routing.NewEvaluator(task.Topo)

	if cfg.FreeOrder {
		for _, id := range cfg.Executed {
			task.Apply(view, id)
		}
	} else if cfg.InitialCounts != nil {
		for ty, c := range cfg.InitialCounts {
			for _, id := range task.BlocksOfType(migration.ActionType(ty))[:c] {
				task.Apply(view, id)
			}
		}
	}

	occ := newOccScratch(task, cfg.SpaceBudget)
	pos := 0
	for k := range bs {
		b := &bs[k]
		for ; pos < b.idx; pos++ {
			task.Apply(view, seq[pos])
		}
		copts := routing.CheckOpts{Theta: theta, Split: cfg.Split,
			DemandScale: task.Forecast.ScaleAt(b.applied)}
		if b.withFunnel && !cfg.FreeOrder && cfg.FunnelFactor > 1 && b.lastBlock >= 0 {
			copts.FunnelFactor = cfg.FunnelFactor
			copts.FunnelCircuits = funnelCircuits(task, b.lastBlock)
		}
		r := &results[k]
		r.res, r.viol = eval.Evaluate(view, &task.Demands, copts)
		r.occDC, r.occN, r.occBudget, r.occOK = occ.check(task, view)
	}
}

// occScratch counts per-DC switch presence with a reused map, replicating
// occupancyOK's first-offender semantics without a fresh allocation per
// boundary.
type occScratch struct {
	budget  map[int]int
	present map[int]int
}

func newOccScratch(task *migration.Task, budget map[int]int) *occScratch {
	if len(budget) == 0 {
		return &occScratch{}
	}
	return &occScratch{budget: budget, present: make(map[int]int, len(budget)+1)}
}

// check mirrors occupancyOK: count active switches per DC from the view,
// then report the first over-budget DC in ascending switch order.
func (o *occScratch) check(task *migration.Task, view *topo.View) (dc, n, limit int, ok bool) {
	if len(o.budget) == 0 {
		return 0, 0, 0, true
	}
	for k := range o.present {
		delete(o.present, k)
	}
	for i := 0; i < task.Topo.NumSwitches(); i++ {
		if view.SwitchActive(topo.SwitchID(i)) {
			o.present[task.Topo.Switch(topo.SwitchID(i)).DC]++
		}
	}
	for i := 0; i < task.Topo.NumSwitches(); i++ {
		d := task.Topo.Switch(topo.SwitchID(i)).DC
		if b, capped := o.budget[d]; capped && b > 0 && o.present[d] > b {
			return d, o.present[d], b, false
		}
	}
	return 0, 0, 0, true
}
