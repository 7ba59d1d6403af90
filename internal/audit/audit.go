// Package audit is the independent plan verifier of the defense-in-depth
// layer (paper §7.2, "extra audits and safety checks"): every plan the
// planners emit is replayed step-by-step against a fresh topo.View and a
// fresh routing.Evaluator — none of the planner's satisfiability caches,
// search-state interning, or retained evaluator state in the loop — and
// every boundary state is re-checked for reachability, capacity, and
// occupancy. One serial replay produces that verdict, on the caller's
// goroutine: it walks the sequence once, evaluating and accounting boundary
// by boundary.
//
// The package deliberately does NOT import internal/core: it re-derives
// the boundary semantics (canonical ordering, run splits, funneling
// circuits, space occupancy) from the task definition alone, so a bug in
// the planner's fast paths cannot hide in a shared helper. core depends on
// audit, never the reverse.
package audit

import (
	"errors"
	"fmt"
	"slices"

	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// NoLast marks "no action executed yet" in the replay's run state. It
// mirrors core.NoLast without importing core.
const NoLast migration.ActionType = -1

// Config parameterizes a verification run. The zero value audits a
// complete, canonical-order plan under the paper defaults (θ = 0.75, ECMP,
// no funneling, no run cap, no space budget).
type Config struct {
	// Theta is the maximum circuit utilization bound (Eq. 5). 0 means the
	// paper default of 0.75.
	Theta float64

	// Split selects the traffic-splitting policy (ECMP default, WCMP).
	Split routing.SplitMode

	// FunnelFactor, when > 1, re-applies the transient funneling headroom
	// (§7.2) at run boundaries: circuits parallel to the block just
	// operated are held to Theta/FunnelFactor. Ignored in FreeOrder mode,
	// where "the block just operated" is not defined canonically.
	FunnelFactor float64

	// MaxRunLength caps same-type runs; a forced split is a boundary the
	// network observes and is therefore checked. 0 means unlimited.
	MaxRunLength int

	// SpaceBudget caps physically present switches per datacenter. The
	// auditor counts active switches in the replayed view directly —
	// independently of the planner's precomputed occupancy deltas.
	SpaceBudget map[int]int

	// Executed lists the block IDs already executed, in order: the replay
	// starts from the state after them. They run through the replay's own
	// run loop unchecked, so its first state carries the run the crews are
	// in — the last block's type and, under MaxRunLength, the length of its
	// current chunk. Outside FreeOrder they must keep canonical within-type
	// order.
	Executed []int

	// FreeOrder audits plans not bound to canonical within-type order
	// (the MRC and Janus baselines). Funneling headroom and MaxRunLength
	// splits, which are defined on the canonical representation, are not
	// applied.
	FreeOrder bool

	// AllowPartial accepts a sequence that does not finish the migration
	// (an interrupted plan prefix, e.g. from a checkpoint). The state
	// after the last step is still checked as a run boundary.
	AllowPartial bool

	// Recorder optionally streams audit counters (states checked,
	// failures) into an observability registry; nil is a no-op.
	Recorder *obs.Recorder
}

// Step records one audited boundary state of the replay.
type Step struct {
	// Index is the sequence position the state precedes: 0 is the initial
	// state, len(seq) the final state.
	Index int

	// Block is the block executed next from this state, -1 for the final
	// state.
	Block int

	OK bool

	// MaxUtil is the highest circuit utilization observed in this state.
	MaxUtil float64

	// PlacedMaxUtil is MaxUtil at the task's base demand, without the
	// forecast's growth up to this state (equal to MaxUtil without a
	// forecast): the figure a plan document reports for the state.
	PlacedMaxUtil float64

	// Violation is the routing violation when !OK (zero for occupancy
	// failures, which are described by Detail).
	Violation routing.Violation

	// Detail describes non-routing failures (space budget).
	Detail string
}

// Report is the structured result of an audit.
type Report struct {
	// Passed is true iff the sequence is well formed and every audited
	// state satisfies all constraints.
	Passed bool

	// FailStep is the sequence index at which the audit failed: the index
	// of the offending action for sequence-validation failures, the index
	// of the action entered from an unsafe state for boundary failures,
	// len(seq) for final-state or completeness failures. -1 when Passed.
	FailStep int

	// Reason describes the failure in operator terms; empty when Passed.
	Reason string

	// StatesChecked counts the boundary states replayed and verified.
	StatesChecked int

	// WorstUtil is the highest circuit utilization over all checked
	// states — the transient headroom the plan actually consumes.
	WorstUtil float64

	// Gap is the planner's certified relative optimality gap for the
	// audited plan (0 = provably optimal), stamped by the planner after
	// verification. The auditor itself does not compute it; audits
	// invoked directly leave it 0.
	Gap float64

	// Split is the traffic-splitting policy the states were routed under.
	Split routing.SplitMode

	// Start lists the blocks already executed when the replay began,
	// Config.Executed. Empty when the replay started from the base state,
	// or when sequence validation failed and nothing was replayed.
	Start []int

	// Steps holds one record per audited boundary state, in replay order.
	// Sequence-validation failures abort before the replay, leaving it
	// empty.
	Steps []Step
}

// String renders the report verdict as one line.
func (r *Report) String() string {
	if r.Passed {
		return fmt.Sprintf("audit passed: %d states checked, worst utilization %.3f",
			r.StatesChecked, r.WorstUtil)
	}
	return fmt.Sprintf("audit FAILED at step %d: %s (%d states checked)",
		r.FailStep, r.Reason, r.StatesChecked)
}

// Verify replays seq against a pristine serial evaluator and audits every
// boundary state. It returns an error only for malformed inputs (nil or
// invalid task, bad config); a plan that fails its audit yields a Report
// with Passed == false, not an error.
func Verify(task *migration.Task, seq []int, cfg Config) (*Report, error) {
	if task == nil {
		return nil, errors.New("audit: nil task")
	}
	if err := task.Validate(); err != nil {
		return nil, fmt.Errorf("audit: invalid task: %w", err)
	}
	if cfg.Theta < 0 || cfg.Theta > 1 {
		return nil, fmt.Errorf("audit: Theta %v outside (0, 1]", cfg.Theta)
	}

	rep := &Report{FailStep: -1}
	defer func() {
		cfg.Recorder.Add(obs.AuditSteps, rep.StatesChecked)
		if !rep.Passed {
			cfg.Recorder.Add(obs.AuditFailures, 1)
		}
	}()

	rep.Split = cfg.Split
	if !validateSequence(task, seq, &cfg, rep) {
		return rep, nil
	}
	rep.Start = slices.Clone(cfg.Executed)
	replay(task, seq, &cfg, rep)
	return rep, nil
}

// CheckSequence is Verify's structural audit alone, as an error: no
// network state is replayed.
func CheckSequence(task *migration.Task, seq []int, cfg Config) error {
	rep := &Report{FailStep: -1}
	if !validateSequence(task, seq, &cfg, rep) {
		return fmt.Errorf("audit: %s", rep.Reason)
	}
	return nil
}

// fail records the first audit failure and reports false.
func (r *Report) fail(step int, format string, args ...any) bool {
	r.Passed = false
	r.FailStep = step
	r.Reason = fmt.Sprintf(format, args...)
	return false
}

// validateSequence performs the structural audit over the executed blocks
// and then the sequence: every referenced block must exist, appear at most
// once, respect canonical within-type order unless FreeOrder, and — unless
// AllowPartial — the two must finish the migration. This is what catches
// maliciously or accidentally reordered, injected, or dropped actions
// before any network state is evaluated.
func validateSequence(task *migration.Task, seq []int, cfg *Config, rep *Report) bool {
	counts := make([]int, task.NumTypes())
	seen := make(map[int]bool, len(seq)+len(cfg.Executed))
	// admit takes id as the next block operated, or says why it cannot be.
	admit := func(id int) string {
		if id < 0 || id >= len(task.Blocks) {
			return fmt.Sprintf("references invalid block %d", id)
		}
		if seen[id] {
			return fmt.Sprintf("repeats block %q (duplicate or injected action)", task.Blocks[id].Name)
		}
		seen[id] = true
		ty := task.Blocks[id].Type
		ofType := task.BlocksOfType(ty)
		if counts[ty] >= len(ofType) {
			return fmt.Sprintf("exceeds the %d blocks of type %s (injected action)", len(ofType), task.Types[ty].Name)
		}
		if want := ofType[counts[ty]]; !cfg.FreeOrder && want != id {
			return fmt.Sprintf("operates block %q out of canonical order (want %q) — reordered action",
				task.Blocks[id].Name, task.Blocks[want].Name)
		}
		counts[ty]++
		return ""
	}
	for i, id := range cfg.Executed {
		if why := admit(id); why != "" {
			return rep.fail(0, "executed step %d %s", i, why)
		}
	}
	for i, id := range seq {
		if why := admit(id); why != "" {
			return rep.fail(i, "step %d %s", i, why)
		}
	}
	if !cfg.AllowPartial {
		for ty, c := range counts {
			if total := len(task.BlocksOfType(migration.ActionType(ty))); c != total {
				return rep.fail(len(seq), "sequence incomplete for type %s (%d of %d) — dropped action",
					task.Types[ty].Name, c, total)
			}
		}
	}
	return true
}

// replay executes the sequence on a fresh view with a fresh serial
// evaluator, checking the initial state, every run boundary, and the final
// state.
func replay(task *migration.Task, seq []int, cfg *Config, rep *Report) {
	theta := cfg.Theta
	if theta <= 0 {
		theta = 0.75
	}
	view := task.Topo.NewView()
	eval := routing.NewEvaluator(task.Topo)

	// The run state: the type of the run in progress, the length of its
	// current chunk, and the most recently executed block (for funneling
	// headroom). applied counts all executed actions including the executed
	// blocks: it is the state's demand-forecast horizon, matching the
	// planners' absolute count vectors.
	last := NoLast
	tail := 0
	applied := 0
	lastBlock := -1

	// check audits the current view as the state preceding sequence index
	// idx (block = the next block, -1 at the end). withFunnel applies the
	// funneling headroom of the block just operated; the initial state is
	// checked without it, matching the planner's (V, NoLast) semantics.
	check := func(idx, block int, withFunnel bool) bool {
		rep.StatesChecked++
		// The state is checked against the demand the network will carry
		// when it is reached: the task's forecast sampled at the state's
		// horizon (total applied actions), not the t=0 demand.
		copts := routing.CheckOpts{Theta: theta, Split: cfg.Split,
			DemandScale: task.Forecast.ScaleAt(applied)}
		if withFunnel && !cfg.FreeOrder && cfg.FunnelFactor > 1 && lastBlock >= 0 {
			copts.FunnelFactor = cfg.FunnelFactor
			copts.FunnelCircuits = funnelCircuits(task, lastBlock)
		}
		res, viol := eval.Evaluate(view, &task.Demands, copts)
		if res.MaxUtil > rep.WorstUtil {
			rep.WorstUtil = res.MaxUtil
		}
		step := Step{Index: idx, Block: block, OK: true, MaxUtil: res.MaxUtil, PlacedMaxUtil: res.PlacedMaxUtil}
		if !viol.OK() {
			step.OK = false
			step.Violation = viol
			rep.Steps = append(rep.Steps, step)
			return rep.fail(idx, "unsafe state before step %d: %s", idx, viol)
		}
		if dc, n, budget, ok := occupancyOK(task, view, cfg.SpaceBudget); !ok {
			step.OK = false
			step.Detail = fmt.Sprintf("space budget exceeded in DC %d: %d switches present, budget %d", dc, n, budget)
			rep.Steps = append(rep.Steps, step)
			return rep.fail(idx, "unsafe state before step %d: %s", idx, step.Detail)
		}
		rep.Steps = append(rep.Steps, step)
		return true
	}

	nextBlock := func(i int) int {
		if i < len(seq) {
			return seq[i]
		}
		return -1
	}
	// boundary reports whether operating id next ends the run in progress:
	// a type change, or a forced split under MaxRunLength. The state being
	// left is then observed by the network and must be safe.
	boundary := func(id int) bool {
		return task.Blocks[id].Type != last ||
			(!cfg.FreeOrder && cfg.MaxRunLength > 0 && tail >= cfg.MaxRunLength)
	}
	operate := func(id int, newRun bool) {
		task.Apply(view, id)
		applied++
		tail++
		if newRun {
			tail = 1
		}
		last = task.Blocks[id].Type
		lastBlock = id
	}

	// The executed blocks run through the same loop, unchecked: they are
	// history, and the replay starts in the run they leave in progress.
	for _, id := range cfg.Executed {
		operate(id, boundary(id))
	}
	if !check(0, nextBlock(0), false) {
		return
	}
	for i, id := range seq {
		b := boundary(id)
		if b && last != NoLast && !check(i, id, true) {
			return
		}
		operate(id, b)
	}
	if !check(len(seq), -1, true) {
		return
	}
	rep.Passed = true
}

// occupancyOK counts the switches physically present per datacenter
// directly from the replayed view — old switches occupy their slot until
// drained, new switches from the moment they are undrained — and compares
// against the budget. It reports the first offending DC, or ok == true.
func occupancyOK(task *migration.Task, view *topo.View, budget map[int]int) (dc, n, limit int, ok bool) {
	if len(budget) == 0 {
		return 0, 0, 0, true
	}
	present := make(map[int]int)
	for i := 0; i < task.Topo.NumSwitches(); i++ {
		if view.SwitchActive(topo.SwitchID(i)) {
			present[task.Topo.Switch(topo.SwitchID(i)).DC]++
		}
	}
	for i := 0; i < task.Topo.NumSwitches(); i++ {
		d := task.Topo.Switch(topo.SwitchID(i)).DC
		if b, capped := budget[d]; capped && b > 0 && present[d] > b {
			return d, present[d], b, false
		}
	}
	return 0, 0, 0, true
}

// funnelCircuits re-derives — independently of the planner — the up
// circuits that survive next to the circuits a drain block takes down: the
// circuits onto which traffic funnels while the block's elements drain
// asynchronously (§2.2). Empty for undrain blocks: adding capacity does
// not funnel traffic.
func funnelCircuits(task *migration.Task, blockID int) []topo.CircuitID {
	b := &task.Blocks[blockID]
	if task.Types[b.Type].Op != migration.Drain {
		return nil
	}
	affected := make(map[topo.SwitchID]bool)
	operated := make(map[topo.CircuitID]bool)
	for _, s := range b.Switches {
		for _, c := range task.Topo.Switch(s).Circuits() {
			operated[c] = true
			affected[task.Topo.Circuit(c).Other(s)] = true
		}
	}
	for _, c := range b.Circuits {
		operated[c] = true
		ck := task.Topo.Circuit(c)
		affected[ck.A] = true
		affected[ck.B] = true
	}
	var out []topo.CircuitID
	for s := range affected {
		for _, c := range task.Topo.Switch(s).Circuits() {
			if !operated[c] {
				out = append(out, c)
			}
		}
	}
	return out
}
