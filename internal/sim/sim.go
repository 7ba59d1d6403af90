// Package sim executes migration plans step by step against the routing
// model, the way a field rollout would experience them.
//
// Planners check network states at run boundaries, because the actions of a
// run execute "in parallel" (paper §3). In reality that parallelism is
// asynchronous: circuits drain one at a time, and while a run is in flight
// the network passes through partial states the planner never checked —
// this is exactly the traffic-funneling phenomenon of §2.2. The Executor
// replays a plan with configurable intra-run asynchrony, at the demand its
// task forecasts (migration.Task.Forecast, §7.1), and reports both boundary
// safety (must hold for a valid plan) and transient excursions (which
// funneling headroom, core.Options.FunnelFactor, is designed to absorb).
//
// Faults during a migration (§7.2) belong to the World (chaos.go): it fires
// a seeded Schedule of outages, flaps, surges and transient failures as a
// controller applies blocks, and the closed loop in internal/ctrl observes,
// retries and replans against it.
package sim

import (
	"fmt"
	"math/rand"

	"klotski/internal/core"
	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// Granularity controls how finely the simulator interleaves intra-run
// asynchrony.
type Granularity int

const (
	// GranularityRun applies each run atomically: only boundary states are
	// observed (what the planner guarantees).
	GranularityRun Granularity = iota
	// GranularityBlock applies a run's blocks one at a time in shuffled
	// order, observing every partial state.
	GranularityBlock
	// GranularityCircuit additionally drains each block's circuits one at
	// a time — the worst-case asynchrony that produces textbook traffic
	// funneling.
	GranularityCircuit
)

// Options parameterizes a simulation.
type Options struct {
	Theta       float64           // utilization bound (default 0.75)
	Split       routing.SplitMode // traffic splitting policy (ECMP or WCMP)
	Granularity Granularity       // intra-run asynchrony (default GranularityRun)
	Seed        int64             // shuffle seed for asynchrony order
}

// StepReport records what one run did to the network.
type StepReport struct {
	Run        int
	ActionType string
	Blocks     int

	BoundaryUtil   float64 // max utilization at the run boundary
	BoundaryUnsafe bool    // boundary state violated constraints
	Boundary       routing.Violation

	// Transient excursions observed inside the run (asynchrony only).
	TransientPeakUtil  float64
	TransientViolation int // partial states over θ or unreachable
}

// Report summarizes a full plan execution.
type Report struct {
	Steps     []StepReport
	Completed bool

	BoundaryViolations  int
	TransientViolations int
	PeakUtil            float64 // worst utilization anywhere, any time
}

// Executor replays plans over a task.
type Executor struct {
	task *migration.Task
	eval *routing.Evaluator
}

// NewExecutor returns an executor for the task.
func NewExecutor(task *migration.Task) *Executor {
	return &Executor{task: task, eval: routing.NewEvaluator(task.Topo)}
}

// Execute replays the block sequence and returns the execution report. The
// sequence must be a valid plan for the task (use core.VerifyPlan, the
// audit's verdict, first; Execute itself only runs the audit's structural
// check, core.ValidateSequence). Every observed state, boundary or partial,
// is checked at the task's forecast for its own finished-action count, as
// the audit checks it.
func (e *Executor) Execute(seq []int, opts Options) (*Report, error) {
	if err := core.ValidateSequence(e.task, seq, nil); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	task := e.task
	view := task.Topo.NewView()
	at := func(applied int) routing.CheckOpts {
		return routing.CheckOpts{Theta: opts.Theta, Split: opts.Split, DemandScale: task.Forecast.ScaleAt(applied)}
	}

	report := &Report{}
	applied := 0
	for ri, run := range core.RunsOf(task, seq, 0) {
		sr := StepReport{
			Run:        ri + 1,
			ActionType: task.Types[run.Type].Name,
			Blocks:     len(run.Blocks),
		}

		// Intra-run asynchrony: observe partial states per the granularity.
		switch opts.Granularity {
		case GranularityRun:
			for _, id := range run.Blocks {
				task.Apply(view, id)
			}
			applied += len(run.Blocks)
		case GranularityBlock, GranularityCircuit:
			order := append([]int(nil), run.Blocks...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for bi, id := range order {
				if opts.Granularity == GranularityCircuit {
					e.applyBlockCircuitwise(view, id, rng, at(applied), &sr)
				} else {
					task.Apply(view, id)
				}
				applied++
				if bi < len(order)-1 {
					e.observeTransient(view, at(applied), &sr)
				}
			}
		}

		// Boundary check: this is the state the planner guaranteed.
		res, viol := e.eval.Evaluate(view, &task.Demands, at(applied))
		sr.BoundaryUtil = res.MaxUtil
		if res.MaxUtil > report.PeakUtil {
			report.PeakUtil = res.MaxUtil
		}
		if !viol.OK() {
			sr.BoundaryUnsafe = true
			sr.Boundary = viol
			report.BoundaryViolations++
		}
		report.Steps = append(report.Steps, sr)
		report.TransientViolations += sr.TransientViolation
		if sr.TransientPeakUtil > report.PeakUtil {
			report.PeakUtil = sr.TransientPeakUtil
		}
	}
	report.Completed = true
	return report, nil
}

// applyBlockCircuitwise flips a block's elements one at a time, observing
// the network after each flip — the worst-case asynchrony.
func (e *Executor) applyBlockCircuitwise(view *topo.View, blockID int, rng *rand.Rand, copts routing.CheckOpts, sr *StepReport) {
	task := e.task
	b := &task.Blocks[blockID]
	undrain := task.Types[b.Type].Op == migration.Undrain

	// Switch-level flips first (a switch drain takes all its circuits with
	// it); then explicit circuits.
	switches := append([]topo.SwitchID(nil), b.Switches...)
	rng.Shuffle(len(switches), func(i, j int) { switches[i], switches[j] = switches[j], switches[i] })
	for i, s := range switches {
		view.SetSwitchActive(s, undrain)
		if i < len(switches)-1 || len(b.Circuits) > 0 {
			e.observeTransient(view, copts, sr)
		}
	}
	circuits := append([]topo.CircuitID(nil), b.Circuits...)
	rng.Shuffle(len(circuits), func(i, j int) { circuits[i], circuits[j] = circuits[j], circuits[i] })
	for i, c := range circuits {
		view.SetCircuitActive(c, undrain)
		if i < len(circuits)-1 {
			e.observeTransient(view, copts, sr)
		}
	}
}

func (e *Executor) observeTransient(view *topo.View, copts routing.CheckOpts, sr *StepReport) {
	res, viol := e.eval.Evaluate(view, &e.task.Demands, copts)
	if res.MaxUtil > sr.TransientPeakUtil {
		sr.TransientPeakUtil = res.MaxUtil
	}
	if !viol.OK() && viol.Kind != routing.ViolationPorts {
		// Port overflows mid-run are expected (boundary semantics);
		// utilization and reachability excursions are the funneling
		// signal.
		sr.TransientViolation++
	}
}

// String renders a one-line summary of the report.
func (r *Report) String() string {
	return fmt.Sprintf("completed: %d runs, peak util %.3f, %d boundary / %d transient violations",
		len(r.Steps), r.PeakUtil, r.BoundaryViolations, r.TransientViolations)
}
