// Package sim executes migration plans step by step against the routing
// model, the way a field rollout would experience them.
//
// Planners check network states at run boundaries, because the actions of a
// run execute "in parallel" (paper §3). In reality that parallelism is
// asynchronous: circuits drain one at a time, and while a run is in flight
// the network passes through partial states the planner never checked —
// this is exactly the traffic-funneling phenomenon of §2.2. The simulator
// replays a plan with configurable intra-run asynchrony and reports both
// boundary safety (must hold for a valid plan) and transient excursions
// (which funneling headroom, core.Options.FunnelFactor, is designed to
// absorb). It can also inject demand surges and switch failures mid-flight
// (§7.2) to drive replanning flows.
package sim

import (
	"fmt"
	"math/rand"

	"klotski/internal/core"
	"klotski/internal/demand"
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

	// Forecast grows demand as steps complete (§7.1).
	Forecast demand.Forecast

	// Surge, when non-nil, multiplies a fraction of demands at the given
	// run index (§7.2 "unexpected traffic surge").
	SurgeAtRun int
	Surge      *demand.Surge

	// InjectFailure takes FailSwitch down just before run FailAtRun
	// executes (§7.2 "failures during operation duration").
	InjectFailure bool
	FailAtRun     int
	FailSwitch    topo.SwitchID

	// Faults is a chaos schedule fired by executed-action count as the
	// replay progresses — the multi-fault generalization of InjectFailure.
	// FaultTransient entries are ignored here: the replay has no retry
	// loop (see internal/ctrl for the closed-loop executor that does).
	Faults Schedule
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

	// HaltedAt is the run index where execution stopped (boundary
	// violation with HaltOnViolation), or -1.
	HaltedAt int
}

// Executor replays plans over a task.
type Executor struct {
	task *migration.Task
	eval *routing.Evaluator

	// HaltOnViolation stops execution at the first unsafe boundary
	// instead of recording it and continuing.
	HaltOnViolation bool
}

// NewExecutor returns an executor for the task.
func NewExecutor(task *migration.Task) *Executor {
	return &Executor{task: task, eval: routing.NewEvaluator(task.Topo)}
}

// Execute replays the block sequence and returns the execution report. The
// sequence must be a valid plan for the task (use core.VerifyPlan, the
// audit's verdict, first; Execute itself only runs the audit's structural
// check, core.ValidateSequence).
func (e *Executor) Execute(seq []int, opts Options) (*Report, error) {
	if err := core.ValidateSequence(e.task, seq, nil); err != nil {
		return nil, err
	}
	theta := opts.Theta
	if theta <= 0 {
		theta = 0.75
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	task := e.task
	view := task.Topo.NewView()
	demands := task.Demands.Clone()

	report := &Report{HaltedAt: -1}
	runs := groupRuns(task, seq)
	stepsDone := 0
	faultFired := make([]bool, len(opts.Faults))
	flapRecovery := make(map[topo.CircuitID]int)
	type surgeRecovery struct {
		step       int
		multiplier float64
		hit        []int32
	}
	var surgeRecoveries []surgeRecovery
	for ri, run := range runs {
		if opts.InjectFailure && ri == opts.FailAtRun {
			view.DrainSwitch(opts.FailSwitch)
		}
		if opts.Surge != nil && ri == opts.SurgeAtRun {
			demands = opts.Surge.Apply(demands, rng)
		}
		// Chaos schedule: fire due faults and recover expired flaps at run
		// granularity (the replay observes at run boundaries).
		for c, at := range flapRecovery {
			if at <= stepsDone {
				delete(flapRecovery, c)
				view.SetCircuitActive(c, true)
			}
		}
		keep := surgeRecoveries[:0]
		for _, sr := range surgeRecoveries {
			if sr.step > stepsDone {
				keep = append(keep, sr)
				continue
			}
			for _, di := range sr.hit {
				demands.Demands[di].Rate /= sr.multiplier
			}
		}
		surgeRecoveries = keep
		for fi := range opts.Faults {
			f := &opts.Faults[fi]
			if faultFired[fi] || f.Step > stepsDone {
				continue
			}
			faultFired[fi] = true
			switch f.Kind {
			case FaultSwitchDown:
				view.SetSwitchActive(f.Switch, false)
			case FaultCircuitFlap:
				view.SetCircuitActive(f.Circuit, false)
				steps := f.Steps
				if steps <= 0 {
					steps = 1
				}
				flapRecovery[f.Circuit] = stepsDone + steps
			case FaultSurge:
				if f.Surge != nil {
					var hit []int32
					demands, hit = f.Surge.ApplyTracked(demands, rng)
					if f.Steps > 0 && len(hit) > 0 {
						surgeRecoveries = append(surgeRecoveries, surgeRecovery{
							step: stepsDone + f.Steps, multiplier: f.Surge.Multiplier, hit: hit})
					}
				}
			case FaultTransient:
				// No retry loop here; nothing to fail.
			default:
				// Telemetry faults degrade the controller's observation
				// channel (internal/ctrl); the open-loop replay reads
				// ground truth directly and is unaffected.
			}
		}
		grown := opts.Forecast.At(demands, stepsDone)

		sr := StepReport{
			Run:        ri + 1,
			ActionType: task.Types[run.ty].Name,
			Blocks:     len(run.blocks),
		}

		// Intra-run asynchrony: observe partial states per the granularity.
		switch opts.Granularity {
		case GranularityRun:
			for _, id := range run.blocks {
				task.Apply(view, id)
			}
		case GranularityBlock, GranularityCircuit:
			order := append([]int(nil), run.blocks...)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for bi, id := range order {
				if opts.Granularity == GranularityCircuit {
					e.applyBlockCircuitwise(view, id, rng, grown, theta, opts.Split, &sr)
				} else {
					task.Apply(view, id)
				}
				last := bi == len(order)-1
				if !last {
					e.observeTransient(view, &grown, theta, opts.Split, &sr)
				}
			}
		}
		stepsDone += len(run.blocks)

		// Boundary check: this is the state the planner guaranteed.
		res, viol := e.eval.Evaluate(view, &grown, routing.CheckOpts{Theta: theta, Split: opts.Split})
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
		if sr.BoundaryUnsafe && e.HaltOnViolation {
			report.HaltedAt = ri
			return report, nil
		}
	}
	report.Completed = true
	return report, nil
}

// applyBlockCircuitwise flips a block's elements one at a time, observing
// the network after each flip — the worst-case asynchrony.
func (e *Executor) applyBlockCircuitwise(view *topo.View, blockID int, rng *rand.Rand, ds demand.Set, theta float64, split routing.SplitMode, sr *StepReport) {
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
			e.observeTransient(view, &ds, theta, split, sr)
		}
	}
	circuits := append([]topo.CircuitID(nil), b.Circuits...)
	rng.Shuffle(len(circuits), func(i, j int) { circuits[i], circuits[j] = circuits[j], circuits[i] })
	for i, c := range circuits {
		view.SetCircuitActive(c, undrain)
		if i < len(circuits)-1 {
			e.observeTransient(view, &ds, theta, split, sr)
		}
	}
}

func (e *Executor) observeTransient(view *topo.View, ds *demand.Set, theta float64, split routing.SplitMode, sr *StepReport) {
	res, viol := e.eval.Evaluate(view, ds, routing.CheckOpts{Theta: theta, Split: split})
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

type runGroup struct {
	ty     migration.ActionType
	blocks []int
}

func groupRuns(task *migration.Task, seq []int) []runGroup {
	var runs []runGroup
	for _, id := range seq {
		ty := task.Blocks[id].Type
		if len(runs) == 0 || runs[len(runs)-1].ty != ty {
			runs = append(runs, runGroup{ty: ty})
		}
		runs[len(runs)-1].blocks = append(runs[len(runs)-1].blocks, id)
	}
	return runs
}

// String renders a one-line summary of the report.
func (r *Report) String() string {
	status := "completed"
	if !r.Completed {
		status = fmt.Sprintf("halted at run %d", r.HaltedAt+1)
	}
	return fmt.Sprintf("%s: %d runs, peak util %.3f, %d boundary / %d transient violations",
		status, len(r.Steps), r.PeakUtil, r.BoundaryViolations, r.TransientViolations)
}
