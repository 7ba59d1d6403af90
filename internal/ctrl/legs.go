package ctrl

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"klotski/internal/core"
	"klotski/internal/migration"
	"klotski/internal/pipeline"
	"klotski/internal/sched"
)

// Planning legs: the one loop that runs a plan under admission control,
// for klotski -fleet members and klotskid jobs alike. A leg ends with the
// plan, a preemption or a spent leg budget; the last two leave a
// checkpoint the next leg resumes, and plans are byte-identical at every
// interruption point, so how the legs fell never shows in the plan.

// Planner selects a planning algorithm: pipeline's, whose PlanContext is
// the one dispatch.
type Planner = pipeline.Planner

// The planners a run can checkpoint and resume (Planner.Resumable).
const (
	PlannerAStar = pipeline.PlannerAStar
	PlannerDP    = pipeline.PlannerDP
)

// Legs is one plan for RunLegs.
type Legs struct {
	Task    *migration.Task
	Options core.Options
	Planner Planner

	// Admit returns the run's pool client, before the first leg and after
	// every preemption (the caller's starvation guard lives here). A nil
	// client plans unadmitted; an error ends the run.
	Admit func(preemptions int) (*sched.Client, error)
	// Leg (optional) runs before every leg; an error ends the run. A leg a
	// preemption stops before its planner starts runs again, same number.
	Leg func(leg int) error
	// Checkpoint (optional) receives every checkpoint a leg stops at.
	Checkpoint func(cp *core.Checkpoint, reason error)
	// LegStates, when positive, replaces Options.MaxStates per leg, and a
	// spent leg resumes in the next; zero runs one leg.
	LegStates int
}

// LegPanic is a panic raised in a leg's hook, planner or audit (all on the
// caller's goroutine), returned as the run's error.
type LegPanic struct {
	Value any
	Stack []byte
}

func (p *LegPanic) Error() string { return fmt.Sprintf("panic: %v", p.Value) }

// RunLegs runs l to its plan or its error and returns how often the pool
// preempted it and how many clients Admit gave it.
func RunLegs(ctx context.Context, l Legs) (plan *core.Plan, preemptions, admissions int, err error) {
	if !l.Planner.Resumable() {
		return nil, 0, 0, fmt.Errorf("ctrl: planner %q cannot checkpoint", l.Planner)
	}
	var client *sched.Client
	defer func() {
		if client != nil {
			client.Close()
		}
	}()
	admit := func() (err error) {
		if client != nil { // preempted: give the reservation back first
			client.Close()
			preemptions++
		}
		if client, err = l.Admit(preemptions); client != nil {
			admissions++
		}
		return err
	}
	if err := admit(); err != nil {
		return nil, 0, 0, err
	}

	var cp *core.Checkpoint
	for leg := 0; ; leg++ {
		if l.Leg != nil {
			if err := contain(func() error { return l.Leg(leg) }); err != nil {
				return nil, preemptions, admissions, err
			}
		}
		// A preemption that lands before the planner starts costs no leg:
		// there is nothing new to checkpoint.
		if preempted(client) {
			if err := admit(); err != nil {
				return nil, preemptions, admissions, err
			}
			leg--
			continue
		}
		err := contain(func() (err error) {
			plan, err = runLeg(ctx, l, cp, client)
			return err
		})
		if err == nil {
			return plan, preemptions, admissions, nil
		}
		var intr *core.Interrupted
		if !errors.As(err, &intr) {
			return nil, preemptions, admissions, err
		}
		cp = intr.Checkpoint
		if l.Checkpoint != nil && cp != nil {
			l.Checkpoint(cp, intr.Reason)
		}
		switch {
		case ctx.Err() != nil:
			return nil, preemptions, admissions, err
		case preempted(client):
			if err := admit(); err != nil {
				return nil, preemptions, admissions, err
			}
		case l.LegStates <= 0: // the caller's own budget ended the run
			return nil, preemptions, admissions, err
		}
	}
}

// runLeg plans one leg: the plan from the start, or from cp. A preemption
// cancels only the leg's context, so the planner checkpoints without
// ending the run.
func runLeg(ctx context.Context, l Legs, cp *core.Checkpoint, client *sched.Client) (*core.Plan, error) {
	opts := l.Options
	if l.LegStates > 0 {
		opts.MaxStates = l.LegStates
	}
	if client != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		go func() {
			select {
			case <-client.Preempted():
				cancel()
			case <-ctx.Done():
			}
		}()
	}
	if cp != nil {
		return core.Resume(ctx, cp, opts)
	}
	return l.Planner.PlanContext(ctx, l.Task, opts)
}

// contain runs f and returns a panic raised in it as a *LegPanic.
func contain(f func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &LegPanic{Value: v, Stack: debug.Stack()}
		}
	}()
	return f()
}

// preempted reports whether the pool has preempted client (never for nil).
func preempted(client *sched.Client) bool {
	if client == nil {
		return false
	}
	select {
	case <-client.Preempted():
		return true
	default:
		return false
	}
}
