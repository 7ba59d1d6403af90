package ctrl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"klotski/internal/core"
	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/sched"
)

// Fleet-scale planning: N fabrics planned concurrently under one shared
// admission pool. Starting every planner at once oversubscribes the host
// N-fold, and planning them one after another idles it; Fleet runs each
// member through RunLegs admitted to the shared sched.Pool, so at most a
// worker budget's worth of plans run at a time, and aggregates the plans
// and certificates into one report.

// FleetMember is one fabric's planning job.
type FleetMember struct {
	Name string
	Task *migration.Task

	// Planner selects the planning algorithm ("" = A*); Options are the
	// member's planning options. Options.Bound, when nil, receives a fresh
	// engine.
	Planner Planner
	Options core.Options

	// Priority orders pool preemption (higher preempts lower); MinShare is
	// the member's worker reservation (see sched.ClientOptions).
	Priority int
	MinShare int

	legHook func(leg int) error // RunLegs' per-leg hook; tests set it
}

// maxFleetPreemptions is the fleet's starvation guard: a member preempted
// this often finishes without a pool client.
const maxFleetPreemptions = 16

// FleetOptions parameterizes a fleet run.
type FleetOptions struct {
	// Pool is the shared admission pool. Required.
	Pool *sched.Pool

	// Recorder (nil-safe) receives fleet.plans_admitted and aggregates
	// the members' planner counters when the members' own options carry
	// no recorder.
	Recorder *obs.Recorder
}

// FleetMemberReport is one member's outcome.
type FleetMemberReport struct {
	Name        string
	Plan        *core.Plan
	Err         error
	Preemptions int           // checkpoint-resume cycles forced by the pool
	Admitted    int           // pool admissions, including re-admissions
	Wait        time.Duration // cumulative admission blocking
	Elapsed     time.Duration // admission through final plan (or error)
}

// FleetReport aggregates a fleet run.
type FleetReport struct {
	Members   []FleetMemberReport
	Admitted  int // pool admissions, including post-preemption re-admissions
	Completed int
	Failed    int

	Makespan    time.Duration // wall clock for the whole fleet
	TotalCost   float64       // sum of completed members' plan costs
	CrossHits   int           // always 0: bench/ still reads it (ROADMAP item 5(g) drops it)
	Preemptions int
}

// Fleet plans every member concurrently under opts.Pool and returns the
// aggregate report. Individual member failures are fleet data (recorded
// in the member report and counted in Failed), not an error; only a nil
// pool or a cancelled context fail the fleet itself. Member order in the
// report matches the input order regardless of completion order.
func Fleet(ctx context.Context, members []FleetMember, opts FleetOptions) (*FleetReport, error) {
	if opts.Pool == nil {
		return nil, errors.New("ctrl: fleet requires a worker pool")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	rep := &FleetReport{Members: make([]FleetMemberReport, len(members))}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep.Members[i] = planMember(ctx, members[i], &opts)
		}(i)
	}
	wg.Wait()
	rep.Makespan = time.Since(start)

	for i := range rep.Members {
		m := &rep.Members[i]
		rep.Preemptions += m.Preemptions
		rep.Admitted += m.Admitted
		if m.Err != nil || m.Plan == nil {
			rep.Failed++
			continue
		}
		rep.Completed++
		rep.TotalCost += m.Plan.Cost
	}
	if err := ctx.Err(); err != nil {
		return rep, fmt.Errorf("ctrl: fleet cancelled: %w", err)
	}
	return rep, nil
}

// planMember runs one member through RunLegs, admitted to the fleet's pool
// until it has been preempted maxFleetPreemptions times.
func planMember(ctx context.Context, m FleetMember, fo *FleetOptions) (rep FleetMemberReport) {
	rep.Name = m.Name
	start := time.Now()
	opts := m.Options
	if opts.Bound == nil {
		opts.Bound = core.NewBoundEngine(m.Task, opts)
	}
	rep.Plan, rep.Preemptions, rep.Admitted, rep.Err = RunLegs(ctx, Legs{
		Task:    m.Task,
		Options: opts,
		Planner: m.Planner,
		Leg:     m.legHook,
		Admit: func(preemptions int) (*sched.Client, error) {
			if preemptions >= maxFleetPreemptions {
				return nil, nil
			}
			w := time.Now()
			c, err := fo.Pool.Register(m.Name, sched.ClientOptions{Priority: m.Priority, MinShare: m.MinShare})
			rep.Wait += time.Since(w)
			if err == nil {
				fo.Recorder.Add(obs.FleetPlansAdmitted, 1)
			}
			return c, err
		},
	})
	rep.Elapsed = time.Since(start)
	return rep
}

// String renders a one-line fleet summary.
func (r *FleetReport) String() string {
	return fmt.Sprintf("fleet of %d plans: %d completed, %d failed, %d admissions, %d preemptions, total cost %.3f, makespan %s",
		len(r.Members), r.Completed, r.Failed, r.Admitted, r.Preemptions, r.TotalCost, r.Makespan.Round(time.Millisecond))
}
