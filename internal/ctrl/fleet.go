package ctrl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"klotski/internal/bound"
	"klotski/internal/core"
	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/sched"
)

// Fleet-scale planning: N fabrics planned concurrently under one shared
// admission pool.
//
// A production operator rarely plans one fabric at a time; campaigns plan
// dozens, and the naive approach — every fabric's planner started at once
// — oversubscribes the host N-fold while planning them one after another
// idles it. Fleet admits each member to the shared sched.Pool (blocking
// when the pool's reservations are full), so at most a worker budget's
// worth of serial plans run at a time, and aggregates the per-member plans
// and certificates into one report.
//
// Preemption: when a higher-priority member's admission preempts a
// running plan, the victim's pool client's Preempted channel closes; the
// member's watcher cancels the planning context, the planner checkpoints
// through the existing *core.Interrupted machinery, the client is closed
// (releasing its reservation to the preemptor), and the member blocks in
// re-registration until capacity frees, then resumes the checkpoint.
// Because plans are byte-identical at any interruption point, a
// preempted-and-resumed member produces exactly the plan an undisturbed
// run would have.

// fleetTestPlanHook, when non-nil, runs in planMember immediately before
// each planning leg (the preemption watcher is already armed). Tests use
// it to hold a member at the starting line until a higher-priority
// registration has preempted it, making preempt-checkpoint-resume cycles
// deterministic.
var fleetTestPlanHook func(name string)

// FleetMember is one fabric's planning job.
type FleetMember struct {
	Name string
	Task *migration.Task

	// Planner selects the planning algorithm ("" = A*); Options are the
	// member's planning options. Options.Bound, when nil and cut sharing is
	// on, receives a store-attached engine.
	Planner Planner
	Options core.Options

	// Priority orders pool preemption (higher preempts lower); MinShare is
	// the member's worker reservation (see sched.ClientOptions).
	Priority int
	MinShare int
}

// Planner mirrors pipeline.Planner's dispatch for the planners that
// support pool attachment and checkpoint resume. Kept local so ctrl does
// not grow a pipeline dependency for fleet planning.
type Planner string

// Fleet planner names.
const (
	PlannerAStar Planner = "astar"
	PlannerDP    Planner = "dp"
)

func (p Planner) plan(ctx context.Context, task *migration.Task, opts core.Options) (*core.Plan, error) {
	switch p {
	case PlannerAStar, "":
		return core.PlanAStarContext(ctx, task, opts)
	case PlannerDP:
		return core.PlanDPContext(ctx, task, opts)
	}
	return nil, fmt.Errorf("ctrl: unknown fleet planner %q", p)
}

// FleetOptions parameterizes a fleet run.
type FleetOptions struct {
	// Pool is the shared admission pool. Required.
	Pool *sched.Pool

	// NoSharedCuts disables the fleet-wide bound.Store. With sharing on
	// (the default), members planning the same fabric structure exchange
	// structural cuts: plan bytes are unaffected, but search-effort
	// metrics (states expanded) become arrival-order dependent, so
	// deterministic benchmarks switch sharing off.
	NoSharedCuts bool

	// MaxPreemptions bounds checkpoint-resume cycles per member before
	// the member finishes without a pool client (default 16).
	MaxPreemptions int

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
	CrossHits   int           // structural cuts imported across members
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
	if opts.MaxPreemptions <= 0 {
		opts.MaxPreemptions = 16
	}
	var store *bound.Store
	if !opts.NoSharedCuts {
		store = bound.NewStore()
	}

	rep := &FleetReport{Members: make([]FleetMemberReport, len(members))}
	start := time.Now()
	var wg sync.WaitGroup
	for i := range members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep.Members[i] = planMember(ctx, members[i], &opts, store)
		}(i)
	}
	wg.Wait()
	rep.Makespan = time.Since(start)

	for i := range rep.Members {
		m := &rep.Members[i]
		rep.Preemptions += m.Preemptions
		rep.Admitted += 1 + m.Preemptions
		if m.Err != nil || m.Plan == nil {
			rep.Failed++
			continue
		}
		rep.Completed++
		rep.TotalCost += m.Plan.Cost
		rep.CrossHits += m.Plan.Metrics.BoundCrossHits
	}
	if err := ctx.Err(); err != nil {
		return rep, fmt.Errorf("ctrl: fleet cancelled: %w", err)
	}
	return rep, nil
}

// planMember runs one member to completion: admit, plan, and — as often
// as the pool preempts it — checkpoint, re-admit, resume.
func planMember(ctx context.Context, m FleetMember, fo *FleetOptions, store *bound.Store) (rep FleetMemberReport) {
	rep.Name = m.Name
	start := time.Now()
	// rep is the named result so that this write reaches the caller.
	defer func() { rep.Elapsed = time.Since(start) }()
	admit := func() (*sched.Client, error) {
		w := time.Now()
		c, err := fo.Pool.Register(m.Name, sched.ClientOptions{Priority: m.Priority, MinShare: m.MinShare})
		rep.Wait += time.Since(w)
		if err == nil {
			fo.Recorder.Add(obs.FleetPlansAdmitted, 1)
		}
		return c, err
	}

	copts := m.Options
	if store != nil && copts.Bound == nil {
		eng := core.NewBoundEngine(m.Task, copts)
		eng.Attach(store)
		copts.Bound = eng
	}

	client, err := admit()
	if err != nil {
		rep.Err = err
		return rep
	}

	var cp *core.Checkpoint
	for {
		// Watch for preemption while the planner runs: the pool closes
		// Preempted, the watcher cancels the planning context, and the
		// planner checkpoints cooperatively.
		pctx := ctx
		var cancel context.CancelFunc
		planned := make(chan struct{})
		if client != nil {
			pctx, cancel = context.WithCancel(ctx)
			go func(c *sched.Client) {
				select {
				case <-c.Preempted():
					cancel()
				case <-planned:
				}
			}(client)
		}

		if fleetTestPlanHook != nil {
			fleetTestPlanHook(m.Name)
		}

		// A preemption that lands before the leg starts is honored without
		// burning the leg: the planner would otherwise run on an already-
		// cancelled context (or, on a small fabric, finish before noticing
		// it). There is no new checkpoint to take, so the member just gives
		// its reservation back and queues for re-admission — or finishes
		// clientless past the starvation cap.
		if client != nil {
			select {
			case <-client.Preempted():
				close(planned)
				cancel()
				client.Close()
				rep.Preemptions++
				if rep.Preemptions >= fo.MaxPreemptions {
					client = nil
					continue
				}
				if client, err = admit(); err != nil {
					rep.Err = err
					return rep
				}
				continue
			default:
			}
		}
		var plan *core.Plan
		if cp != nil {
			plan, err = core.Resume(pctx, cp, copts)
		} else {
			plan, err = m.Planner.plan(pctx, m.Task, copts)
		}
		close(planned)
		if cancel != nil {
			cancel()
		}

		// Preemption is detected from the channel itself, after the
		// planner returns — a plan that raced its completion against the
		// preemption signal is still a finished plan.
		preempted := false
		if client != nil {
			select {
			case <-client.Preempted():
				preempted = true
			default:
			}
			client.Close()
		}
		if err == nil {
			rep.Plan = plan
			return rep
		}
		var intr *core.Interrupted
		if !preempted || !errors.As(err, &intr) {
			// A real failure, an outer cancellation, or a planner that
			// cannot checkpoint: the member is done.
			rep.Err = err
			return rep
		}
		rep.Preemptions++
		cp = intr.Checkpoint
		if rep.Preemptions >= fo.MaxPreemptions {
			// Starvation guard: finish the leg without a pool client,
			// byte-identically.
			client = nil
			continue
		}
		client, err = admit()
		if err != nil {
			rep.Err = err
			return rep
		}
	}
}

// String renders a one-line fleet summary.
func (r *FleetReport) String() string {
	return fmt.Sprintf("fleet of %d plans: %d completed, %d failed, %d admissions, %d preemptions, %d cross-plan cuts, total cost %.3f, makespan %s",
		len(r.Members), r.Completed, r.Failed, r.Admitted, r.Preemptions, r.CrossHits, r.TotalCost, r.Makespan.Round(time.Millisecond))
}
