package ctrl

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"klotski/internal/bound"
	"klotski/internal/core"
	"klotski/internal/migration"
	"klotski/internal/pipeline"
	"klotski/internal/sched"
	"klotski/internal/sim"
)

// CampaignOptions parameterizes a Monte Carlo chaos campaign: the same
// migration executed under many independently drawn fault trains.
type CampaignOptions struct {
	Seeds int   // number of runs (default 16)
	Seed  int64 // base seed; run s uses absolute seed Seed+s

	// Schedule parameterizes the per-run fault draw.
	Schedule sim.ScheduleOptions

	// Run is the per-run controller configuration. Every run starts from
	// the plan of the untouched task, made once per campaign: Run.Plan
	// when it is that plan (its audit passed, started from no executed
	// block, and covers every action), otherwise planned here as a run
	// would plan it. Journal is ignored (campaigns do not journal); Sleep
	// defaults to a no-op so thousands of simulated retries do not
	// wall-clock sleep. The seeds run concurrently, so a caller's Sleep
	// and Config.Options.Recorder are called from several goroutines. Its
	// Config.Options.Evaluator and .Bound plan only the pristine plan: each
	// worker plans on a fork of the evaluator and on a fresh bound engine,
	// the engines sharing their structural cuts through one bound.Store.
	Run Options

	// Pool, when non-nil, is a budget the campaign shares with other
	// plans: each seed registers a client before its run, so admission
	// control also throttles the campaign to the pool's worker budget.
	Pool *sched.Pool
}

// campaignTestRunHook runs as each seed's run starts (true: as the seed is
// claimed, before another seed can be) and ends (false). Tests use it to
// count the runs in flight and to cancel a campaign from inside a run.
var campaignTestRunHook = func(seed int64, start bool) {}

// CampaignReport aggregates a chaos campaign. The paper's safety claim is
// about plans; this report is about *operations*: how often the closed
// loop carries a migration through a hostile environment, and at what
// cost in retries and replans.
type CampaignReport struct {
	Seeds     int
	Completed int

	CompletionRate float64
	TotalRetries   int
	TotalReplans   int

	// Drift-loop aggregates (all zero unless Run.DriftThreshold is set).
	DriftReplans    int // replans triggered by observed demand drift
	GapSkips        int // drift replans skipped on a certified optimality gap
	TelemetryFaults int // demand observations dropped or failing sanity checks
	DegradedRuns    int // runs executed against the inflated-demand envelope

	// BoundaryViolations across all runs — any nonzero value means the
	// controller let the live network reach an unsafe boundary state.
	BoundaryViolations int

	PeakUtil  float64 // worst boundary utilization across runs
	WorstSeed int64   // absolute seed of the worst-peak run

	// FailedSeeds lists the absolute seeds of runs that did not complete
	// (replanning infeasible, budgets exhausted), for replay.
	FailedSeeds []int64
}

// Campaign executes the task once per seed, each run against a fresh
// world with its own random fault train, on min(Seeds, GOMAXPROCS)
// goroutines that take the seeds in ascending order. A run is a pure
// function of its seed and the outcomes fold in seed order, so the report
// is the same at any GOMAXPROCS. A run failing to complete is campaign
// data, not an error; only cancellation or a closed pool aborts.
func Campaign(ctx context.Context, task *migration.Task, opts CampaignOptions) (*CampaignReport, error) {
	if opts.Seeds <= 0 {
		opts.Seeds = 16
	}
	if ctx == nil {
		ctx = context.Background()
	}
	runOpts := opts.Run
	runOpts.Journal = nil
	if runOpts.Sleep == nil {
		runOpts.Sleep = func(time.Duration) {}
	}
	runOpts.Plan = pristinePlan(ctx, task, runOpts.Plan, runOpts.Config, opts.Pool)
	store := bound.NewStore()

	outs := make([]*Outcome, opts.Seeds)
	errs := make([]error, opts.Seeds)
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := 0
	// claim hands out the next seed until the seeds run out or ctx is done.
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == opts.Seeds || ctx.Err() != nil {
			return 0, false
		}
		campaignTestRunHook(opts.Seed+int64(next), true)
		next++
		return next - 1, true
	}
	for w := min(opts.Seeds, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ro := runOpts // each worker plans on its own evaluator and engine
			if o := &ro.Config.Options; o.Evaluator != nil {
				o.Evaluator = o.Evaluator.Fork()
			}
			if o := &ro.Config.Options; o.Bound != nil {
				o.Bound = core.NewBoundEngine(task, *o)
				o.Bound.Attach(store)
			}
			for s, ok := claim(); ok; s, ok = claim() {
				outs[s], errs[s] = runSeed(ctx, task, opts, ro, opts.Seed+int64(s))
				campaignTestRunHook(opts.Seed+int64(s), false)
			}
		}()
	}
	wg.Wait()

	rep := &CampaignReport{Seeds: opts.Seeds, WorstSeed: opts.Seed}
	for s, out := range outs {
		if err := ctx.Err(); err != nil && (out == nil || errs[s] != nil) {
			return nil, fmt.Errorf("ctrl: campaign cancelled after %d of %d runs: %w", s, opts.Seeds, err)
		}
		if out == nil { // the pool closed before the seed was admitted
			return nil, fmt.Errorf("ctrl: campaign seed %d did not run: %w", opts.Seed+int64(s), errs[s])
		}
		rep.fold(opts.Seed+int64(s), out)
	}
	rep.CompletionRate = float64(rep.Completed) / float64(rep.Seeds)
	return rep, nil
}

// runSeed runs one seed, once the pool (if any) admits it, on a fresh world.
func runSeed(ctx context.Context, task *migration.Task, opts CampaignOptions, ro Options, seed int64) (*Outcome, error) {
	if opts.Pool != nil {
		client, err := opts.Pool.Register(fmt.Sprintf("campaign-%d", seed), sched.ClientOptions{})
		if err != nil {
			return nil, err
		}
		defer client.Close()
	}
	world := sim.NewWorld(task, sim.RandomSchedule(task, seed, opts.Schedule), seed)
	ro.Seed = seed
	return Run(ctx, task, world, ro)
}

// pristinePlan returns the plan every run of the campaign starts from.
// sim.RandomSchedule draws no fault before the first action, so a run's
// first Poll leaves its world untouched, and the run would plan the task
// from the empty prefix: a pure function of the task and the config. The
// caller's plan is used when it is that plan (audit passed from no
// executed block, every action covered). Otherwise the task is planned
// here, once, through the same calls a run makes. The result is nil when
// that planning fails, and each run then plans for itself. Run still
// checks the shared plan against its own world, so a schedule with a fault
// at step 0 replans as before.
func pristinePlan(ctx context.Context, task *migration.Task, given *core.Plan, cfg pipeline.Config, pool *sched.Pool) *core.Plan {
	if given != nil && given.Audit != nil && given.Audit.Passed &&
		len(given.Audit.Start) == 0 && len(given.Sequence) == task.NumActions() {
		return given
	}
	if pool != nil {
		client, err := pool.Register("campaign-plan", sched.ClientOptions{})
		if err != nil {
			return nil
		}
		defer client.Close()
	}
	p, err := pipeline.ReplanContext(ctx, task, nil, nil, cfg)
	if err != nil || ensureAudited(p, nil, cfg) != nil {
		return nil
	}
	return p
}

// fold merges one seed's outcome into the report, in ascending seed
// order.
func (r *CampaignReport) fold(seed int64, out *Outcome) {
	r.TotalRetries += out.Retries
	r.TotalReplans += out.Replans
	r.DriftReplans += out.DriftReplans
	r.GapSkips += out.GapSkips
	r.TelemetryFaults += out.TelemetryFaults
	r.DegradedRuns += out.DegradedRuns
	r.BoundaryViolations += out.BoundaryViolations
	if out.Completed {
		r.Completed++
	} else {
		r.FailedSeeds = append(r.FailedSeeds, seed)
	}
	if out.PeakUtil > r.PeakUtil {
		r.PeakUtil = out.PeakUtil
		r.WorstSeed = seed
	}
}

// String renders a one-line campaign summary.
func (r *CampaignReport) String() string {
	s := fmt.Sprintf("chaos campaign over %d seeds: %.0f%% completed, %d retries, %d replans, %d boundary violations, peak util %.3f (worst seed %d)",
		r.Seeds, 100*r.CompletionRate, r.TotalRetries, r.TotalReplans,
		r.BoundaryViolations, r.PeakUtil, r.WorstSeed)
	if r.DriftReplans+r.GapSkips+r.TelemetryFaults+r.DegradedRuns > 0 {
		s += fmt.Sprintf("; drift: %d drift replans, %d gap skips, %d telemetry faults, %d degraded runs",
			r.DriftReplans, r.GapSkips, r.TelemetryFaults, r.DegradedRuns)
	}
	return s
}
