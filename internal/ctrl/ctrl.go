package ctrl

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"klotski/internal/core"
	"klotski/internal/demand"
	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/pipeline"
	"klotski/internal/sim"
)

// Options parameterizes a control-loop run.
type Options struct {
	// Config supplies the planner and planning options used for the
	// initial plan and every replan.
	Config pipeline.Config

	// Plan, when non-nil, is the (audited) plan to execute. When nil, Run
	// plans from the world's executed prefix first. Run also plans afresh,
	// as if Plan were nil, when Plan was made for another world: its audit
	// did not start from world.Executed(), or Run's first Poll fired a
	// fault.
	Plan *core.Plan

	// MaxRetries bounds transient-failure retries per action (default 4),
	// each after a jittered backoff doubling from 10ms up to 1s.
	MaxRetries int

	// MaxReplans bounds replanning across the whole run (default 8) so a
	// hostile environment cannot trap the controller in a plan loop.
	MaxReplans int

	// DriftThreshold enables drift-aware replanning: before each run the
	// controller observes demand telemetry (sim.World.ObserveDemands),
	// refits the forecast, and replans from the current boundary when the
	// relative L1 deviation between observed and planned-for demand
	// exceeds this threshold (e.g. 0.1 = 10% aggregate drift). Drift
	// replans share the MaxReplans budget and are always re-audited.
	// 0 disables the observation loop entirely.
	DriftThreshold float64

	// GapSkipThreshold enables certified-gap replan skipping on top of the
	// drift loop: when observed drift exceeds DriftThreshold, the
	// controller first asks whether a replan could actually help — the
	// remaining plan's cost is compared against the certified completion
	// lower bound of the drifted problem, and the plan is re-audited
	// against the drifted demands and live topology. If the cost is within
	// this relative gap of the bound and the audit passes, no replan can
	// improve cost by more than the gap and the plan is provably still
	// safe, so the replan (and its MaxReplans slot) is skipped. 0 disables
	// the check; it never fires in degraded mode (the envelope, not the
	// observation, is what the plan must track there).
	GapSkipThreshold float64

	// DemandMargin is the degraded-mode safety envelope: when telemetry is
	// unavailable or fails sanity checks even after the watchdog's
	// retries, the controller replans against the last good demand set
	// inflated by this factor instead of stalling or trusting garbage
	// (default 1.25).
	DemandMargin float64

	// Journal, when non-nil, records begin/done/replan entries; pair with
	// OpenJournal + a fresh world to resume after a controller crash.
	Journal *Journal

	// Sleep is the backoff sleeper, injectable for tests and campaigns
	// (default time.Sleep).
	Sleep func(time.Duration)

	// Seed drives backoff jitter.
	Seed int64

	// Recorder, when non-nil, streams control-loop events (retries,
	// replans, boundary violations) into an observability registry. When
	// nil, the planner recorder from Config.Options.Recorder is used, so a
	// single recorder wired at the pipeline level covers the loop too.
	Recorder *obs.Recorder
}

// recorder resolves the effective recorder: the loop's own, or the
// planning options' as a fallback. Both may be nil (the no-op default).
func (o Options) recorder() *obs.Recorder {
	if o.Recorder != nil {
		return o.Recorder
	}
	return o.Config.Options.Recorder
}

// The retry policy of Run: a transient action failure or an unusable
// observation is retried after a backoff doubling from baseBackoff up to
// maxBackoff, with jitter, and the telemetry watchdog retries a failed or
// insane observation observeRetries times before the controller degrades.
const (
	baseBackoff    = 10 * time.Millisecond
	maxBackoff     = time.Second
	observeRetries = 2
)

func (o Options) withDefaults() Options {
	if o.MaxRetries <= 0 {
		o.MaxRetries = 4
	}
	if o.MaxReplans <= 0 {
		o.MaxReplans = 8
	}
	if o.DemandMargin <= 1 {
		o.DemandMargin = 1.25
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	return o
}

// Outcome reports what one control-loop run did.
type Outcome struct {
	Completed bool
	Executed  []int // blocks applied to the network, in order

	Retries int // transient failures retried
	Replans int // plans discarded for fresher ones

	// DriftReplans counts replans (included in Replans) triggered by
	// observed demand drift exceeding Options.DriftThreshold.
	DriftReplans int
	// GapSkips counts drift replans avoided because the remaining plan was
	// certified within Options.GapSkipThreshold of the drifted problem's
	// completion lower bound and re-audited safe against it.
	GapSkips int
	// TelemetryFaults counts demand observations that failed or were
	// rejected by sanity checks (including watchdog retries).
	TelemetryFaults int
	// DegradedRuns counts runs executed in degraded mode — planning
	// against the inflated-demand envelope because telemetry was unusable.
	DegradedRuns int

	// BoundaryViolations counts run-boundary states that violated
	// constraints on the live network — zero for a healthy run, since the
	// controller replans before executing into a drifted environment.
	BoundaryViolations int
	PeakUtil           float64 // worst boundary utilization observed
}

// Run drives the migration to completion against the live world:
//
//	plan → execute one block → observe → (retry | replan | continue)
//
// It executes Options.Plan when that plan still fits the world, and
// otherwise plans first. Before every action it polls the world; if the
// environment epoch moved (outage, flap, surge) the remaining plan is
// rebuilt from the executed prefix against the world's real topology and
// demands. Transient action failures are retried with capped exponential
// backoff and jitter. Every action is journaled before and after execution
// when a Journal is set.
func Run(ctx context.Context, task *migration.Task, world *sim.World, opts Options) (*Outcome, error) {
	opts = opts.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rec := opts.recorder()
	span := rec.Span("ctrl.run")
	defer span.End()
	out := &Outcome{}
	defer func() { out.Executed = world.Executed() }()

	// Crash recovery: fast-forward a fresh world through the journaled
	// committed prefix. (If the world already progressed — same-process
	// resume — the journal must agree with it.)
	if opts.Journal != nil {
		prefix := opts.Journal.CommittedPrefix()
		have := world.Executed()
		if len(have) > len(prefix) {
			return out, fmt.Errorf("ctrl: world has %d executed actions but journal committed only %d", len(have), len(prefix))
		}
		for i, id := range have {
			if prefix[i] != id {
				return out, fmt.Errorf("ctrl: journal/world divergence at action %d: journal %d, world %d", i, prefix[i], id)
			}
		}
		if len(prefix) > len(have) {
			world.Preapply(prefix[len(have):])
		}
	}

	epoch := world.Epoch()
	lastEpoch := world.Poll()
	plan := opts.Plan
	if plan != nil && (lastEpoch != epoch || !startsAt(plan, world.Executed())) {
		// The caller's plan was made for a world that is gone: a fault
		// fired at the first poll, or the plan continues another prefix.
		plan = nil
	}
	if plan == nil {
		var err error
		plan, err = replanFromWorld(ctx, task, world, opts.Config, nil)
		if err != nil {
			return out, fmt.Errorf("ctrl: initial planning: %w", err)
		}
	}
	// Defense in depth: the control loop never executes a plan that has
	// not passed the independent audit, whoever produced it.
	if err := ensureAudited(plan, world.Executed(), opts.Config); err != nil {
		return out, err
	}

	remaining := append([]int(nil), plan.Sequence...)
	idx := 0
	replan := func(reason string, ov *demandOverride) error {
		if out.Replans >= opts.MaxReplans {
			return fmt.Errorf("ctrl: replan budget (%d) exhausted: %s", opts.MaxReplans, reason)
		}
		out.Replans++
		rec.Add(obs.Replans, 1)
		if opts.Journal != nil {
			if err := opts.Journal.Append(Entry{Seq: len(world.Executed()), Op: "replan", Detail: reason}); err != nil {
				return err
			}
		}
		p, err := replanFromWorld(ctx, task, world, opts.Config, ov)
		if err != nil {
			return fmt.Errorf("ctrl: replanning (%s): %w", reason, err)
		}
		if err := ensureAudited(p, world.Executed(), opts.Config); err != nil {
			return err
		}
		remaining = append(remaining[:0], p.Sequence...)
		idx = 0
		lastEpoch = world.Epoch()
		return nil
	}

	// Drift state machine (NORMAL ⇄ DEGRADED), active when DriftThreshold
	// is set. "assumed" is the demand set the current plan was built
	// against, captured at horizon assumedAt, so the drift score compares
	// a fresh observation against what the plan expects *now*, not at t=0.
	driftOn := opts.DriftThreshold > 0
	degraded := false
	var lastGood, assumed demand.Set
	assumedAt := 0
	assumedF := task.Forecast
	var histories [][]float64
	var refit demand.Forecast
	haveRefit := false
	if driftOn {
		lastGood = task.Demands.Clone()
		assumed = task.Demands.Clone()
		assumedAt = len(world.Executed())
		histories = make([][]float64, len(task.Demands.Demands))
		for i, d := range task.Demands.Demands {
			histories[i] = append(histories[i], d.Rate)
		}
	}
	observeDrift := func() error {
		// Telemetry watchdog: bounded retries sharing the seeded backoff
		// jitter stream, so campaign retry timing stays reproducible.
		var obsSet demand.Set
		good := false
		for attempt := 0; ; attempt++ {
			s, err := world.ObserveDemands()
			if err == nil && saneDemands(s, lastGood) {
				obsSet, good = s, true
				break
			}
			out.TelemetryFaults++
			rec.Add(obs.TelemetryFaults, 1)
			if attempt >= observeRetries {
				break
			}
			opts.Sleep(Backoff(baseBackoff, maxBackoff, attempt, rng))
		}
		if !good {
			if degraded {
				return nil // already planning against the envelope
			}
			// Degrade: plan the remainder against the last good demand
			// inflated by the safety margin — conservative progress beats
			// stalling or trusting garbage.
			degraded = true
			env := lastGood.Scaled(opts.DemandMargin)
			ov := &demandOverride{demands: env}
			if haveRefit {
				ov.forecast = &refit
			}
			if err := replan("telemetry unusable; degrading to demand envelope", ov); err != nil {
				// Budget exhausted or envelope infeasible: the audited
				// current plan is the safest known course — keep executing
				// it (still counted as degraded) rather than aborting the
				// migration because the observation channel died.
				return nil
			}
			assumed = env.Clone()
			assumedAt = len(world.Executed())
			return nil
		}
		degraded = false
		lastGood = obsSet.Clone()
		for i := range histories {
			if i < len(obsSet.Demands) {
				histories[i] = append(histories[i], obsSet.Demands[i].Rate)
			}
		}
		if fitted, f, err := demand.FitSetForecast(obsSet, histories); err == nil {
			obsSet = fitted
			refit = f
			haveRefit = true
		}
		score := driftScore(obsSet, assumed, assumedF.ScaleAt(len(world.Executed())-assumedAt))
		if score <= opts.DriftThreshold {
			return nil
		}
		if opts.GapSkipThreshold > 0 {
			var rf *demand.Forecast
			if haveRefit {
				rf = &refit
			}
			if gapSkipCheck(task, world, opts.Config, opts.GapSkipThreshold, remaining[idx:], obsSet, rf) {
				out.GapSkips++
				rec.Add(obs.GapSkips, 1)
				// The plan was certified against the observation; make it
				// the new drift reference so the same drift does not re-run
				// the certificate at every boundary.
				if haveRefit {
					assumedF = refit
				}
				assumed = obsSet.Clone()
				assumedAt = len(world.Executed())
				return nil
			}
		}
		ov := &demandOverride{demands: obsSet}
		if haveRefit {
			ov.forecast = &refit
		}
		if err := replan(fmt.Sprintf("demand drift %.3f exceeds threshold %.3f", score, opts.DriftThreshold), ov); err != nil {
			return err
		}
		out.DriftReplans++
		rec.Add(obs.DriftReplans, 1)
		if haveRefit {
			assumedF = refit
		}
		assumed = obsSet.Clone()
		assumedAt = len(world.Executed())
		return nil
	}
	if driftOn {
		if err := observeDrift(); err != nil {
			return out, err
		}
	}

	for idx < len(remaining) {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("ctrl: cancelled after %d actions: %w", len(world.Executed()), err)
		}
		// Observe the environment before committing to the next action.
		if epoch := world.Poll(); epoch != lastEpoch {
			if err := replan(fmt.Sprintf("environment epoch %d → %d", lastEpoch, epoch), nil); err != nil {
				return out, err
			}
			continue
		}

		block := remaining[idx]
		seq := len(world.Executed())
		if opts.Journal != nil {
			if err := opts.Journal.Append(Entry{Seq: seq, Op: "begin", Block: block, Name: task.Blocks[block].Name}); err != nil {
				return out, err
			}
		}
		attempt := 0
		for {
			err := world.Apply(block)
			if err == nil {
				break
			}
			if !errors.Is(err, sim.ErrTransient) {
				return out, fmt.Errorf("ctrl: applying block %q: %w", task.Blocks[block].Name, err)
			}
			if attempt >= opts.MaxRetries {
				// Retries exhausted. One replan attempt is cheaper than
				// abandoning a half-executed migration; if the world truly
				// has not changed the fresh plan fails the same way and
				// the replan budget bounds the loop.
				if rerr := replan(fmt.Sprintf("block %d failed %d attempts: %v", block, attempt+1, err), nil); rerr != nil {
					return out, fmt.Errorf("ctrl: block %q failed persistently: %w (replanning out also failed: %v)", task.Blocks[block].Name, err, rerr)
				}
				attempt = -1 // falls through to the outer loop via break below
				break
			}
			out.Retries++
			rec.Add(obs.Retries, 1)
			opts.Sleep(Backoff(baseBackoff, maxBackoff, attempt, rng))
			attempt++
		}
		if attempt < 0 {
			continue // replanned out of a persistent failure
		}
		if opts.Journal != nil {
			if err := opts.Journal.Append(Entry{Seq: seq, Op: "done", Block: block, Name: task.Blocks[block].Name, Attempt: attempt}); err != nil {
				return out, err
			}
		}
		idx++

		// Boundary observation: the state after the last block of a run —
		// type change ahead, or plan complete — is what the planner
		// guaranteed safe; verify it against the live network.
		runEnds := idx == len(remaining) || task.Blocks[remaining[idx]].Type != task.Blocks[block].Type
		if runEnds {
			util, ok := world.Observe(opts.Config.Options.Theta, opts.Config.Options.Split)
			if util > out.PeakUtil {
				out.PeakUtil = util
			}
			if !ok {
				out.BoundaryViolations++
				rec.Add(obs.BoundaryViolations, 1)
			}
			if degraded {
				out.DegradedRuns++
				rec.Add(obs.DegradedRuns, 1)
			}
			// Drift check before committing to the next run; the final
			// boundary has no next run to replan for.
			if driftOn && idx < len(remaining) {
				if err := observeDrift(); err != nil {
					return out, err
				}
			}
		}
	}

	out.Completed = len(world.Executed()) == task.NumActions()
	if !out.Completed {
		return out, fmt.Errorf("ctrl: run ended with %d of %d actions executed", len(world.Executed()), task.NumActions())
	}
	return out, nil
}

// ensureAudited refuses to hand a plan to the executor unless it carries a
// passing independent-audit report. Plans from the core planners arrive
// pre-audited (their post-pass sets Plan.Audit); plans built elsewhere —
// baselines, hand-constructed Options.Plan — are audited here against the
// task the plan was computed for, continuing the executed prefix. When
// Config.Options.SkipAudit is set, the audit still runs here: the
// executor's gate is the last line of defense and has no opt-out.
func ensureAudited(p *core.Plan, executed []int, cfg pipeline.Config) error {
	if p.Audit == nil {
		opts := cfg.Options
		opts.Executed = executed
		rep, err := core.AuditSequence(p.Task, p.Sequence, opts, cfg.Planner.FreeOrder())
		if err != nil {
			return fmt.Errorf("ctrl: auditing plan: %w", err)
		}
		p.Audit = rep
	}
	if !p.Audit.Passed {
		return fmt.Errorf("ctrl: refusing to execute plan: audit failed at step %d: %s",
			p.Audit.FailStep, p.Audit.Reason)
	}
	return nil
}

// startsAt reports whether the plan's audit began after the executed
// blocks, in the order they were operated: the order fixes the run in
// progress. A plan without an audit qualifies: ensureAudited audits it from
// there.
func startsAt(p *core.Plan, executed []int) bool {
	return p.Audit == nil || slices.Equal(p.Audit.Start, executed)
}

// gapSkipCheck reports whether the remaining plan may keep executing
// despite demand drift beyond the replan threshold: a replan is only
// worth its cost (and its MaxReplans slot) if it could produce a
// meaningfully better plan, and it provably cannot when the remaining
// sequence's cost is already within GapSkipThreshold of the drifted
// problem's certified completion lower bound. Cost alone is not enough —
// the plan must also still be SAFE under the drifted demands — so the
// remaining sequence is re-audited against the drifted task (observed
// demands, refit forecast, live outages) on a pristine evaluator, after
// the executed blocks and in free order for a baseline's plan, as
// ensureAudited audits it, before the skip is granted.
func gapSkipCheck(task *migration.Task, world *sim.World, cfg pipeline.Config, thr float64, remaining []int, obsSet demand.Set, refit *demand.Forecast) bool {
	executed := world.Executed()
	opts := cfg.Options
	// Incumbent: the remaining plan's cost, conservatively restarting the
	// run structure at the boundary (NoLast can only overestimate, keeping
	// the certificate sound).
	inc := core.SequenceCostCapped(task, remaining, opts.Alpha, core.NoLast, opts.MaxRunLength, 0)
	last := core.NoLast
	if len(executed) > 0 {
		last = task.Blocks[executed[len(executed)-1]].Type
	}
	planTask, err := task.WithOutages(executed, world.DownSwitches(), world.DownCircuits())
	if err != nil {
		return false
	}
	planTask = planTask.WithDemands(obsSet.Clone())
	if refit != nil {
		planTask = planTask.WithForecast(*refit)
	}
	lb := core.CompletionLowerBound(planTask, core.CountsOf(planTask, executed), last, opts.Alpha, opts.MaxRunLength)
	if lb <= 0 || inc > (1+thr)*lb {
		return false
	}
	opts.Executed = executed
	rep, err := core.AuditSequence(planTask, remaining, opts, cfg.Planner.FreeOrder())
	return err == nil && rep.Passed
}

// demandOverride redirects a replan away from the world's ground-truth
// demand channel: drift replans plan on the (sanity-checked) telemetry
// sample with the refit forecast, and degraded-mode replans plan on the
// inflated envelope — never reading world.Demands() while telemetry is
// suspect.
type demandOverride struct {
	demands  demand.Set
	forecast *demand.Forecast
}

// replanFromWorld rebuilds the remaining plan from the world's ground
// truth: executed prefix, out-of-band outages and flapped circuits (under
// migration.Task.WithOutages's rule), and the world's demand when it
// changed — unless ov supplies the demand view, and the forecast, to plan
// against.
func replanFromWorld(ctx context.Context, task *migration.Task, world *sim.World, cfg pipeline.Config, ov *demandOverride) (*core.Plan, error) {
	executed := world.Executed()
	planTask, err := task.WithOutages(executed, world.DownSwitches(), world.DownCircuits())
	if err != nil {
		return nil, err
	}
	var ds *demand.Set
	switch {
	case ov != nil:
		d := ov.demands.Clone()
		ds = &d
	case world.DemandsChanged():
		d := world.Demands()
		ds = &d
	}
	if ov != nil && ov.forecast != nil {
		planTask = planTask.WithForecast(*ov.forecast)
	}
	return pipeline.ReplanContext(ctx, planTask, executed, ds, cfg)
}

// saneDemands rejects telemetry samples no plausible network produces:
// wrong cardinality, non-positive / NaN / infinite rates, or an aggregate
// rate two orders of magnitude above the last good sample (no organic
// shift multiplies total demand a hundredfold between two run boundaries).
func saneDemands(obs, ref demand.Set) bool {
	if len(obs.Demands) != len(ref.Demands) {
		return false
	}
	var obsTotal, refTotal float64
	for i := range obs.Demands {
		r := obs.Demands[i].Rate
		if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return false
		}
		obsTotal += r
		refTotal += ref.Demands[i].Rate
	}
	return refTotal <= 0 || obsTotal <= 100*refTotal
}

// driftScore is the relative L1 deviation between an observed demand set
// and the plan's assumption grown to the current horizon:
// Σ|obs−expected| / Σexpected. 0 means telemetry matches the plan exactly.
func driftScore(obs, assumed demand.Set, scale float64) float64 {
	var num, den float64
	for i := range assumed.Demands {
		exp := assumed.Demands[i].Rate * scale
		var o float64
		if i < len(obs.Demands) {
			o = obs.Demands[i].Rate
		}
		num += math.Abs(o - exp)
		den += exp
	}
	if den <= 0 {
		return 0
	}
	return num / den
}

// Backoff computes the capped exponential delay for a retry attempt with
// full jitter in [d/2, d): herds of retrying controllers must not
// synchronize against a recovering device. klotskid retries transient leg
// failures under the same policy.
func Backoff(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}
