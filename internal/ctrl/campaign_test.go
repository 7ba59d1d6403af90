package ctrl

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"klotski/internal/audit"
	"klotski/internal/core"
	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/pipeline"
	"klotski/internal/routing"
	"klotski/internal/sched"
	"klotski/internal/sim"
)

// benchCampaign is the campaign of the replan-chaos benchmark: four seeds
// from base seed 3, four faults each with telemetry faults in the draw, and
// the drift loop on.
func benchCampaign(cfg pipeline.Config) CampaignOptions {
	return CampaignOptions{
		Seeds:    4,
		Seed:     3,
		Schedule: sim.ScheduleOptions{Faults: 4, Telemetry: true},
		Run:      Options{Config: cfg, DriftThreshold: 0.05, DemandMargin: 1.25},
	}
}

func suiteTask(t *testing.T, name string) *migration.Task {
	t.Helper()
	s, err := gen.Suite(name, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return s.Task
}

// withAudit returns a copy of p carrying an edited copy of its audit report.
func withAudit(p *core.Plan, edit func(*audit.Report)) *core.Plan {
	q := *p
	rep := *p.Audit
	edit(&rep)
	q.Audit = &rep
	return &q
}

// otherStart returns a copy of p whose passing audit claims to have started
// after its first block.
func otherStart(p *core.Plan) *core.Plan {
	return withAudit(p, func(r *audit.Report) { r.Start = p.Sequence[:1] })
}

// referenceCampaign is the serial campaign with no plan shared: one seed
// after another, every seed's Run plans its own world from scratch, and
// the outcomes fold in seed order. Campaign must report exactly what it
// reports.
func referenceCampaign(t *testing.T, task *migration.Task, opts CampaignOptions) *CampaignReport {
	t.Helper()
	rep := &CampaignReport{Seeds: opts.Seeds, WorstSeed: opts.Seed}
	for s := 0; s < opts.Seeds; s++ {
		seed := opts.Seed + int64(s)
		world := sim.NewWorld(task, sim.RandomSchedule(task, seed, opts.Schedule), seed)
		ro := opts.Run
		ro.Plan = nil
		ro.Seed = seed
		ro.Sleep = noSleep
		out, _ := Run(context.Background(), task, world, ro)
		rep.fold(seed, out)
	}
	rep.CompletionRate = float64(rep.Completed) / float64(rep.Seeds)
	return rep
}

// TestCampaignSharesPristinePlan: a campaign that starts every run from one
// plan of the untouched task must report exactly what runs that each plan
// for themselves report, whether that plan is the pipeline's or the
// campaign's own, with no pool or a shared one. Plans that are not the
// pristine plan (resumed, partial, failed audit, audit from another start)
// are ignored.
func TestCampaignSharesPristinePlan(t *testing.T) {
	for _, name := range []string{"E-SSW", "C"} {
		t.Run(name, func(t *testing.T) {
			task := suiteTask(t, name)
			cfg := pipeline.Config{Options: core.Options{}}
			res, err := pipeline.RunTask(task, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pristine := res.Plan
			resumed, err := pipeline.Replan(task, pristine.Sequence[:1], nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			partial := *pristine
			partial.Sequence = pristine.Sequence[:len(pristine.Sequence)-1]
			failed := withAudit(pristine, func(r *audit.Report) { r.Passed = false })

			want := referenceCampaign(t, task, benchCampaign(cfg))
			if want.TotalReplans == 0 {
				t.Fatal("the campaign never replans; it cannot tell a shared plan from a fresh one")
			}
			plans := []struct {
				name string
				plan *core.Plan
			}{
				{"none", nil},
				{"pipeline", pristine},
				{"resumed", resumed},
				{"partial", &partial},
				{"failed audit", failed},
				{"other start", otherStart(pristine)},
			}
			pool := sched.NewPool(2, nil)
			defer pool.Close()
			for _, p := range plans {
				for _, shared := range []*sched.Pool{nil, pool} {
					opts := benchCampaign(cfg)
					opts.Run.Plan = p.plan
					opts.Pool = shared
					got, err := Campaign(context.Background(), task, opts)
					if err != nil {
						t.Fatalf("%s plan (pool %v): %v", p.name, shared != nil, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s plan (pool %v): report\n%+v\nwant\n%+v", p.name, shared != nil, got, want)
					}
				}
			}
		})
	}
}

// searches counts the A* searches recorded in reg.
func searches(reg *obs.Registry) int64 {
	return reg.Snapshot().Spans[obs.TraceName+".astar.run"].Count
}

// TestCampaignPlansPristineOnce counts the planner's searches through the
// recorder: handed the pipeline's plan, a campaign searches once per
// replan; without it, or with a plan it must ignore, once more, for the
// pristine plan, however many seeds it runs.
func TestCampaignPlansPristineOnce(t *testing.T) {
	task := suiteTask(t, "E-SSW")
	res, err := pipeline.RunTask(task, pipeline.Config{Options: core.Options{}})
	if err != nil {
		t.Fatal(err)
	}
	plans := []struct {
		name  string
		plan  *core.Plan
		extra int // searches beyond one per replan
	}{
		{"pipeline", res.Plan, 0},
		{"none", nil, 1},
		{"other start", otherStart(res.Plan), 1},
	}
	pool := sched.NewPool(2, nil)
	defer pool.Close()
	for _, p := range plans {
		for _, shared := range []*sched.Pool{nil, pool} {
			reg := obs.NewRegistry()
			opts := benchCampaign(pipeline.Config{Options: core.Options{Recorder: obs.NewRecorder(reg)}})
			opts.Run.Plan = p.plan
			opts.Pool = shared
			rep, err := Campaign(context.Background(), task, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(rep.TotalReplans + p.extra)
			if got := searches(reg); got != want {
				t.Errorf("%s plan (pool %v): %d searches for %d replans, want %d",
					p.name, shared != nil, got, rep.TotalReplans, want)
			}
		}
	}
}

// TestCampaignPoolMatchesSerial runs one chaos campaign through the
// fan-out at GOMAXPROCS 1, 2 and 4, with no pool and with shared pools of
// 1 and 3 workers, over more seeds than workers: every report must equal
// the serial reference's, and the campaign must search as the reference
// does but for the pristine plan, made once instead of once per seed.
func TestCampaignPoolMatchesSerial(t *testing.T) {
	task, _ := loopTask(t)
	base := CampaignOptions{
		Seeds:    6,
		Seed:     100,
		Schedule: sim.ScheduleOptions{Faults: 3},
		Run:      Options{Config: pipeline.Config{Options: core.Options{}}},
	}
	reg := obs.NewRegistry()
	ref := base
	ref.Run.Config.Options.Recorder = obs.NewRecorder(reg)
	want := referenceCampaign(t, task, ref)
	if want.TotalReplans == 0 {
		t.Fatal("the campaign never replans; it cannot tell the runs apart")
	}
	wantSearches := searches(reg) - int64(base.Seeds-1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{0, 1, 3} {
			var pool *sched.Pool
			if workers > 0 {
				pool = sched.NewPool(workers, nil)
			}
			reg := obs.NewRegistry()
			opts := base
			opts.Run.Config.Options.Recorder = obs.NewRecorder(reg)
			opts.Pool = pool
			got, err := Campaign(context.Background(), task, opts)
			if pool != nil {
				pool.Close()
			}
			if err != nil {
				t.Fatalf("GOMAXPROCS %d, pool of %d: %v", procs, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS %d, pool of %d: report\n%+v\nwant\n%+v", procs, workers, got, want)
			}
			if n := searches(reg); n != wantSearches {
				t.Errorf("GOMAXPROCS %d, pool of %d: %d searches, want %d", procs, workers, n, wantSearches)
			}
		}
	}

	// A caller's evaluator and bound engine serve one planner at a time, so
	// the seeds, two at a time, must plan on their own: under -race a shared
	// one is a data race, and a seed planning on the caller's engine seals it.
	runtime.GOMAXPROCS(2)
	opts := base
	opts.Run.Plan = pristinePlan(context.Background(), task, nil, base.Run.Config, nil)
	eng := core.NewBoundEngine(task, base.Run.Config.Options)
	opts.Run.Config.Options.Bound = eng
	opts.Run.Config.Options.Evaluator = routing.NewEvaluator(task.Topo)
	got, err := Campaign(context.Background(), task, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("with a caller's evaluator and engine: report\n%+v\nwant\n%+v", got, want)
	}
	if eng.Sealed() || eng.CutsLearned() > 0 {
		t.Error("the seeds planned on the caller's bound engine")
	}
}

// setRunHook installs a campaign run hook for the rest of the test.
func setRunHook(t *testing.T, hook func(seed int64, start bool)) {
	prev := campaignTestRunHook
	campaignTestRunHook = hook
	t.Cleanup(func() { campaignTestRunHook = prev })
}

// waitGoroutines polls until no more than n goroutines are left.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after the campaign returned, want %d", runtime.NumGoroutine(), n)
		}
	}
}

// TestCampaignFanOutBoundedAndCancellable: a 32-seed campaign never has
// more than GOMAXPROCS runs in flight, has two in flight at once when
// GOMAXPROCS allows, and leaves no goroutine behind. Cancelled as its
// third run starts, it returns an error wrapping context.Canceled and
// starts no other seed.
func TestCampaignFanOutBoundedAndCancellable(t *testing.T) {
	task, _ := loopTask(t)
	opts := CampaignOptions{
		Seeds:    32,
		Seed:     100,
		Schedule: sim.ScheduleOptions{Faults: 3},
		Run:      Options{Config: pipeline.Config{Options: core.Options{}}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		var mu sync.Mutex
		inFlight, peak, runs := 0, 0, 0
		// The first run to end waits for a second to start, so a serial
		// campaign fails here instead of passing on a peak of one.
		second, waitSecond := make(chan struct{}), sync.Once{}
		setRunHook(t, func(seed int64, start bool) {
			if !start && procs > 1 {
				waitSecond.Do(func() {
					select {
					case <-second:
					case <-time.After(10 * time.Second):
						t.Errorf("GOMAXPROCS %d: no second run started while seed %d ended", procs, seed)
					}
				})
			}
			mu.Lock()
			defer mu.Unlock()
			if !start {
				inFlight--
				return
			}
			runs++
			if inFlight++; inFlight > peak {
				if peak = inFlight; peak == 2 {
					close(second)
				}
			}
		})
		goroutines := runtime.NumGoroutine()
		if _, err := Campaign(context.Background(), task, opts); err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		waitGoroutines(t, goroutines)
		if runs != opts.Seeds || peak > procs {
			t.Errorf("GOMAXPROCS %d: %d runs, at most %d in flight; want %d runs, at most %d", procs, runs, peak, opts.Seeds, procs)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := 0 // start hooks run one at a time, as seeds are claimed
	setRunHook(t, func(seed int64, start bool) {
		if !start {
			return
		}
		if started++; started > 3 {
			t.Errorf("seed %d started after the campaign was cancelled", seed)
		} else if started == 3 {
			cancel()
		}
	})
	goroutines := runtime.NumGoroutine()
	if _, err := Campaign(ctx, task, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want an error wrapping context.Canceled", err)
	}
	waitGoroutines(t, goroutines)
}
