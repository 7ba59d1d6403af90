package ctrl

import (
	"context"
	"reflect"
	"testing"

	"klotski/internal/audit"
	"klotski/internal/core"
	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/obs"
	"klotski/internal/pipeline"
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

// referenceCampaign is the campaign with no plan shared: every seed's Run
// plans its own world from scratch, and the outcomes fold in seed order.
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
// campaign's own, serial or pooled. Plans that are not the pristine plan
// (resumed, partial, failed audit, audit from another start) are ignored.
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
				for _, pooled := range []bool{false, true} {
					opts := benchCampaign(cfg)
					opts.Run.Plan = p.plan
					if pooled {
						opts.Pool = pool
					}
					got, err := Campaign(context.Background(), task, opts)
					if err != nil {
						t.Fatalf("%s plan (pooled %v): %v", p.name, pooled, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s plan (pooled %v): report\n%+v\nwant\n%+v", p.name, pooled, got, want)
					}
				}
			}
		})
	}
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
		for _, pooled := range []bool{false, true} {
			reg := obs.NewRegistry()
			opts := benchCampaign(pipeline.Config{Options: core.Options{Recorder: obs.NewRecorder(reg)}})
			opts.Run.Plan = p.plan
			if pooled {
				opts.Pool = pool
			}
			rep, err := Campaign(context.Background(), task, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(rep.TotalReplans + p.extra)
			if got := reg.Snapshot().Spans[obs.TraceName+".astar.run"].Count; got != want {
				t.Errorf("%s plan (pooled %v): %d searches for %d replans, want %d",
					p.name, pooled, got, rep.TotalReplans, want)
			}
		}
	}
}
