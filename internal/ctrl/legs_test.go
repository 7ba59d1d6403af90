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
	"klotski/internal/obs"
	"klotski/internal/sched"
)

// legsRun is one row's run of RunLegs: a single-worker pool the run is
// admitted to, and the checkpoints its hook received.
type legsRun struct {
	pool   *sched.Pool
	cancel context.CancelFunc
	l      Legs
	cps    []*core.Checkpoint
	held   *sched.Client // a preemptor the row keeps registered to the end
}

// preempt registers a higher-priority client, which preempts whatever holds
// the pool, and keeps it registered when hold is set.
func (r *legsRun) preempt(hold bool) error {
	hi, err := r.pool.Register("hi", sched.ClientOptions{Priority: 1, MinShare: 1})
	if err != nil {
		return err
	}
	if hold {
		r.held = hi
	} else {
		hi.Close()
	}
	return nil
}

// planOutcome is what a plan hands on: its sequence, runs, cost and audit.
type planOutcome struct {
	Sequence []int
	Runs     []core.Run
	Cost     float64
	Audit    *audit.Report
}

func outcome(p *core.Plan) planOutcome {
	return planOutcome{p.Sequence, p.Runs, p.Cost, p.Audit}
}

// TestRunLegs drives the one leg runner through every way a run's legs can
// fall, for A* and DP. A row that plans must hand on exactly the unpooled
// planner's plan; a row that fails must fail with its own error and
// checkpoint. Every row must leave the pool's reservation free.
func TestRunLegs(t *testing.T) {
	task, _ := loopTask(t)
	opts := core.Options{Alpha: 0.2}
	refs := map[Planner]*core.Plan{}
	var err error
	if refs[PlannerAStar], err = core.PlanAStar(task, opts); err != nil {
		t.Fatal(err)
	}
	if refs[PlannerDP], err = core.PlanDP(task, opts); err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name                    string
		legStates               int
		arm                     func(r *legsRun)
		preemptions, admissions int
		ckpts                   [2]int // the least and most checkpoints
		// check judges a failed run; nil means the run must plan.
		check func(t *testing.T, r *legsRun, err error)
	}{
		{
			name:        "no preemption",
			arm:         func(r *legsRun) {},
			preemptions: 0, admissions: 1,
		},
		{
			name: "preempted before the leg starts",
			arm: func(r *legsRun) {
				admit := r.l.Admit
				r.l.Admit = func(n int) (*sched.Client, error) {
					c, err := admit(n)
					if err == nil && n == 0 {
						err = r.preempt(false)
					}
					return c, err
				}
			},
			preemptions: 1, admissions: 2,
		},
		{
			// The preemptor registers once the first leg is planning. Its
			// first checkpoint waits for it, so the preemption lands before
			// the runner reads the leg's outcome: mid-search, or as the leg
			// spends its budget, or — when the goroutine is quick — before
			// the leg starts. Every cut must come out the same.
			name:      "preempted mid-leg",
			legStates: 6,
			arm: func(r *legsRun) {
				reg := obs.NewRegistry()
				r.l.Options.Recorder = obs.NewRecorder(reg)
				landed := make(chan struct{})
				var once sync.Once
				r.l.Leg = func(int) error {
					once.Do(func() {
						go func() {
							defer close(landed)
							for reg.Snapshot().Counters[obs.MetricStatesCreated] == 0 {
								runtime.Gosched()
							}
							r.preempt(false)
						}()
					})
					return nil
				}
				keep := r.l.Checkpoint
				r.l.Checkpoint = func(cp *core.Checkpoint, reason error) {
					<-landed
					keep(cp, reason)
				}
			},
			preemptions: 1, admissions: 2,
			ckpts: [2]int{1, 100},
		},
		{
			name: "preempted past the cap",
			arm: func(r *legsRun) {
				admit := r.l.Admit
				r.l.Admit = func(n int) (*sched.Client, error) {
					if n >= 1 {
						return nil, nil // the starvation guard: plan unadmitted
					}
					return admit(n)
				}
				r.l.Leg = func(int) error {
					if r.held != nil {
						return nil // unadmitted now: nothing left to preempt
					}
					return r.preempt(true)
				}
			},
			preemptions: 1, admissions: 1,
		},
		{
			name:        "leg budget exhausted several times",
			legStates:   6,
			arm:         func(r *legsRun) {},
			preemptions: 0, admissions: 1,
			ckpts: [2]int{2, 100},
		},
		{
			name: "panic in the leg hook",
			arm: func(r *legsRun) {
				r.l.Leg = func(int) error { panic("poisoned leg") }
			},
			admissions: 1,
			check: func(t *testing.T, r *legsRun, err error) {
				var lp *LegPanic
				if !errors.As(err, &lp) || lp.Value != "poisoned leg" || len(lp.Stack) == 0 {
					t.Fatalf("err = %v, want the hook's panic with its stack", err)
				}
			},
		},
		{
			name: "panic in the planner",
			arm: func(r *legsRun) {
				r.l.Task = nil // the planners dereference it
			},
			admissions: 1,
			check: func(t *testing.T, r *legsRun, err error) {
				var lp *LegPanic
				if !errors.As(err, &lp) {
					t.Fatalf("err = %v, want the planner's panic", err)
				}
			},
		},
		{
			name:      "outer cancel",
			legStates: 6,
			arm: func(r *legsRun) {
				r.l.Leg = func(leg int) error {
					if leg == 1 {
						r.cancel()
					}
					return nil
				}
			},
			admissions: 1,
			ckpts:      [2]int{2, 2},
			check: func(t *testing.T, r *legsRun, err error) {
				var intr *core.Interrupted
				if !errors.As(err, &intr) || !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want the cancelled leg's checkpoint", err)
				}
				if last := r.cps[len(r.cps)-1]; intr.Checkpoint != last {
					t.Error("the error's checkpoint is not the last one the hook received")
				}
			},
		},
	}
	for _, row := range rows {
		for _, planner := range []Planner{PlannerAStar, PlannerDP} {
			t.Run(row.name+"/"+string(planner), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				pool := sched.NewPool(1, nil)
				defer pool.Close()
				r := &legsRun{pool: pool, cancel: cancel}
				r.l = Legs{
					Task:    task,
					Options: opts,
					Planner: planner,
					Admit: func(int) (*sched.Client, error) {
						return pool.Register("victim", sched.ClientOptions{MinShare: 1})
					},
					Checkpoint: func(cp *core.Checkpoint, _ error) { r.cps = append(r.cps, cp) },
					LegStates:  row.legStates,
				}
				row.arm(r)

				plan, preemptions, admissions, err := RunLegs(ctx, r.l)
				if r.held != nil {
					r.held.Close()
				}
				if row.check != nil {
					if plan != nil {
						t.Fatal("a failed run returned a plan")
					}
					row.check(t, r, err)
				} else if err != nil {
					t.Fatalf("RunLegs: %v", err)
				} else if got, want := outcome(plan), outcome(refs[planner]); !reflect.DeepEqual(got, want) {
					t.Fatalf("plan diverged from the unpooled reference:\n got %+v\nwant %+v", got, want)
				}
				if preemptions != row.preemptions || admissions != row.admissions {
					t.Errorf("preemptions %d, admissions %d; want %d, %d", preemptions, admissions, row.preemptions, row.admissions)
				}
				if n := len(r.cps); n < row.ckpts[0] || n > row.ckpts[1] {
					t.Errorf("%d checkpoints, want %d to %d", n, row.ckpts[0], row.ckpts[1])
				}
				for _, cp := range r.cps {
					if cp.Planner != string(planner) {
						t.Fatalf("checkpoint of planner %q, want %q", cp.Planner, planner)
					}
				}

				// Whatever the row's end, the run gave its reservation back.
				free := make(chan error, 1)
				go func() {
					c, err := pool.Register("next", sched.ClientOptions{MinShare: 1})
					if err == nil {
						c.Close()
					}
					free <- err
				}()
				select {
				case err := <-free:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("the run kept its pool reservation")
				}
			})
		}
	}
}

// TestRunLegsRejectsNonResumablePlanner: a planner that cannot checkpoint
// is refused before the run is admitted.
func TestRunLegsRejectsNonResumablePlanner(t *testing.T) {
	task, _ := loopTask(t)
	for _, p := range []Planner{"mrc", "janus", "DP", "bogus"} {
		admitted := false
		_, _, admissions, err := RunLegs(context.Background(), Legs{
			Task:    task,
			Planner: p,
			Admit:   func(int) (*sched.Client, error) { admitted = true; return nil, nil },
		})
		if err == nil || admitted || admissions != 0 {
			t.Errorf("planner %q: err %v, admitted %v", p, err, admitted)
		}
	}
}

// TestRunLegsDPTinyLegs: DP legs whose state budget is below the recursion
// depth still finish, with exactly the unsliced plan. An interruption
// evicts the recursion path in flight, so each leg must finalize a memo
// entry before its budget may stop it.
func TestRunLegsDPTinyLegs(t *testing.T) {
	task, _ := loopTask(t)
	opts := core.Options{Alpha: 0.2}
	ref, err := core.PlanDP(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	for legStates := 1; legStates <= 5; legStates++ {
		ckpts := 0
		plan, _, _, err := RunLegs(context.Background(), Legs{
			Task:    task,
			Options: opts,
			Planner: PlannerDP,
			Admit:   func(int) (*sched.Client, error) { return nil, nil },
			Leg: func(leg int) error {
				if leg > 1000 {
					return errors.New("no plan after 1000 legs")
				}
				return nil
			},
			Checkpoint: func(*core.Checkpoint, error) { ckpts++ },
			LegStates:  legStates,
		})
		if err != nil {
			t.Fatalf("LegStates %d: %v", legStates, err)
		}
		if ckpts == 0 {
			t.Errorf("LegStates %d: planned in one leg", legStates)
		}
		if got, want := outcome(plan), outcome(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("LegStates %d: plan diverged from the unsliced DP plan:\n got %+v\nwant %+v", legStates, got, want)
		}
	}
}
