package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"klotski/internal/sched"
)

// These differential tests enforce the pool's contract with a plan: the
// search never runs on the pool, and routing the post-planning audit's
// replay spans through a shared sched.Pool — at any pool size, share or
// preemption point — never changes the plan. The pool-less planners are
// the reference; everything else must match them byte for byte.

func samePlan(t *testing.T, label string, got, want *Plan) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil plan (got %v, want %v)", label, got, want)
	}
	if !reflect.DeepEqual(got.Sequence, want.Sequence) || got.Cost != want.Cost {
		t.Fatalf("%s: plan diverged from serial reference:\n got %v (cost %.6f)\nwant %v (cost %.6f)",
			label, got.Sequence, got.Cost, want.Sequence, want.Cost)
	}
}

// TestSchedPoolByteIdentity runs both planners attached to pools of size
// {1,2,4,GOMAXPROCS} with fixed and pool-share audit lanes, and demands
// the pool-less planner's exact output — and a passed audit — every time.
func TestSchedPoolByteIdentity(t *testing.T) {
	task := bridgeTask(t, 4, 4, 100, 100, 150, 0)
	opts := Options{Alpha: 0.2}

	refA, err := PlanAStar(task, opts)
	if err != nil {
		t.Fatal(err)
	}
	refD, err := PlanDP(task, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, pw := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		pool := sched.NewPool(pw, nil)
		for _, lanes := range []int{2, WorkersAdaptive} {
			client, err := pool.Register("diff", sched.ClientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			o.Workers = lanes
			o.Sched = client

			p, err := PlanAStarContext(context.Background(), task, o)
			if err != nil {
				t.Fatalf("pool=%d lanes=%d astar: %v", pw, lanes, err)
			}
			samePlan(t, "astar", p, refA)
			if p.Audit == nil || !p.Audit.Passed {
				t.Fatalf("pool=%d lanes=%d astar: audit did not run on the pool: %+v", pw, lanes, p.Audit)
			}

			p, err = PlanDPContext(context.Background(), task, o)
			if err != nil {
				t.Fatalf("pool=%d lanes=%d dp: %v", pw, lanes, err)
			}
			samePlan(t, "dp", p, refD)
			client.Close()
		}
		pool.Close()
	}
}

// TestSchedCheckpointResumeAcrossClients interrupts a pool-attached
// search mid-run (budget exhaustion standing in for a preemption's
// cooperative checkpoint), then resumes the checkpoint under a different
// client on a different pool — exactly the fleet's preempt-readmit path —
// and demands the undisturbed serial plan.
func TestSchedCheckpointResumeAcrossClients(t *testing.T) {
	task := bridgeTask(t, 4, 4, 100, 100, 150, 0)
	opts := Options{Alpha: 0.2}
	ref, err := PlanAStar(task, opts)
	if err != nil {
		t.Fatal(err)
	}

	pool1 := sched.NewPool(2, nil)
	c1, err := pool1.Register("leg1", sched.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := opts
	o.Workers = WorkersAdaptive
	o.Sched = c1
	o.MaxStates = 6
	_, err = PlanAStarContext(context.Background(), task, o)
	c1.Close()
	pool1.Close()
	var intr *Interrupted
	if !errors.As(err, &intr) {
		t.Fatalf("want *Interrupted from the budgeted leg, got %v", err)
	}

	pool2 := sched.NewPool(4, nil)
	defer pool2.Close()
	c2, err := pool2.Register("leg2", sched.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ro := opts
	ro.Workers = WorkersAdaptive
	ro.Sched = c2
	p, err := Resume(context.Background(), intr.Checkpoint, ro)
	if err != nil {
		t.Fatalf("resume under the second pool: %v", err)
	}
	samePlan(t, "resume", p, ref)
	checkPlan(t, task, p, opts)
}

// TestSchedPreemptedClientStillPlans registers a plan, preempts its
// client mid-setup, and verifies the plan completes byte-identically
// anyway: a share of zero only moves the work onto the submitting
// goroutine.
func TestSchedPreemptedClientStillPlans(t *testing.T) {
	task := bridgeTask(t, 3, 3, 100, 100, 150, 0)
	opts := Options{Alpha: 0.2}
	ref, err := PlanDP(task, opts)
	if err != nil {
		t.Fatal(err)
	}

	pool := sched.NewPool(1, nil)
	defer pool.Close()
	victim, err := pool.Register("victim", sched.ClientOptions{Priority: 0, MinShare: 1})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := pool.Register("hi", sched.ClientOptions{Priority: 1, MinShare: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer hi.Close()
	select {
	case <-victim.Preempted():
	case <-time.After(2 * time.Second):
		t.Fatal("victim never preempted")
	}

	o := opts
	o.Workers = 2
	o.Sched = victim
	p, err := PlanDPContext(context.Background(), task, o)
	if err != nil {
		t.Fatalf("preempted plan failed instead of draining inline: %v", err)
	}
	samePlan(t, "preempted", p, ref)
	victim.Close()
}
