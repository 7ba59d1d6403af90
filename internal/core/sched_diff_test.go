package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"klotski/internal/sched"
)

// These tests enforce the pool's contract with a plan: the pool admits and
// preempts whole plans and runs nothing of theirs, so a plan made while its
// caller holds a registration — across re-admissions and after a
// preemption — is the pool-less plan byte for byte.

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

// TestSchedCheckpointResumeAcrossClients interrupts an admitted search
// mid-run (budget exhaustion standing in for a preemption's cooperative
// checkpoint), then resumes the checkpoint under a different client on a
// different pool — exactly the fleet's preempt-readmit path — and demands
// the undisturbed serial plan.
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
	p, err := Resume(context.Background(), intr.Checkpoint, opts)
	if err != nil {
		t.Fatalf("resume under the second pool: %v", err)
	}
	samePlan(t, "resume", p, ref)
	checkPlan(t, task, p, opts)
}

// TestSchedPreemptedClientStillPlans registers a plan, preempts its
// client mid-setup, and verifies the plan completes byte-identically
// anyway: preemption is a signal to the plan's caller, and a planner that
// ignores it loses nothing.
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

	p, err := PlanDPContext(context.Background(), task, opts)
	if err != nil {
		t.Fatalf("preempted plan failed instead of draining inline: %v", err)
	}
	samePlan(t, "preempted", p, ref)
	victim.Close()
}
