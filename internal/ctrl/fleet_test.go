package ctrl

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"klotski/internal/core"
	"klotski/internal/sched"
)

// TestFleetByteIdentity plans several members concurrently under one
// shared pool — mixed planners, mixed shares, cut sharing on — and
// demands every member's plan match its solo serial reference exactly.
func TestFleetByteIdentity(t *testing.T) {
	task, _ := loopTask(t)
	refA, err := core.PlanAStar(task, core.Options{Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	refD, err := core.PlanDP(task, core.Options{Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	pool := sched.NewPool(4, nil)
	defer pool.Close()
	opts := core.Options{Alpha: 0.2}
	members := []FleetMember{
		{Name: "a1", Task: task, Planner: PlannerAStar, Options: opts},
		{Name: "d1", Task: task, Planner: PlannerDP, Options: opts},
		{Name: "a2", Task: task, Planner: PlannerAStar, Options: opts, MinShare: 2},
		{Name: "d2", Task: task, Planner: PlannerDP, Options: opts},
	}
	rep, err := Fleet(context.Background(), members, FleetOptions{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(members) || rep.Failed != 0 {
		t.Fatalf("completed %d failed %d of %d members", rep.Completed, rep.Failed, len(members))
	}
	if rep.Makespan <= 0 {
		t.Error("makespan not recorded")
	}
	for i := range rep.Members {
		m := &rep.Members[i]
		ref := refA
		if members[i].Planner == PlannerDP {
			ref = refD
		}
		if m.Err != nil {
			t.Fatalf("member %s: %v", m.Name, m.Err)
		}
		if !reflect.DeepEqual(m.Plan.Sequence, ref.Sequence) || m.Plan.Cost != ref.Cost {
			t.Fatalf("member %s diverged from solo reference:\n got %v (cost %.6f)\nwant %v (cost %.6f)",
				m.Name, m.Plan.Sequence, m.Plan.Cost, ref.Sequence, ref.Cost)
		}
	}
	if rep.Admitted < len(members) {
		t.Errorf("admitted %d < %d members", rep.Admitted, len(members))
	}
}

// TestFleetForcedPreemption holds a member at the starting line, preempts
// it with a higher-priority registration, and verifies the checkpoint-
// readmit-resume cycle completes with the undisturbed serial plan.
func TestFleetForcedPreemption(t *testing.T) {
	task, _ := loopTask(t)
	ref, err := core.PlanAStar(task, core.Options{Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	pool := sched.NewPool(1, nil)
	defer pool.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	fleetTestPlanHook = func(name string) {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	defer func() { fleetTestPlanHook = nil }()

	fo := &FleetOptions{Pool: pool, MaxPreemptions: 16}
	done := make(chan FleetMemberReport, 1)
	go func() {
		done <- planMember(context.Background(), FleetMember{
			Name: "victim", Task: task, Planner: PlannerAStar,
			Options: core.Options{Alpha: 0.2},
		}, fo, nil)
	}()
	<-started
	// The victim holds the single-worker pool's whole reservation, so this
	// registration must preempt it — deterministically.
	hi, err := pool.Register("hi", sched.ClientOptions{Priority: 1, MinShare: 1})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	hi.Close() // frees the reservation for the victim's re-admission
	var rep FleetMemberReport
	select {
	case rep = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("preempted member never finished")
	}
	if rep.Err != nil {
		t.Fatalf("member error: %v", rep.Err)
	}
	if rep.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", rep.Preemptions)
	}
	if !reflect.DeepEqual(rep.Plan.Sequence, ref.Sequence) || rep.Plan.Cost != ref.Cost {
		t.Fatalf("resumed plan diverged from serial reference:\n got %v (cost %.6f)\nwant %v (cost %.6f)",
			rep.Plan.Sequence, rep.Plan.Cost, ref.Sequence, ref.Cost)
	}
}

// TestFleetMaxPreemptionsFallsBack caps the member at one preemption and
// keeps the preemptor registered for the whole run: the member must
// finish its resumed leg without a pool client — and still produce the
// serial plan.
func TestFleetMaxPreemptionsFallsBack(t *testing.T) {
	task, _ := loopTask(t)
	ref, err := core.PlanAStar(task, core.Options{Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	pool := sched.NewPool(1, nil)
	defer pool.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	fleetTestPlanHook = func(name string) {
		once.Do(func() {
			close(started)
			<-release
		})
	}
	defer func() { fleetTestPlanHook = nil }()

	fo := &FleetOptions{Pool: pool, MaxPreemptions: 1}
	done := make(chan FleetMemberReport, 1)
	go func() {
		done <- planMember(context.Background(), FleetMember{
			Name: "victim", Task: task, Planner: PlannerAStar,
			Options: core.Options{Alpha: 0.2},
		}, fo, nil)
	}()
	<-started
	hi, err := pool.Register("hi", sched.ClientOptions{Priority: 1, MinShare: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer hi.Close() // held until the member has finished clientless
	close(release)
	var rep FleetMemberReport
	select {
	case rep = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("starved member never finished")
	}
	if rep.Err != nil {
		t.Fatalf("member error: %v", rep.Err)
	}
	if rep.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", rep.Preemptions)
	}
	if !reflect.DeepEqual(rep.Plan.Sequence, ref.Sequence) || rep.Plan.Cost != ref.Cost {
		t.Fatal("clientless fallback plan diverged from serial reference")
	}
}

// TestFleetMembersReportElapsed pins that every member's report carries its
// own wall time, whether it completed or failed: planMember sets Elapsed in a
// deferred write, which once missed the value already copied out.
func TestFleetMembersReportElapsed(t *testing.T) {
	task, _ := loopTask(t)
	pool := sched.NewPool(2, nil)
	defer pool.Close()
	members := []FleetMember{
		{Name: "ok", Task: task, Planner: PlannerAStar, Options: core.Options{Alpha: 0.2}},
		{Name: "starved", Task: task, Planner: PlannerAStar, Options: core.Options{Alpha: 0.2, MaxStates: 1}},
	}
	rep, err := Fleet(context.Background(), members, FleetOptions{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 1 || rep.Failed != 1 {
		t.Fatalf("completed %d failed %d, want one of each", rep.Completed, rep.Failed)
	}
	for i := range rep.Members {
		m := &rep.Members[i]
		if (m.Err != nil) != (m.Name == "starved") {
			t.Fatalf("member %s: err = %v", m.Name, m.Err)
		}
		if m.Elapsed <= 0 || m.Elapsed > rep.Makespan {
			t.Errorf("member %s: elapsed %v, want within (0, makespan %v]", m.Name, m.Elapsed, rep.Makespan)
		}
	}
}

// TestFleetRequiresPool pins the one hard input error.
func TestFleetRequiresPool(t *testing.T) {
	if _, err := Fleet(context.Background(), nil, FleetOptions{}); err == nil {
		t.Fatal("Fleet accepted a nil pool")
	}
}
