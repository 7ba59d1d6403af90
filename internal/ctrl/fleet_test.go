package ctrl

import (
	"context"
	"reflect"
	"sync"
	"testing"

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

// TestFleetForcedPreemption preempts a member at the starting line with a
// higher-priority registration and verifies the checkpoint-readmit-resume
// cycle completes with the undisturbed serial plan, counting both
// admissions. legs_test.go drives the runner through every other cut.
func TestFleetForcedPreemption(t *testing.T) {
	task, _ := loopTask(t)
	ref, err := core.PlanAStar(task, core.Options{Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	pool := sched.NewPool(1, nil)
	defer pool.Close()
	var once sync.Once
	member := FleetMember{
		Name: "victim", Task: task, Planner: PlannerAStar, Options: core.Options{Alpha: 0.2},
		legHook: func(int) (err error) {
			once.Do(func() {
				// The victim holds the single-worker pool's whole
				// reservation, so this registration preempts it,
				// deterministically; closing it frees the pool for the
				// victim's re-admission.
				var hi *sched.Client
				if hi, err = pool.Register("hi", sched.ClientOptions{Priority: 1, MinShare: 1}); err == nil {
					hi.Close()
				}
			})
			return err
		},
	}
	rep, err := Fleet(context.Background(), []FleetMember{member}, FleetOptions{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Members[0]
	if m.Err != nil {
		t.Fatalf("member error: %v", m.Err)
	}
	if m.Preemptions != 1 || rep.Preemptions != 1 || rep.Admitted != 2 {
		t.Fatalf("preemptions %d (fleet %d), admitted %d; want 1, 1, 2", m.Preemptions, rep.Preemptions, rep.Admitted)
	}
	if !reflect.DeepEqual(m.Plan.Sequence, ref.Sequence) || m.Plan.Cost != ref.Cost {
		t.Fatalf("resumed plan diverged from serial reference:\n got %v (cost %.6f)\nwant %v (cost %.6f)",
			m.Plan.Sequence, m.Plan.Cost, ref.Sequence, ref.Cost)
	}
}

// TestFleetMaxPreemptionsFallsBack preempts a member maxFleetPreemptions
// times and keeps the last preemptor registered for the whole run: the
// member must finish without a pool client — still with the serial plan —
// and the report must count only the clients it was given, not one per
// preemption plus one. A member whose registration fails was never
// admitted either.
func TestFleetMaxPreemptionsFallsBack(t *testing.T) {
	task, _ := loopTask(t)
	ref, err := core.PlanAStar(task, core.Options{Alpha: 0.2})
	if err != nil {
		t.Fatal(err)
	}

	pool := sched.NewPool(1, nil)
	defer pool.Close()
	var hi *sched.Client
	calls := 0
	member := FleetMember{
		Name: "victim", Task: task, Planner: PlannerAStar, Options: core.Options{Alpha: 0.2},
		legHook: func(int) (err error) {
			if calls++; calls > maxFleetPreemptions {
				return nil // clientless: nothing left to preempt
			}
			if hi, err = pool.Register("hi", sched.ClientOptions{Priority: 1, MinShare: 1}); err == nil && calls < maxFleetPreemptions {
				hi.Close()
			}
			return err
		},
	}
	rep, err := Fleet(context.Background(), []FleetMember{member}, FleetOptions{Pool: pool})
	if hi != nil {
		hi.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	m := rep.Members[0]
	if m.Err != nil {
		t.Fatalf("member error: %v", m.Err)
	}
	if m.Preemptions != maxFleetPreemptions {
		t.Fatalf("preemptions = %d, want %d", m.Preemptions, maxFleetPreemptions)
	}
	// The first admission and one re-admission per preemption but the last.
	if rep.Admitted != maxFleetPreemptions {
		t.Errorf("admitted = %d, want %d", rep.Admitted, maxFleetPreemptions)
	}
	if !reflect.DeepEqual(m.Plan.Sequence, ref.Sequence) || m.Plan.Cost != ref.Cost {
		t.Fatal("clientless fallback plan diverged from serial reference")
	}

	closed := sched.NewPool(1, nil)
	closed.Close()
	rep, err = Fleet(context.Background(), []FleetMember{{Name: "refused", Task: task}}, FleetOptions{Pool: closed})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.Admitted != 0 {
		t.Errorf("refused member: failed %d, admitted %d; want 1, 0", rep.Failed, rep.Admitted)
	}
}

// TestFleetMembersReportElapsed pins that every member's report carries its
// own wall time, whether it completed or failed: planMember once set Elapsed
// in a deferred write, which missed the value already copied out.
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
