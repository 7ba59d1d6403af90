package klotski_test

import (
	"context"
	"reflect"
	"testing"

	"klotski"
	"klotski/internal/ctrl"
	"klotski/internal/obs"
)

// TestPlanFleetFacade drives fleet planning entirely through the public
// API: several members over the same fabric planned concurrently under
// one shared admission pool, every plan byte-identical to its solo serial
// reference, aggregate accounting consistent, and the sched/fleet
// counters visible through the facade's observability registry.
func TestPlanFleetFacade(t *testing.T) {
	task := buildTinyTask(t)
	refA, err := klotski.PlanAStar(task, klotski.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refD, err := klotski.PlanDP(task, klotski.Options{})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	rec := klotski.NewObsRecorder(reg)
	pool := klotski.NewWorkerPool(4, rec)
	defer pool.Close()

	opts := klotski.Options{}
	members := []klotski.FleetMember{
		{Name: "a1", Task: task, Planner: ctrl.PlannerAStar, Options: opts},
		{Name: "d1", Task: task, Planner: ctrl.PlannerDP, Options: opts},
		{Name: "a2", Task: task, Planner: ctrl.PlannerAStar, Options: opts, Priority: 1},
	}
	rep, err := klotski.PlanFleet(context.Background(), members, klotski.FleetOptions{
		Pool:     pool,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(members) || rep.Failed != 0 {
		t.Fatalf("completed %d, failed %d of %d members: %s", rep.Completed, rep.Failed, len(members), rep)
	}
	for i := range rep.Members {
		m := &rep.Members[i]
		ref := refA
		if members[i].Planner == ctrl.PlannerDP {
			ref = refD
		}
		if m.Err != nil {
			t.Fatalf("member %s: %v", m.Name, m.Err)
		}
		if !reflect.DeepEqual(m.Plan.Sequence, ref.Sequence) || m.Plan.Cost != ref.Cost {
			t.Fatalf("member %s diverged from its solo plan", m.Name)
		}
	}
	if rep.TotalCost != float64(len(members)-1)*refA.Cost+refD.Cost {
		t.Errorf("total cost %.6f inconsistent with member costs", rep.TotalCost)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["fleet.plans_admitted"]; got < int64(len(members)) {
		t.Errorf("fleet.plans_admitted = %d, want >= %d", got, len(members))
	}
}

// TestNewWorkerPoolDefaults exercises the zero-worker default and the
// double-Close guard through the facade.
func TestNewWorkerPoolDefaults(t *testing.T) {
	pool := klotski.NewWorkerPool(0, nil)
	if pool.Workers() < 1 {
		t.Fatalf("default pool budget %d", pool.Workers())
	}
	pool.Close()
	pool.Close() // idempotent
	if _, err := klotski.PlanFleet(context.Background(), nil, klotski.FleetOptions{}); err == nil {
		t.Fatal("PlanFleet accepted a nil pool")
	}
}
