package klotski_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"klotski"
	"klotski/internal/gen"
	"klotski/internal/pipeline"
)

// Differential audit testing: the independent auditor (internal/audit) and
// the planners are separately derived implementations of the same boundary
// semantics, so every plan any planner emits — serial or parallel — must
// pass the audit, and any tampering with an emitted plan
// (reordering, injecting, or dropping actions) must be caught at the exact
// offending step.

func withWorkers(o klotski.Options, w int) klotski.Options {
	o.Workers = w
	return o
}

// auditPlanners is the planner matrix the audit must agree with: A* and
// DP, each with the audit on one lane and on four.
func auditPlanners(task *klotski.Task, opts klotski.Options) []struct {
	name string
	plan func() (*klotski.Plan, error)
} {
	return []struct {
		name string
		plan func() (*klotski.Plan, error)
	}{
		{"astar", func() (*klotski.Plan, error) { return klotski.PlanAStar(task, opts) }},
		{"astar-parallel", func() (*klotski.Plan, error) { return klotski.PlanAStar(task, withWorkers(opts, 4)) }},
		{"dp", func() (*klotski.Plan, error) { return klotski.PlanDP(task, opts) }},
		{"dp-parallel", func() (*klotski.Plan, error) { return klotski.PlanDP(task, withWorkers(opts, 4)) }},
	}
}

// assertAuditAgrees plans the task with every planner configuration and
// requires (a) the automatic post-pass attached a passing report, (b) an
// independent re-audit of the emitted sequence passes, and (c) tampered
// variants of the plan fail the audit at the correct step index. Returns
// one emitted plan for further use, or nil if the task is infeasible.
func assertAuditAgrees(t *testing.T, task *klotski.Task, opts klotski.Options) *klotski.Plan {
	t.Helper()
	var ref *klotski.Plan
	for _, p := range auditPlanners(task, opts) {
		plan, err := p.plan()
		if errors.Is(err, klotski.ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if plan.Audit == nil {
			t.Fatalf("%s: emitted plan carries no audit report", p.name)
		}
		if !plan.Audit.Passed {
			t.Fatalf("%s: emitted plan's audit report failed: %s", p.name, plan.Audit)
		}
		rep, err := klotski.AuditPlan(task, plan.Sequence, opts, false)
		if err != nil {
			t.Fatalf("%s: re-audit: %v", p.name, err)
		}
		if !rep.Passed {
			t.Fatalf("%s: independent re-audit failed: %s", p.name, rep)
		}
		if ref == nil {
			ref = plan
		}
	}
	if ref != nil {
		assertTamperDetected(t, task, ref.Sequence, opts)
	}
	return ref
}

// assertTamperDetected mutates a known-good sequence three ways —
// reordered, injected, dropped — and requires the audit to fail each one
// at the exact step of the tamper.
func assertTamperDetected(t *testing.T, task *klotski.Task, seq []int, opts klotski.Options) {
	t.Helper()
	if len(seq) < 2 {
		return
	}

	// Reorder: swap an adjacent same-type pair (order across types is
	// legitimately free, so only a within-type swap is a real tamper).
	for i := 0; i+1 < len(seq); i++ {
		if task.Blocks[seq[i]].Type != task.Blocks[seq[i+1]].Type {
			continue
		}
		tampered := append([]int(nil), seq...)
		tampered[i], tampered[i+1] = tampered[i+1], tampered[i]
		rep, err := klotski.AuditPlan(task, tampered, opts, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Passed {
			t.Fatalf("reordered sequence (swap at %d) passed audit", i)
		}
		if rep.FailStep != i || !strings.Contains(rep.Reason, "reordered") {
			t.Fatalf("reorder at %d: FailStep = %d, reason %q", i, rep.FailStep, rep.Reason)
		}
		break
	}

	// Inject: append a block that already executed.
	injected := append(append([]int(nil), seq...), seq[0])
	rep, err := klotski.AuditPlan(task, injected, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("injected duplicate passed audit")
	}
	if rep.FailStep != len(seq) || !strings.Contains(rep.Reason, "injected") {
		t.Fatalf("inject: FailStep = %d, reason %q; want %d", rep.FailStep, rep.Reason, len(seq))
	}

	// Drop: cut the final action.
	rep, err = klotski.AuditPlan(task, seq[:len(seq)-1], opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed {
		t.Fatal("dropped action passed audit")
	}
	if rep.FailStep != len(seq)-1 || !strings.Contains(rep.Reason, "dropped") {
		t.Fatalf("drop: FailStep = %d, reason %q; want %d", rep.FailStep, rep.Reason, len(seq)-1)
	}
}

func TestAuditDifferentialTiny(t *testing.T) {
	if assertAuditAgrees(t, buildTinyTask(t), klotski.Options{}) == nil {
		t.Fatal("tiny task should be feasible")
	}
}

// TestAuditDifferentialSuites runs the audit differential over every
// fabric in the evaluation suite.
func TestAuditDifferentialSuites(t *testing.T) {
	for _, name := range klotski.SuiteNames() {
		t.Run(name, func(t *testing.T) {
			s, err := klotski.Suite(name, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			assertAuditAgrees(t, s.Task, klotski.Options{MaxStates: 2_000_000})
		})
	}
}

// TestAuditDifferentialRandomFabrics draws seeded random HGRID fabrics and
// requires every planner's plan to pass the independent audit and every
// tampered variant to fail it at the right step. The seed is fixed, so a
// failure reproduces.
func TestAuditDifferentialRandomFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("property test over generated fabrics")
	}
	rng := rand.New(rand.NewSource(20260807))
	const cases = 10
	feasible := 0
	for i := 0; i < cases; i++ {
		p := gen.HGRIDScenarioParams{
			Region: klotski.RegionParams{
				Name: fmt.Sprintf("auditprop-%d", i),
				DCs: []gen.FabricParams{{
					Pods:        1 + rng.Intn(2),
					RSWPerPod:   2,
					Planes:      4,
					SSWPerPlane: 1 + rng.Intn(2),
					FSWUplinks:  1,
				}},
				HGRID: gen.HGRIDParams{
					Grids:        2 + rng.Intn(3),
					FADUPerGrid:  1 + rng.Intn(2),
					FAUUPerGrid:  1,
					SSWDownlinks: 1,
				},
				EBs: 2, DRs: 1, EBBs: 1,
			},
			Demand:            gen.DemandSpec{BaseUtil: 0.30 + 0.15*rng.Float64()},
			V2GridFactor:      1 + rng.Intn(2),
			V2CapFactor:       0.5 + 0.5*rng.Float64(),
			PortHeadroomGrids: 1,
		}
		theta := 0.65 + 0.2*rng.Float64()
		t.Run(fmt.Sprintf("case=%d", i), func(t *testing.T) {
			s, err := gen.HGRIDScenario(p.Region.Name, p)
			if err != nil {
				t.Fatalf("generating fabric: %v", err)
			}
			if assertAuditAgrees(t, s.Task, klotski.Options{Theta: theta, MaxStates: 500_000}) != nil {
				feasible++
			}
		})
	}
	if feasible == 0 {
		t.Error("every random fabric infeasible; the differential exercised nothing")
	}
}

// TestAuditCatchesPlannerOptOut: SkipAudit plans carry no report, and the
// pipeline's audit stage re-derives one rather than trusting the planner.
func TestAuditSkipOption(t *testing.T) {
	task := buildTinyTask(t)
	plan, err := klotski.PlanAStar(task, klotski.Options{SkipAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Audit != nil {
		t.Fatal("SkipAudit plan still carries an audit report")
	}
	audited, err := klotski.PlanAStar(task, klotski.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if audited.Audit == nil || !audited.Audit.Passed {
		t.Fatalf("default plan not audited: %+v", audited.Audit)
	}
	if audited.Metrics.Checks < plan.Metrics.Checks {
		t.Errorf("audited run recorded fewer checks (%d) than unaudited (%d)?",
			audited.Metrics.Checks, plan.Metrics.Checks)
	}
}

// TestAuditFreeOrderBaselines: the baseline planners emit free-order
// sequences; the pipeline audits them in free-order mode and they pass.
func TestAuditFreeOrderBaselines(t *testing.T) {
	task := buildTinyTask(t)
	for _, pl := range []klotski.PlannerName{pipeline.PlannerMRC} {
		res, err := klotski.RunPipelineTask(task, klotski.PipelineConfig{Planner: pl})
		if err != nil {
			t.Fatalf("%s: %v", pl, err)
		}
		if res.Plan.Audit == nil || !res.Plan.Audit.Passed {
			t.Fatalf("%s: pipeline plan not audited: %+v", pl, res.Plan.Audit)
		}
	}
}
