package npd_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"klotski/internal/audit"
	"klotski/internal/baseline"
	"klotski/internal/core"
	"klotski/internal/demand"
	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/npd"
	"klotski/internal/pipeline"
	"klotski/internal/routing"
)

// referenceDocument renders a plan document the way the builder did before
// it read utilizations from the audit: every run's end state is placed again
// on a fresh evaluator, at the task's base demand.
func referenceDocument(task *migration.Task, executed []int, plan *core.Plan, opts core.Options) (*npd.PlanDocument, error) {
	theta := opts.Theta
	if theta <= 0 {
		theta = 0.75
	}
	doc := &npd.PlanDocument{
		Version: npd.Version,
		Task:    task.Name,
		Cost:    plan.Cost,
		Theta:   theta,
		Alpha:   opts.Alpha,
		Actions: len(plan.Sequence),
	}
	for _, id := range executed {
		doc.Executed = append(doc.Executed, task.Blocks[id].Name)
	}
	eval := routing.NewEvaluator(task.Topo)
	view := task.Topo.NewView()
	for _, id := range executed {
		task.Apply(view, id)
	}
	for i, run := range plan.Runs {
		info := task.Types[run.Type]
		ph := npd.Phase{Index: i + 1, ActionType: info.Name, Op: info.Op.String()}
		for _, id := range run.Blocks {
			task.Apply(view, id)
			ph.Blocks = append(ph.Blocks, task.Blocks[id].Name)
			ph.SwitchOps += len(task.Blocks[id].Switches)
		}
		st := view.Stats()
		ph.ActiveSwitches = st.Switches
		ph.UpCircuits = st.Circuits
		ph.CapacityTbps = st.Capacity
		res, viol := eval.Evaluate(view, &task.Demands, routing.CheckOpts{Theta: 1e9, Split: opts.Split})
		if viol.Kind == routing.ViolationUnreachable {
			return nil, fmt.Errorf("phase %d leaves demands unreachable: %s", i+1, viol)
		}
		ph.MaxUtilization = res.MaxUtil
		doc.Phases = append(doc.Phases, ph)
	}
	return doc, nil
}

func encode(t *testing.T, doc *npd.PlanDocument) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := doc.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// renderCase renders plan with the builder and with the reference and
// requires the same bytes. When the plan carries its audit report, it also
// renders the plan with one run end's step moved by one ulp, and requires
// that to differ: the builder must be reading the report, and the comparison
// must see a step it reads wrongly.
func renderCase(t *testing.T, name string, task *migration.Task, executed []int, plan *core.Plan, opts core.Options) {
	t.Helper()
	want, err := referenceDocument(task, executed, plan, opts)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	got, err := npd.BuildPlanDocumentFrom(task, executed, plan, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	wantBytes := encode(t, want)
	if !bytes.Equal(encode(t, got), wantBytes) {
		t.Fatalf("%s: document differs from the reference rendering", name)
	}
	if plan.Audit == nil {
		return
	}
	mutant := *plan
	rep := *plan.Audit
	rep.Steps = append([]audit.Step(nil), rep.Steps...)
	mutant.Audit = &rep
	end := len(plan.Runs[0].Blocks)
	for i := range rep.Steps {
		if rep.Steps[i].Index == end {
			rep.Steps[i].PlacedMaxUtil = math.Nextafter(rep.Steps[i].PlacedMaxUtil, 2)
			break
		}
	}
	bad, err := npd.BuildPlanDocumentFrom(task, executed, &mutant, opts)
	if err != nil {
		t.Fatalf("%s: mutant: %v", name, err)
	}
	if bytes.Equal(encode(t, bad), wantBytes) {
		t.Fatalf("%s: a perturbed audit step left the document unchanged", name)
	}
}

// TestPlanDocumentMatchesReference is the renderer differential: documents
// read from the audit's steps are byte-identical to documents that place
// every phase's end state again, over every suite fabric, both planners,
// fresh and resumed plans, both split modes, with and without a run cap and
// a growth forecast; and on the paths that have no usable report (a plan
// planned without its audit, a baseline plan) and a baseline plan that
// comes through the pipeline with a free-order report.
func TestPlanDocumentMatchesReference(t *testing.T) {
	const scale = 0.12
	planners := []struct {
		name string
		run  func(*migration.Task, core.Options) (*core.Plan, error)
	}{{"astar", core.PlanAStar}, {"dp", core.PlanDP}}
	rendered := 0
	for _, fabric := range gen.SuiteNames() {
		s, err := gen.Suite(fabric, scale)
		if err != nil {
			t.Fatal(err)
		}
		base := s.Task
		for _, split := range []routing.SplitMode{routing.SplitEqual, routing.SplitCapacityWeighted} {
			for _, maxRun := range []int{0, 2} {
				for _, growth := range []float64{0, 0.01} {
					planTask := base
					if growth != 0 {
						planTask = base.WithForecast(demand.Forecast{GrowthPerStep: growth})
					}
					opts := core.Options{Split: split, MaxRunLength: maxRun}
					for _, pl := range planners {
						name := fmt.Sprintf("%s/%s/split%d/maxrun%d/growth%g", fabric, pl.name, split, maxRun, growth)
						full, err := pl.run(planTask, opts)
						if err != nil {
							t.Logf("%s: not plannable: %v", name, err)
							continue
						}
						renderCase(t, name, base, nil, full, opts)
						rendered++

						executed := full.Runs[0].Blocks
						resumed := opts
						resumed.Executed = executed
						rest, err := pl.run(planTask, resumed)
						if err != nil {
							t.Fatalf("%s: resuming after the first run: %v", name, err)
						}
						renderCase(t, name+"/resumed", base, executed, rest, opts)
						rendered++
					}
				}
			}
		}
	}
	t.Logf("%d plans rendered", rendered)
	if rendered < 100 {
		t.Fatalf("only %d plans rendered: the matrix lost its coverage", rendered)
	}

	// Paths without a usable report: the builder audits the plan again.
	s, err := gen.Suite("B", scale)
	if err != nil {
		t.Fatal(err)
	}
	skipped, err := core.PlanAStar(s.Task, core.Options{SkipAudit: true})
	if err != nil {
		t.Fatal(err)
	}
	renderCase(t, "B/astar/skip-audit", s.Task, nil, skipped, core.Options{})
	e, err := gen.Suite("E", scale)
	if err != nil {
		t.Fatal(err)
	}
	capped := core.Options{MaxRunLength: 2}
	skipCapped := capped
	skipCapped.SkipAudit = true
	split, err := core.PlanAStar(e.Task, skipCapped)
	if err != nil {
		t.Fatal(err)
	}
	if len(split.Runs) == len(core.RunsOf(e.Task, split.Sequence, 0)) {
		t.Fatal("E: no run is split at the cap, so the case cannot reach the canonical re-audit")
	}
	renderCase(t, "E/astar/skip-audit/maxrun2", e.Task, nil, split, capped)
	mrc, err := baseline.PlanMRC(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mrc.Audit != nil {
		t.Fatal("baseline plans are expected to arrive without a report")
	}
	renderCase(t, "B/mrc/no-report", s.Task, nil, mrc, core.Options{})
	executed := mrc.Runs[0].Blocks
	rest, err := pipeline.Replan(s.Task, executed, nil, pipeline.Config{Planner: pipeline.PlannerMRC})
	if err != nil {
		t.Fatal(err)
	}
	renderCase(t, "B/mrc/resumed", s.Task, executed, rest, core.Options{})

	// A report routed under one split mode does not cover a document
	// rendered under the other.
	ecmp, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wcmp := core.Options{Split: routing.SplitCapacityWeighted}
	want, err := referenceDocument(s.Task, nil, ecmp, wcmp)
	if err != nil {
		t.Fatal(err)
	}
	asPlanned, err := referenceDocument(s.Task, nil, ecmp, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encode(t, want), encode(t, asPlanned)) {
		t.Fatal("B: the split modes place the same loads, so the case cannot tell them apart")
	}
	got, err := npd.BuildPlanDocument(s.Task, ecmp, wcmp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, got), encode(t, want)) {
		t.Fatal("B/astar/ecmp-report: WCMP document differs from the reference rendering")
	}

	// A baseline plan through the pipeline carries the pipeline's
	// free-order report.
	res, err := pipeline.RunTask(s.Task, pipeline.Config{Planner: pipeline.PlannerMRC})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Audit == nil {
		t.Fatal("pipeline attached no report to the baseline plan")
	}
	want, err = referenceDocument(s.Task, nil, res.Plan, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, res.Document), encode(t, want)) {
		t.Fatal("B/mrc/pipeline: document differs from the reference rendering")
	}
	renderCase(t, "B/mrc/pipeline", s.Task, nil, res.Plan, core.Options{})
}
