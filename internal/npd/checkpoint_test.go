package npd_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"klotski/internal/core"
	"klotski/internal/durable"
	"klotski/internal/gen"
	"klotski/internal/npd"
	"klotski/internal/pipeline"
)

// TestCheckpointDocumentResumes: a checkpoint is a plan document that says
// where it starts. Over every suite at × 0.25, A* and DP, run caps 0 and 2,
// resume cuts 0 and the middle of the plan, and state budgets 1, 10 and 100,
// a replan interrupted after the cut writes its checkpoint through the one
// writer, sealed, and reads it back. The checkpoint starts at the cut and
// audits from there; resuming after all its actions (the N the CLI prints)
// plans the rest; cut ++ checkpoint ++ replan audits from scratch as one
// migration; the replan costs exactly what it adds to the blocks before it;
// and the replan's own document starts after all of them.
func TestCheckpointDocumentResumes(t *testing.T) {
	cases := 0
	for _, fabric := range gen.SuiteNames() {
		s, err := gen.Suite(fabric, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		task := s.Task
		for _, planner := range []pipeline.Planner{pipeline.PlannerAStar, pipeline.PlannerDP} {
			for _, k := range []int{0, 2} {
				opts := core.Options{MaxRunLength: k}
				cfg := pipeline.Config{Planner: planner, Options: opts}
				cost := func(seq []int) float64 { return core.SequenceCostCapped(task, seq, 0, core.NoLast, k, 0) }
				full, err := pipeline.Replan(task, nil, nil, cfg)
				if err != nil {
					t.Fatalf("%s %s K=%d: %v", fabric, planner, k, err)
				}
				for _, cut := range []int{0, len(full.Sequence) / 2} {
					for _, states := range []int{1, 10, 100} {
						name := fmt.Sprintf("%s %s K=%d cut %d states %d", fabric, planner, k, cut, states)
						budget := cfg
						budget.Options.MaxStates = states
						_, err := pipeline.Replan(task, full.Sequence[:cut], nil, budget)
						var intr *core.Interrupted
						if !errors.As(err, &intr) {
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							continue
						}
						sealed, err := durable.SealValue(npd.PlanFormat, npd.BuildCheckpointDocument(intr.Checkpoint, intr.Reason))
						if err != nil {
							t.Fatal(err)
						}
						doc, err := npd.ReadPlan(sealed)
						if err != nil {
							t.Fatalf("%s: reading the checkpoint back: %v", name, err)
						}
						executed, seq, err := doc.Sequence(task)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !slices.Equal(executed, full.Sequence[:cut]) || len(seq) != doc.Actions || doc.Checkpoint == nil {
							t.Fatalf("%s: checkpoint starts after %v with %d of %d actions (section %v), want after %v",
								name, executed, len(seq), doc.Actions, doc.Checkpoint, full.Sequence[:cut])
						}
						from := opts
						from.Executed = executed
						if rep, err := core.AuditPartial(task, seq, from, false); err != nil || !rep.Passed {
							t.Fatalf("%s: the checkpoint fails its audit: %v %v", name, rep, err)
						}
						done := append(slices.Clone(executed), seq[:doc.Actions]...)
						whole := done
						if len(done) < task.NumActions() {
							re, err := pipeline.Replan(task, done, nil, cfg)
							if err != nil {
								t.Fatalf("%s: resuming after the checkpoint's %d actions: %v", name, doc.Actions, err)
							}
							whole = append(slices.Clone(done), re.Sequence...)
							if want := cost(whole) - cost(done); math.Abs(re.Cost-want) > 1e-9 {
								t.Fatalf("%s: the replan reports cost %g, executing it costs %g", name, re.Cost, want)
							}
							rd, err := npd.BuildPlanDocumentFrom(task, done, re, opts)
							if err != nil {
								t.Fatal(err)
							}
							if rdExecuted, rdSeq, err := rd.Sequence(task); err != nil ||
								!slices.Equal(rdExecuted, done) || !slices.Equal(rdSeq, re.Sequence) {
								t.Fatalf("%s: the replan's document starts after %v with %v (%v), want after %v with %v",
									name, rdExecuted, rdSeq, err, done, re.Sequence)
							}
						}
						if rep, err := core.AuditSequence(task, whole, opts, false); err != nil || !rep.Passed {
							t.Fatalf("%s: cut ++ checkpoint ++ replan fails its audit from scratch: %v %v", name, rep, err)
						}
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d checkpoints resumed", cases)
	if cases < 100 {
		t.Fatalf("only %d of 168 cases interrupted: the table lost its coverage", cases)
	}
}
