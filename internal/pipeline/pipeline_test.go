package pipeline

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"klotski/internal/core"
	"klotski/internal/demand"
	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/npd"
	"klotski/internal/topo"
)

func sampleDoc() *npd.Document {
	return &npd.Document{
		Version: npd.Version,
		Name:    "region-pipe",
		Fabric: []npd.FabricPart{
			{DC: 0, Pods: 2, RSWPerPod: 2, Planes: 4, SSWPerPlane: 2, FSWUplinks: 1},
		},
		HGRID:     &npd.HGRIDPart{Grids: 4, FADUPerGrid: 2, FAUUPerGrid: 1, SSWDownlinks: 1},
		EB:        &npd.EBPart{Count: 2, LinkTbps: 40},
		DR:        &npd.DRPart{Count: 1, LinkTbps: 80},
		BB:        &npd.BBPart{EBBs: 1},
		Migration: &npd.MigrationPart{Kind: npd.MigrationHGRID},
	}
}

func TestRunEndToEnd(t *testing.T) {
	res, err := Run(sampleDoc(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || res.Document == nil || res.Scenario == nil {
		t.Fatal("incomplete result")
	}
	if len(res.Document.Phases) != len(res.Plan.Runs) {
		t.Fatalf("document phases %d != plan runs %d", len(res.Document.Phases), len(res.Plan.Runs))
	}
}

func TestRunWithEachPlanner(t *testing.T) {
	for _, pl := range []Planner{PlannerAStar, PlannerDP, PlannerMRC, PlannerJanus} {
		res, err := Run(sampleDoc(), Config{Planner: pl})
		if err != nil {
			t.Errorf("planner %s: %v", pl, err)
			continue
		}
		verify := core.VerifyPlan
		if pl == PlannerMRC || pl == PlannerJanus {
			verify = core.VerifyPlanFreeOrder
		}
		if err := verify(res.Task, res.Plan.Sequence, Config{}.Options); err != nil {
			t.Errorf("planner %s produced invalid plan: %v", pl, err)
		}
	}
	if _, err := (Planner("bogus")).Plan(nil, core.Options{}); err == nil {
		t.Error("unknown planner should error")
	}
}

func TestRunWithBlockFactor(t *testing.T) {
	doc := sampleDoc()
	doc.Migration.BlockFactor = 2
	res, err := Run(doc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(sampleDoc(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Task.NumActions() <= base.Task.NumActions() {
		t.Errorf("block factor 2 should split blocks: %d vs %d",
			res.Task.NumActions(), base.Task.NumActions())
	}
}

// forecastTask builds sampleDoc's task growing demand by growth per step.
func forecastTask(t *testing.T, growth float64) *migration.Task {
	t.Helper()
	task, _, err := sampleDoc().Task()
	if err != nil {
		t.Fatal(err)
	}
	return task.WithForecast(demand.Forecast{GrowthPerStep: growth})
}

// TestForecastPlanAuditsUnderGrowth: the task carries the growth model, so
// the pipeline's plan passes its audit at the demand forecast for every
// state, and it is still a valid plan at base demand.
func TestForecastPlanAuditsUnderGrowth(t *testing.T) {
	task := forecastTask(t, 0.03)
	res, err := RunTask(task, Config{})
	if err != nil {
		// Very aggressive growth can make the migration genuinely
		// impossible; that is a legitimate outcome, reported as such.
		if errors.Is(err, core.ErrInfeasible) {
			t.Skip("growth made migration infeasible at this scale")
		}
		t.Fatal(err)
	}
	if res.Plan.Task.Forecast != task.Forecast || !res.Plan.Audit.Passed {
		t.Fatalf("plan not audited under the task's forecast: %+v, %s", res.Plan.Task.Forecast, res.Plan.Audit)
	}
	if err := core.VerifyPlan(task.WithForecast(demand.Forecast{}), res.Plan.Sequence, core.Options{}); err != nil {
		t.Fatalf("forecast-adjusted plan invalid at base demand: %v", err)
	}
}

// TestForecastZeroGrowthIsNoForecast: a zero growth model plans and
// documents exactly what no forecast does.
func TestForecastZeroGrowthIsNoForecast(t *testing.T) {
	res, err := RunTask(forecastTask(t, 0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(sampleDoc(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Document, want.Document) {
		t.Errorf("zero growth document %+v, without a forecast %+v", res.Document, want.Document)
	}
}

// TestForecastKeepsRunCap: a plan made under a growth forecast keeps its
// planner's run rule in its runs and its cost: the core planners split runs
// at the cap, the baselines ignore it. With growth too small to change any
// verdict, it is the capped plan without growth, phase for phase.
func TestForecastKeepsRunCap(t *testing.T) {
	for _, c := range []struct {
		pl     Planner
		suite  string // a fabric the planner can plan at scale 0.25
		maxRun int    // below the baseline's longest run
	}{{PlannerAStar, "E", 2}, {PlannerMRC, "E", 2}, {PlannerJanus, "D", 1}} {
		pl, maxRun := c.pl, c.maxRun
		s, err := gen.Suite(c.suite, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		runCap := maxRun
		if pl.FreeOrder() {
			runCap = 0
		}
		capped := Config{Planner: pl, Options: core.Options{MaxRunLength: maxRun}}
		want, err := RunTask(s.Task, capped)
		if err != nil {
			t.Fatalf("%s: %v", pl, err)
		}
		if pl.FreeOrder() && !slices.ContainsFunc(want.Plan.Runs, func(r core.Run) bool { return len(r.Blocks) > maxRun }) {
			t.Fatalf("%s: no run is longer than the cap, so the case cannot tell the run rules apart", pl)
		}
		grown := s.Task.WithForecast(demand.Forecast{GrowthPerStep: 1e-6})
		got, err := RunTask(grown, capped)
		if err != nil {
			t.Fatalf("%s under growth: %v", pl, err)
		}
		seq := got.Plan.Sequence
		if !reflect.DeepEqual(got.Plan.Runs, core.RunsOf(s.Task, seq, runCap)) {
			t.Errorf("%s: runs %v do not follow the run cap %d", pl, got.Plan.Runs, runCap)
		}
		if c := core.SequenceCostCapped(s.Task, seq, 0, core.NoLast, runCap, 0); got.Plan.Cost != c {
			t.Errorf("%s: cost %g, the cost of its sequence under run cap %d is %g", pl, got.Plan.Cost, runCap, c)
		}
		if !slices.Equal(seq, want.Plan.Sequence) {
			t.Fatalf("%s: growth %g changed the sequence", pl, grown.Forecast.GrowthPerStep)
		}
		if got.Plan.Cost != want.Plan.Cost || !reflect.DeepEqual(got.Document.Phases, want.Document.Phases) {
			t.Errorf("%s under growth: cost %g in %d phases; without: cost %g in %d phases",
				pl, got.Plan.Cost, len(got.Document.Phases), want.Plan.Cost, len(want.Document.Phases))
		}
	}
}

// TestForecastBaselinesFailAtAuditStep: a baseline plans at base demand,
// and the pipeline audits its plan under the task's forecast. A plan the
// forecast breaks fails that audit, as core.ErrAudit with the audit's step
// and reason; a baseline the forecast does not break plans the sequence it
// plans without one.
func TestForecastBaselinesFailAtAuditStep(t *testing.T) {
	s, err := gen.Suite("A", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		pl     Planner
		growth float64
		reason string // the audit's step and reason, "" for a plan
		want   []int
	}{
		{PlannerMRC, 0.03, "step 5: unsafe state before step 5", nil},
		{PlannerJanus, 0.01, "step 6: unsafe state before step 6", nil},
		{PlannerMRC, 0.02, "", []int{0, 4, 2, 6, 1, 5, 3, 7}},
	} {
		res, err := RunTask(s.Task.WithForecast(demand.Forecast{GrowthPerStep: c.growth}), Config{Planner: c.pl})
		if c.reason == "" {
			if err != nil {
				t.Fatalf("%s at growth %g: %v", c.pl, c.growth, err)
			}
			if !slices.Equal(res.Plan.Sequence, c.want) {
				t.Errorf("%s at growth %g: sequence %v, want %v", c.pl, c.growth, res.Plan.Sequence, c.want)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s at growth %g planned %v", c.pl, c.growth, res.Plan.Sequence)
		}
		if !errors.Is(err, core.ErrAudit) || !strings.Contains(err.Error(), c.reason) {
			t.Errorf("%s at growth %g: %v should be an audit failure carrying %q", c.pl, c.growth, err, c.reason)
		}
	}
}

func buildScenario(t *testing.T) *gen.Scenario {
	t.Helper()
	s, err := gen.TopologyA(0.2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReplanContinuesFromPrefix(t *testing.T) {
	s := buildScenario(t)
	full, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := len(full.Runs[0].Blocks)
	executed := full.Sequence[:k]
	re, err := Replan(s.Task, executed, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	combined := append(append([]int(nil), executed...), re.Sequence...)
	if err := core.VerifyPlan(s.Task, combined, core.Options{}); err != nil {
		t.Fatalf("combined replan invalid: %v", err)
	}
}

// TestBaselineReplanResumesFromExecutedSet: a baseline plan is free-order,
// so a prefix of it is a set of blocks that per-type counts may not name.
// At every resume point of an MRC and a Janus plan on suites A–D, the
// replan must operate exactly the blocks not yet executed, and pass its
// free-order audit from exactly the executed set. MRC's greedy is
// memoryless, so its replan is the rest of its own plan; Janus is optimal
// from there, so its replan costs no more than that rest.
func TestBaselineReplanResumesFromExecutedSet(t *testing.T) {
	nonCanonical := 0
	for _, suite := range []string{"A", "B", "C", "D"} {
		s, err := gen.Suite(suite, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		task := s.Task
		for _, planner := range []Planner{PlannerMRC, PlannerJanus} {
			cfg := Config{Planner: planner}
			res, err := RunTask(task, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", suite, planner, err)
			}
			seq := res.Plan.Sequence
			for n := 1; n < len(seq); n++ {
				executed := seq[:n]
				if !namesCanonicalPrefix(task, executed) {
					nonCanonical++
				}
				re, err := Replan(task, executed, nil, cfg)
				if err != nil {
					t.Fatalf("%s %s after %d: %v", suite, planner, n, err)
				}
				all := append(slices.Clone(executed), re.Sequence...)
				slices.Sort(all)
				blocks := make([]int, len(task.Blocks))
				for i := range blocks {
					blocks[i] = i
				}
				if !slices.Equal(all, blocks) {
					t.Fatalf("%s %s after %d: replan %v does not operate exactly the %d blocks left after %v",
						suite, planner, n, re.Sequence, task.NumActions()-n, executed)
				}
				opts := cfg.Options
				opts.Executed = executed
				rep, err := core.AuditSequence(task, re.Sequence, opts, true)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Passed || !slices.Equal(rep.Start, executed) {
					t.Fatalf("%s %s after %d: free-order audit from %v: %s", suite, planner, n, rep.Start, rep)
				}
				last := task.Blocks[executed[n-1]].Type
				switch {
				case planner == PlannerMRC && !slices.Equal(re.Sequence, seq[n:]):
					t.Errorf("%s MRC after %d: replan %v, rest of the plan %v", suite, n, re.Sequence, seq[n:])
				case planner == PlannerJanus && re.Cost > core.SequenceCost(task, seq[n:], 0, last)+1e-9:
					t.Errorf("%s Janus after %d: replan costs %g, more than the rest of the plan", suite, n, re.Cost)
				}
			}
		}
	}
	if nonCanonical == 0 {
		t.Fatal("every resume point is a canonical prefix; the test cannot tell a block set from counts")
	}
}

// namesCanonicalPrefix reports whether the executed blocks are the first
// blocks of each type, the set per-type counts name.
func namesCanonicalPrefix(task *migration.Task, executed []int) bool {
	counts := make([]int, task.NumTypes())
	for _, id := range executed {
		counts[task.Blocks[id].Type]++
	}
	for _, id := range executed {
		ty := task.Blocks[id].Type
		if !slices.Contains(task.BlocksOfType(ty)[:counts[ty]], id) {
			return false
		}
	}
	return true
}

func TestReplanWithNewDemands(t *testing.T) {
	s := buildScenario(t)
	full, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	executed := full.Sequence[:1]
	// A modest surge: demands up 10%.
	grown := s.Task.Demands.Scaled(1.1)
	re, err := Replan(s.Task, executed, &grown, Config{})
	if err != nil {
		t.Fatalf("replan with grown demand: %v", err)
	}
	if len(re.Sequence)+len(executed) != s.Task.NumActions() {
		t.Errorf("replan incomplete: %d + %d != %d",
			len(re.Sequence), len(executed), s.Task.NumActions())
	}
}

func TestReplanAfterOutage(t *testing.T) {
	// Topology C has multiple pods per DC, so losing one FSW to routine
	// maintenance leaves enough redundancy to finish the migration.
	s, err := gen.TopologyC(0.15)
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	executed := full.Sequence[:1]

	// Take one non-operated FSW down (routine maintenance).
	var down topo.SwitchID = -1
	operated := map[topo.SwitchID]bool{}
	for _, b := range s.Task.Blocks {
		for _, sw := range b.Switches {
			operated[sw] = true
		}
	}
	for i := 0; i < s.Task.Topo.NumSwitches(); i++ {
		sw := s.Task.Topo.Switch(topo.SwitchID(i))
		if sw.Role == topo.RoleFSW && !operated[sw.ID] {
			down = sw.ID
			break
		}
	}
	if down < 0 {
		t.Fatal("no non-operated FSW found")
	}
	re, err := ReplanAfterOutage(s.Task, executed, []topo.SwitchID{down}, Config{})
	if err != nil {
		t.Fatalf("ReplanAfterOutage: %v", err)
	}
	if len(re.Sequence)+len(executed) != s.Task.NumActions() {
		t.Error("outage replan incomplete")
	}
}

func TestReplanAfterOutageRejectsOperatedSwitch(t *testing.T) {
	s := buildScenario(t)
	operatedSwitch := s.Task.Blocks[0].Switches[0]
	_, err := ReplanAfterOutage(s.Task, nil, []topo.SwitchID{operatedSwitch}, Config{})
	if err == nil || !strings.Contains(err.Error(), "operated by block") {
		t.Fatalf("want operated-switch conflict error, got %v", err)
	}
}

func TestAuditCatchesCorruptedPlan(t *testing.T) {
	s := buildScenario(t)
	res, err := RunTask(s.Task, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the plan: drop the last action.
	bad := res.Plan.Sequence[:len(res.Plan.Sequence)-1]
	if err := core.VerifyPlan(s.Task, bad, core.Options{}); err == nil {
		t.Error("audit should reject truncated plan")
	}
}

func TestCheckStateHelper(t *testing.T) {
	s := buildScenario(t)
	counts := make([]int, s.Task.NumTypes())
	if err := core.CheckState(s.Task, counts, core.Options{}); err != nil {
		t.Fatalf("initial state should be safe: %v", err)
	}
	// Drain every grid with nothing undrained: unsafe.
	counts[0] = len(s.Task.BlocksOfType(migration.ActionType(0)))
	if err := core.CheckState(s.Task, counts, core.Options{}); err == nil {
		t.Error("all-drained state should be unsafe")
	}
}

func TestPlannerCostsOrdered(t *testing.T) {
	s := buildScenario(t)
	opt, err := core.PlanAStar(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pl := range []Planner{PlannerDP, PlannerJanus} {
		p, err := pl.Plan(s.Task, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", pl, err)
		}
		if math.Abs(p.Cost-opt.Cost) > 1e-9 {
			t.Errorf("%s cost %v != optimal %v", pl, p.Cost, opt.Cost)
		}
	}
	mrc, err := PlannerMRC.Plan(s.Task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mrc.Cost < opt.Cost-1e-9 {
		t.Errorf("MRC cost %v below optimal %v", mrc.Cost, opt.Cost)
	}
}

func TestCampaignSeedsAttachReport(t *testing.T) {
	res, err := Run(sampleDoc(), Config{CampaignSeeds: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Campaign == nil {
		t.Fatal("campaign report missing")
	}
	if res.Campaign.Seeds != 6 || res.Campaign.PeakMax <= 0 {
		t.Fatalf("campaign report = %+v", res.Campaign)
	}
}
