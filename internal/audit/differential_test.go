package audit_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"klotski/internal/audit"
	"klotski/internal/core"
	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/routing"
)

// The adversarial battery for the one audit engine: on every suite fabric,
// under the constraint knobs and on seeded random fabrics, the planner's
// plan must pass, and tightened, tampered, partial, resumed and free-order
// replays must end exactly where and why they should. The test names say
// "differential" because the battery is the planner's verdict held against
// the independent replay's.

// verify audits seq under cfg and holds the Report to the invariants every
// verdict keeps: a pass carries no failure, a failure names its step and
// reason, one Step per checked state in sequence order, every Step but a
// failing last one OK, and WorstUtil the largest Step MaxUtil.
func verify(t *testing.T, label string, task *migration.Task, seq []int, cfg audit.Config) *audit.Report {
	t.Helper()
	rep, err := audit.Verify(task, seq, cfg)
	if err != nil {
		t.Fatalf("%s: audit: %v", label, err)
	}
	if rep.Passed != (rep.FailStep == -1) || rep.Passed != (rep.Reason == "") {
		t.Fatalf("%s: passed=%v with FailStep %d, reason %q", label, rep.Passed, rep.FailStep, rep.Reason)
	}
	if rep.StatesChecked != len(rep.Steps) {
		t.Fatalf("%s: %d states checked, %d steps", label, rep.StatesChecked, len(rep.Steps))
	}
	worst, prev := 0.0, 0
	for i, st := range rep.Steps {
		if st.Index < prev || st.Index > len(seq) {
			t.Fatalf("%s: step %d at index %d after %d (sequence of %d)", label, i, st.Index, prev, len(seq))
		}
		prev = st.Index
		if st.MaxUtil > worst {
			worst = st.MaxUtil
		}
		last := i == len(rep.Steps)-1
		if !st.OK && (!last || rep.Passed || rep.FailStep != st.Index) {
			t.Fatalf("%s: step %d (index %d) not OK, report passed=%v FailStep=%d", label, i, st.Index, rep.Passed, rep.FailStep)
		}
		if st.OK && last && !rep.Passed {
			t.Fatalf("%s: replay failed at step %d but its last state is OK", label, rep.FailStep)
		}
	}
	if rep.WorstUtil != worst {
		t.Fatalf("%s: WorstUtil %v, largest step MaxUtil %v", label, rep.WorstUtil, worst)
	}
	verifiersAgree(t, label, task, seq, cfg, rep)
	return rep
}

// verifiersAgree holds core's plan checkers to the report on every config
// they can express (no AllowPartial): VerifyPlan, or
// VerifyPlanFreeOrder in free order, passes iff the report passed and fails
// with ErrInfeasible iff its last Step failed; on canonical configs,
// ValidateSequence fails iff the report failed before any Step.
func verifiersAgree(t *testing.T, label string, task *migration.Task, seq []int, cfg audit.Config, rep *audit.Report) {
	t.Helper()
	if cfg.AllowPartial {
		return
	}
	opts := core.Options{
		Theta:        cfg.Theta,
		Split:        cfg.Split,
		FunnelFactor: cfg.FunnelFactor,
		MaxRunLength: cfg.MaxRunLength,
		SpaceBudget:  cfg.SpaceBudget,
		Executed:     cfg.Executed,
	}
	name, verifyPlan := "VerifyPlan", core.VerifyPlan
	if cfg.FreeOrder {
		name, verifyPlan = "VerifyPlanFreeOrder", core.VerifyPlanFreeOrder
	}
	err := verifyPlan(task, seq, opts)
	unsafe := len(rep.Steps) > 0 && !rep.Steps[len(rep.Steps)-1].OK
	if (err == nil) != rep.Passed || errors.Is(err, core.ErrInfeasible) != unsafe {
		t.Fatalf("%s: %s returned %v for report %s", label, name, err, rep)
	}
	if cfg.FreeOrder {
		return
	}
	if err := core.ValidateSequence(task, seq, cfg.Executed); (err != nil) != (!rep.Passed && len(rep.Steps) == 0) {
		t.Fatalf("%s: ValidateSequence returned %v for report %s", label, err, rep)
	}
}

// baseConfig mirrors core's auditConfig mapping for a planning option set.
func baseConfig(opts core.Options) audit.Config {
	return audit.Config{
		Theta:        opts.Theta,
		Split:        opts.Split,
		FunnelFactor: opts.FunnelFactor,
		MaxRunLength: opts.MaxRunLength,
		SpaceBudget:  opts.SpaceBudget,
	}
}

// exerciseFabric runs the full battery on one fabric: plan it, then audit
// the plan and adversarial variants of it. Reports false if the fabric is
// infeasible under opts.
func exerciseFabric(t *testing.T, task *migration.Task, opts core.Options) bool {
	t.Helper()
	opts.SkipAudit = true // this suite audits explicitly
	plan, err := core.PlanAStar(task, opts)
	if errors.Is(err, core.ErrInfeasible) {
		return false
	}
	if err != nil {
		t.Fatalf("planning: %v", err)
	}
	seq := plan.Sequence
	cfg := baseConfig(opts)

	// Passing plan: every boundary the planner checked must replay safe.
	ref := verify(t, "passing", task, seq, cfg)
	if !ref.Passed {
		t.Fatalf("planner-emitted plan failed audit: %s", ref)
	}

	// Tightened bound: the replay must fail at a boundary.
	if ref.WorstUtil > 0 {
		tight := cfg
		tight.Theta = ref.WorstUtil * 0.95
		r := verify(t, "tight-theta", task, seq, tight)
		if r.Passed {
			t.Fatalf("audit passed with Theta %.4f below WorstUtil %.4f", tight.Theta, ref.WorstUtil)
		}
	}

	// Over-tight space budget: the occupancy failure path, including the
	// first-offending-DC scan and the Detail string.
	if task.Topo.NumSwitches() > 1 {
		occ := cfg
		occ.SpaceBudget = map[int]int{task.Topo.Switch(0).DC: 1}
		r := verify(t, "tight-occupancy", task, seq, occ)
		if r.Passed || !strings.Contains(r.Reason, "space budget exceeded") {
			t.Fatalf("occupancy budget 1: passed=%v reason=%q", r.Passed, r.Reason)
		}
		// The free-order replay applies the budget too.
		occ.FreeOrder = true
		r = verify(t, "free-order-tight-occupancy", task, seq, occ)
		if r.Passed || !strings.Contains(r.Reason, "space budget exceeded") {
			t.Fatalf("free-order occupancy budget 1: passed=%v reason=%q", r.Passed, r.Reason)
		}
	}

	// The four tamper kinds: each must fail at the exact offending step.
	exerciseTampers(t, task, seq, cfg)

	// Partial prefix (checkpoint audit).
	if len(seq) > 2 {
		part := cfg
		part.AllowPartial = true
		verify(t, "partial", task, seq[:len(seq)/2], part)
	}

	// Resumed canonical plan: replay the tail after the executed head, at
	// every cut. Past the resumed start, which it checks first, the replay
	// must check the states the whole replay checks there: the run in
	// progress, and its chunk under a run cap, carry across the cut.
	for h := 1; h < len(seq); h++ {
		res := cfg
		res.Executed = seq[:h]
		r := verify(t, fmt.Sprintf("resumed@%d", h), task, seq[h:], res)
		var want, got []audit.Step
		for _, st := range ref.Steps {
			if st.Index >= h {
				want = append(want, audit.Step{Index: st.Index - h, Block: st.Block, OK: st.OK})
			}
		}
		for _, st := range r.Steps[1:] {
			got = append(got, audit.Step{Index: st.Index, Block: st.Block, OK: st.OK})
		}
		if !r.Passed || !slices.Equal(got, want) {
			t.Fatalf("resumed@%d: %s checked %v after its start, the whole replay %v", h, r, got, want)
		}
	}

	// Free-order replay of the tail after an executed prefix.
	if len(seq) > 2 {
		fo := cfg
		fo.FreeOrder = true
		fo.Executed = seq[:len(seq)/2]
		verify(t, "free-order", task, seq[len(seq)/2:], fo)
	}
	return true
}

// exerciseTampers mutates a known-good sequence four ways — reordered,
// injected, dropped, duplicated — and requires the audit to reject each at
// the exact tamper step with the tamper's reason.
func exerciseTampers(t *testing.T, task *migration.Task, seq []int, cfg audit.Config) {
	t.Helper()
	if len(seq) < 2 {
		return
	}

	// Reorder: swap an adjacent same-type pair (cross-type order is
	// legitimately free, so only a within-type swap is a real tamper).
	for i := 0; i+1 < len(seq); i++ {
		if task.Blocks[seq[i]].Type != task.Blocks[seq[i+1]].Type {
			continue
		}
		tampered := append([]int(nil), seq...)
		tampered[i], tampered[i+1] = tampered[i+1], tampered[i]
		r := verify(t, "tamper-reorder", task, tampered, cfg)
		if r.Passed || r.FailStep != i || !strings.Contains(r.Reason, "reordered") {
			t.Fatalf("reorder at %d: passed=%v FailStep=%d reason=%q", i, r.Passed, r.FailStep, r.Reason)
		}
		break
	}

	// Inject: append a block that already executed.
	injected := append(append([]int(nil), seq...), seq[0])
	r := verify(t, "tamper-inject", task, injected, cfg)
	if r.Passed || r.FailStep != len(seq) || !strings.Contains(r.Reason, "injected") {
		t.Fatalf("inject: passed=%v FailStep=%d reason=%q; want step %d", r.Passed, r.FailStep, r.Reason, len(seq))
	}

	// Drop: cut the final action (incomplete migration).
	r = verify(t, "tamper-drop", task, seq[:len(seq)-1], cfg)
	if r.Passed || r.FailStep != len(seq)-1 || !strings.Contains(r.Reason, "dropped") {
		t.Fatalf("drop: passed=%v FailStep=%d reason=%q; want step %d", r.Passed, r.FailStep, r.Reason, len(seq)-1)
	}

	// Duplicate: repeat a mid-sequence action in place.
	k := len(seq) / 2
	dup := append([]int(nil), seq[:k+1]...)
	dup = append(dup, seq[k])
	dup = append(dup, seq[k+1:]...)
	r = verify(t, "tamper-duplicate", task, dup, cfg)
	if r.Passed || r.FailStep != k+1 || !strings.Contains(r.Reason, "duplicate") {
		t.Fatalf("duplicate: passed=%v FailStep=%d reason=%q; want step %d", r.Passed, r.FailStep, r.Reason, k+1)
	}
}

// TestAuditEngineDifferentialSuites runs the battery over every fabric of
// the evaluation suite.
func TestAuditEngineDifferentialSuites(t *testing.T) {
	scales := map[string]float64{"A": 0.1, "B": 0.1, "C": 0.1, "D": 0.05, "E": 0.1, "E-DMAG": 0.05, "E-SSW": 0.05}
	for _, name := range gen.SuiteNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			s, err := gen.Suite(name, scales[name])
			if err != nil {
				t.Fatal(err)
			}
			if !exerciseFabric(t, s.Task, core.Options{MaxStates: 2_000_000}) {
				t.Skipf("suite %s infeasible at scale %v", name, scales[name])
			}
		})
	}
}

// TestAuditEngineDifferentialConstraintKnobs re-runs the battery on a
// small fabric with the constraint knobs that change boundary structure:
// funneling headroom (classic fallback path per boundary), forced run
// splits, and capacity-weighted splitting.
func TestAuditEngineDifferentialConstraintKnobs(t *testing.T) {
	s, err := gen.Suite("A", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts core.Options
	}{
		{"funnel", core.Options{FunnelFactor: 1.3, MaxStates: 2_000_000}},
		{"runlength", core.Options{MaxRunLength: 2, MaxStates: 2_000_000}},
		{"wcmp", core.Options{Split: routing.SplitCapacityWeighted, MaxStates: 2_000_000}},
		{"theta-tight", core.Options{Theta: 0.7, MaxStates: 2_000_000}},
	}
	feasible := 0
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if exerciseFabric(t, s.Task, c.opts) {
				feasible++
			} else {
				t.Skip("infeasible under this constraint set")
			}
		})
	}
	if feasible == 0 {
		t.Error("every constraint variant infeasible; the battery exercised nothing")
	}
}

// TestAuditEngineDifferentialRandomFabrics draws seeded random HGRID
// fabrics (≥10) and runs the battery on each. The seed is
// fixed, so a failure reproduces.
func TestAuditEngineDifferentialRandomFabrics(t *testing.T) {
	if testing.Short() {
		t.Skip("property test over generated fabrics")
	}
	rng := rand.New(rand.NewSource(20260808))
	const cases = 10
	feasible := 0
	for i := 0; i < cases; i++ {
		p := gen.HGRIDScenarioParams{
			Region: gen.RegionParams{
				Name: fmt.Sprintf("auditdiff-%d", i),
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
		opts := core.Options{
			Theta:     0.65 + 0.2*rng.Float64(),
			MaxStates: 500_000,
		}
		switch i % 3 {
		case 1:
			opts.MaxRunLength = 1 + rng.Intn(3)
		case 2:
			opts.FunnelFactor = 1.1 + 0.4*rng.Float64()
		}
		i := i
		t.Run(fmt.Sprintf("case=%d", i), func(t *testing.T) {
			s, err := gen.HGRIDScenario(p.Region.Name, p)
			if err != nil {
				t.Fatalf("generating fabric: %v", err)
			}
			if exerciseFabric(t, s.Task, opts) {
				feasible++
			}
		})
	}
	if feasible == 0 {
		t.Error("every random fabric infeasible; the battery exercised nothing")
	}
}
