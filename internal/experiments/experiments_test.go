package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// testCfg keeps experiment tests fast: tiny topologies, short budgets. At
// scale 0.1 no planner but Janus creates more than 13 590 states in any
// figure (Fig. 11's 4× case, DP), so a 50 000-state cap changes no outcome
// and no note; it only brings Janus to its cross on E and E-SSW — the
// paper's 24-hour cap — in milliseconds instead of seconds.
var testCfg = Config{Scale: 0.1, Timeout: time.Minute, MaxStates: 50_000}

// janusCrossesOnBudget requires Janus to end as a budget cross on the named
// cases, the paper's cross on its largest HGRID and SSW runs.
func janusCrossesOnBudget(t *testing.T, rows []CaseResult, cases ...string) {
	t.Helper()
	for _, want := range cases {
		found := false
		for _, row := range rows {
			if row.Case != want {
				continue
			}
			found = true
			if o, _ := row.Outcome(PlannerJanus); o.Note != "budget" {
				t.Errorf("%s: Janus should end as a budget cross, got %+v", want, o)
			}
		}
		if !found {
			t.Errorf("no %s row", want)
		}
	}
}

func TestFig8ShapesMatchPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	rows, err := Fig8(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("want 5 topologies, got %d", len(rows))
	}
	for _, row := range rows {
		astar, ok := row.Outcome(PlannerAStar)
		if !ok || !astar.OK() {
			t.Fatalf("%s: Klotski-A* must plan: %+v", row.Case, astar)
		}
		if astar.NormCost != 1 {
			t.Errorf("%s: A* must be optimal (norm cost %v)", row.Case, astar.NormCost)
		}
		dp, ok := row.Outcome(PlannerDP)
		if !ok || !dp.OK() {
			t.Fatalf("%s: Klotski-DP must plan on HGRID cases", row.Case)
		}
		if dp.NormCost != 1 {
			t.Errorf("%s: Klotski-DP should find the optimum, norm cost %v", row.Case, dp.NormCost)
		}
		// Janus dedups only by symmetry; on large asymmetric topologies its
		// subset space exhausts the budget (the paper capped it at 24h).
		janus, _ := row.Outcome(PlannerJanus)
		switch {
		case janus.OK():
			if janus.NormCost != 1 {
				t.Errorf("%s: Janus should find the optimum when it finishes, norm cost %v",
					row.Case, janus.NormCost)
			}
		case janus.Note == "budget":
			// Acceptable cross on large cases.
		default:
			t.Errorf("%s: unexpected Janus outcome %+v", row.Case, janus)
		}
		mrc, _ := row.Outcome(PlannerMRC)
		if mrc.OK() && mrc.NormCost < 1 {
			t.Errorf("%s: MRC cannot beat the optimum", row.Case)
		}
	}
	// On the largest case the paper's ordering holds: A* strictly fastest.
	last := rows[len(rows)-1]
	astar, _ := last.Outcome(PlannerAStar)
	for _, name := range []string{PlannerMRC, PlannerJanus, PlannerDP} {
		o, _ := last.Outcome(name)
		if o.OK() && o.Time < astar.Time {
			t.Errorf("E: %s (%v) faster than Klotski-A* (%v)", name, o.Time, astar.Time)
		}
	}
	janusCrossesOnBudget(t, rows, "E")
}

func TestFig9Crosses(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	rows, err := Fig9(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	byCase := map[string]CaseResult{}
	for _, r := range rows {
		byCase[r.Case] = r
	}
	dmag := byCase["E-DMAG"]
	for _, name := range []string{PlannerMRC, PlannerJanus} {
		o, _ := dmag.Outcome(name)
		if o.Note != "unsupported" {
			t.Errorf("E-DMAG: %s should be an unsupported cross, got %+v", name, o)
		}
	}
	for _, name := range []string{PlannerDP, PlannerAStar} {
		o, _ := dmag.Outcome(name)
		if !o.OK() {
			t.Errorf("E-DMAG: %s should plan, got %+v", name, o)
		}
	}
	janusCrossesOnBudget(t, rows, "E", "E-SSW")
}

func TestFig10AblationsOptimalAndSlower(t *testing.T) {
	rows, err := Fig10(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		base, _ := row.Outcome(PlannerAStar)
		if !base.OK() {
			t.Fatalf("%s: baseline A* failed", row.Case)
		}
		for _, v := range []string{VariantNoStar, VariantNoESC} {
			o, _ := row.Outcome(v)
			if !o.OK() {
				t.Errorf("%s: %s should still plan", row.Case, v)
				continue
			}
			if o.NormCost != 1 {
				t.Errorf("%s: %s must stay optimal", row.Case, v)
			}
		}
		// w/o ESC performs at least as many checks.
		noESC, _ := row.Outcome(VariantNoESC)
		if noESC.OK() && noESC.Checks < base.Checks {
			t.Errorf("%s: w/o ESC did fewer checks (%d) than base (%d)",
				row.Case, noESC.Checks, base.Checks)
		}
	}
}

func TestFig11BlockFactorShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	rows, err := Fig11(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("want 5 factors, got %d", len(rows))
	}
	// Fewer blocks (smaller factor) → cost no lower than more blocks, among
	// the feasible points (paper: cost negatively related to block count).
	var prev float64
	prevSet := false
	for _, row := range rows { // 0.25x .. 4x: ascending block count
		o, _ := row.Outcome(PlannerAStar)
		if !o.OK() {
			continue // crosses allowed (paper's 0.25× case)
		}
		if prevSet && o.Cost > prev+1e-9 {
			t.Errorf("cost should not increase with more blocks: %v then %v at %s",
				prev, o.Cost, row.Case)
		}
		prev, prevSet = o.Cost, true
	}
}

func TestFig12ThetaShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	rows, err := Fig12(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	var costs []float64
	for _, row := range rows {
		o, _ := row.Outcome(PlannerAStar)
		if !o.OK() {
			costs = append(costs, -1)
			continue
		}
		costs = append(costs, o.Cost)
	}
	// Among feasible points, cost is non-increasing as θ loosens.
	last := -1.0
	for i, c := range costs {
		if c < 0 {
			continue
		}
		if last > 0 && c > last+1e-9 {
			t.Errorf("cost increased as theta loosened: %v at row %d after %v", c, i, last)
		}
		last = c
	}
	if costs[0] == costs[len(costs)-1] {
		t.Error("theta sweep should change the optimal cost")
	}
}

func TestFig13AlphaShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	rows, err := Fig13(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	last := -1.0
	for _, row := range rows {
		o, _ := row.Outcome(PlannerAStar)
		if !o.OK() {
			t.Fatalf("%s: A* failed", row.Case)
		}
		if o.Cost < last {
			t.Errorf("optimal cost decreased as alpha grew: %v after %v", o.Cost, last)
		}
		last = o.Cost
		dp, _ := row.Outcome(PlannerDP)
		if !dp.OK() || dp.NormCost != 1 {
			t.Errorf("%s: DP should match the optimum", row.Case)
		}
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 migrations, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Switches == 0 && r.Circuits == 0 {
			t.Errorf("%s: empty stats", r.Migration)
		}
		if r.Duration == "" {
			t.Errorf("%s: missing duration", r.Migration)
		}
	}
	// HGRID is the biggest migration, DMAG the smallest, as in the paper.
	if rows[0].Switches <= rows[2].Switches {
		t.Errorf("HGRID (%d switches) should exceed DMAG (%d)", rows[0].Switches, rows[2].Switches)
	}
}

func TestTable3AscendingSizes(t *testing.T) {
	rows, err := Table3(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("want 7 rows, got %d", len(rows))
	}
	prev := 0
	for _, r := range rows[:5] { // A..E ascend
		if r.Switches <= prev {
			t.Errorf("%s: switches %d not ascending", r.Topology, r.Switches)
		}
		prev = r.Switches
	}
}

func TestEstimateDuration(t *testing.T) {
	cases := []struct {
		ops, runs int
		contains  string
	}{
		{4, 2, "days"},
		{60, 4, "weeks"},
		{400, 8, "months"},
	}
	for _, c := range cases {
		got := estimateDuration(c.ops, c.runs)
		if !strings.Contains(got, c.contains) {
			t.Errorf("estimateDuration(%d, %d) = %q, want unit %q", c.ops, c.runs, got, c.contains)
		}
	}
}

func TestPrinters(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	rows, err := Fig9(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	PrintCaseResults(&buf, "test", rows)
	out := buf.String()
	if !strings.Contains(out, "E-DMAG") || !strings.Contains(out, "✗ unsupported") {
		t.Errorf("case results rendering missing content:\n%s", out)
	}
	t1, err := Table1(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintTable1(&buf, t1)
	if !strings.Contains(buf.String(), "HGRID") {
		t.Error("table 1 rendering missing content")
	}
	t3, err := Table3(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	PrintTable3(&buf, t3, 0.1)
	if !strings.Contains(buf.String(), "E-SSW") {
		t.Error("table 3 rendering missing content")
	}
}

func TestBudgetCrossRendering(t *testing.T) {
	// A 1ns timeout turns every planner into a budget cross without
	// breaking the experiment machinery.
	cfg := Config{Scale: 0.1, Timeout: time.Nanosecond, MaxStates: 2}
	rows, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	foundCross := false
	for _, row := range rows {
		for _, o := range row.Outcomes {
			if o.Note == "budget" {
				foundCross = true
			}
		}
	}
	if !foundCross {
		t.Error("expected at least one budget cross under a 1ns timeout")
	}
}

func TestTypeGranularity(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped in -short mode")
	}
	rows, err := TypeGranularity(testCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 granularity cases, got %d", len(rows))
	}
	for _, row := range rows {
		astar, _ := row.Outcome(PlannerAStar)
		dp, _ := row.Outcome(PlannerDP)
		if !astar.OK() || !dp.OK() {
			t.Fatalf("%s: planners failed: %+v / %+v", row.Case, astar, dp)
		}
		if astar.NormCost != 1 || dp.NormCost != 1 {
			t.Errorf("%s: A* and DP must agree on the optimum", row.Case)
		}
	}
	// The split-role case has the deeper search space.
	merged, _ := rows[0].Outcome(PlannerAStar)
	split, _ := rows[1].Outcome(PlannerAStar)
	if split.States <= merged.States {
		t.Errorf("|A|=4 should search more states: %d vs %d", split.States, merged.States)
	}
}
