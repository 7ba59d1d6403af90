// Benchmarks regenerating every table and figure of the paper's evaluation
// (§6) at a reduced scale, one benchmark family per artifact. The full
// harness with paper-vs-measured output is cmd/figures; these benchmarks
// measure the same code paths under `go test -bench`.
package klotski_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"klotski"
	"klotski/internal/core"
	"klotski/internal/experiments"
	"klotski/internal/migration"
	"klotski/internal/routing"
)

// benchScale keeps one planner invocation in the milliseconds range so the
// full -bench=. sweep stays minutes, not hours. cmd/figures runs the same
// experiments at 0.25–1.0.
const benchScale = 0.1

var benchCfg = experiments.Config{Scale: benchScale}

// buildSuite constructs a suite scenario once per benchmark.
func buildSuite(b *testing.B, name string) *klotski.Scenario {
	b.Helper()
	s, err := klotski.Suite(name, benchScale)
	if err != nil {
		b.Fatalf("Suite(%s): %v", name, err)
	}
	return s
}

type plannerCase struct {
	name string
	run  func(*klotski.Task, klotski.Options) (*klotski.Plan, error)
	opts klotski.Options
}

var allPlanners = []plannerCase{
	{"MRC", klotski.PlanMRC, klotski.Options{}},
	// Janus's symmetry-only state space is exponential on these
	// topologies; a bounded budget keeps its time-to-cross measurable
	// (the paper capped it at 24 hours).
	{"Janus", klotski.PlanJanus, klotski.Options{MaxStates: 100_000}},
	{"Klotski-DP", klotski.PlanDP, klotski.Options{}},
	{"Klotski-A*", klotski.PlanAStar, klotski.Options{}},
}

// expectedCross reports planner outcomes that are results, not failures:
// unsupported migration types and exhausted budgets render as the paper's
// crosses.
func expectedCross(err error) bool {
	return errors.Is(err, klotski.ErrUnsupported) || errors.Is(err, klotski.ErrBudget)
}

// BenchmarkTable1MigrationStats regenerates Table 1: per-migration scale
// statistics for the three production migration types.
func BenchmarkTable1MigrationStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("want 3 rows, got %d", len(rows))
		}
	}
}

// BenchmarkTable3Topologies regenerates Table 3: the A–E topology suite.
func BenchmarkTable3Topologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 7 {
			b.Fatalf("want 7 rows, got %d", len(rows))
		}
	}
}

// BenchmarkFig8 regenerates Figure 8: each planner on each of topologies
// A–E under HGRID V1→V2 migration. Sub-benchmark times are the per-planner
// planning times whose ratios the paper reports.
func BenchmarkFig8(b *testing.B) {
	for _, topoName := range []string{"A", "B", "C", "D", "E"} {
		s := buildSuite(b, topoName)
		for _, pl := range allPlanners {
			b.Run(fmt.Sprintf("%s/%s", topoName, pl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := pl.run(s.Task, pl.opts); err != nil && !expectedCross(err) {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig9 regenerates Figure 9: each planner across the three
// migration types. MRC and Janus legitimately fail on E-DMAG (the paper's
// crosses); those sub-benchmarks measure time-to-rejection.
func BenchmarkFig9(b *testing.B) {
	for _, caseName := range []string{"E", "E-DMAG", "E-SSW"} {
		s := buildSuite(b, caseName)
		for _, pl := range allPlanners {
			b.Run(fmt.Sprintf("%s/%s", caseName, pl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := pl.run(s.Task, pl.opts); err != nil && !expectedCross(err) {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10 regenerates Figure 10: Klotski-A* against its ablations on
// topology E — without operation blocks, without the heuristic, without
// the satisfiability cache.
func BenchmarkFig10(b *testing.B) {
	s := buildSuite(b, "E")
	symTask := migration.SymmetryGranularity(s.Task)
	cases := []struct {
		name string
		task *klotski.Task
		opts klotski.Options
	}{
		{"Klotski-w/o-OB", symTask, klotski.Options{}},
		{"Klotski-w/o-A*", s.Task, klotski.Options{DisableHeuristic: true, DisableSecondaryPriority: true}},
		{"Klotski-w/o-ESC", s.Task, klotski.Options{DisableCache: true}},
		{"Klotski-A*", s.Task, klotski.Options{}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := klotski.PlanAStar(c.task, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11 regenerates Figure 11: the operation-block factor sweep on
// topology E. The 0.25× case may be infeasible (the paper's cross) — that
// outcome is accepted and its detection time measured.
func BenchmarkFig11(b *testing.B) {
	s := buildSuite(b, "E")
	for _, factor := range []float64{0.25, 0.5, 1, 2, 4} {
		task, err := migration.Reblock(s.Task, factor)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("factor-%gx", factor), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := klotski.PlanAStar(task, klotski.Options{}); err != nil &&
					factor > 0.25 {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12 regenerates Figure 12: the utilization-bound sweep.
func BenchmarkFig12(b *testing.B) {
	s := buildSuite(b, "E")
	for _, theta := range []float64{0.55, 0.65, 0.75, 0.85, 0.95} {
		b.Run(fmt.Sprintf("theta-%d", int(theta*100)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := klotski.PlanAStar(s.Task, klotski.Options{Theta: theta}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig13 regenerates Figure 13: the cost-function α sweep.
func BenchmarkFig13(b *testing.B) {
	s := buildSuite(b, "E")
	for _, alpha := range []float64{0, 0.5, 1.0} {
		b.Run(fmt.Sprintf("alpha-%.1f", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := klotski.PlanAStar(s.Task, klotski.Options{Alpha: alpha}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSecondaryPriority isolates the §4.4 secondary-priority
// tiebreak (finished-action count), a design choice DESIGN.md calls out
// beyond the paper's Fig. 10.
func BenchmarkAblationSecondaryPriority(b *testing.B) {
	s := buildSuite(b, "E")
	for _, c := range []struct {
		name string
		opts klotski.Options
	}{
		{"with", klotski.Options{}},
		{"without", klotski.Options{DisableSecondaryPriority: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := klotski.PlanAStar(s.Task, c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSatisfiabilityCheck measures one full safety check — the unit of
// work the paper's complexity analysis is built on — across topology sizes.
func BenchmarkSatisfiabilityCheck(b *testing.B) {
	for _, name := range []string{"A", "C", "E"} {
		s := buildSuite(b, name)
		eval := klotski.NewEvaluator(s.Task.Topo)
		view := s.Task.Topo.NewView()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if viol := eval.Check(view, &s.Task.Demands, klotski.CheckOpts{}); !viol.OK() {
					b.Fatal(viol)
				}
			}
		})
	}
}

// BenchmarkCheckSuiteE measures the satisfiability check on the
// fabric and the states the end-to-end benchmark's plan-large workload
// checks: suite E at scale 0.25, walked block by block along the plan A*
// itself returns, one full Check per state (states inside a run may be
// unsafe and exit early, as in the search). One iteration is one walk.
// The custom metrics are the evaluator's own counts — exact and
// machine-independent, the numbers DESIGN.md's cost model is stated in:
// arcvisits/check, the arcs scanned by distance traversals;
// rebuilt-switches/check, the switches whose up masks were re-derived to
// follow the view from one state to the next (the fabric has 1236); and
// allup-share, the part of arcvisits/check taken at switches with every arc
// up, which are ranged over in place instead of through the mask;
// repaired-share, the part of the distance fields the checks used that were
// the previous check's, repaired, rather than traversed afresh;
// repaired-entries/check, the field entries those repairs wrote (14 fields of
// 1236 entries each stand behind a check); sweep-arctests/check, the arcs the
// flow sweeps classified to find next hops; and hopset-reuse-share, the part
// of the (group, switch) visits of those sweeps that read a retained next-hop
// mask back instead.
func BenchmarkCheckSuiteE(b *testing.B) {
	s, err := klotski.Suite("E", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := klotski.PlanAStar(s.Task, klotski.Options{SkipAudit: true})
	if err != nil {
		b.Fatal(err)
	}
	eval := klotski.NewEvaluator(s.Task.Topo)
	view := s.Task.Topo.NewView()
	walk := func() {
		view.Reset()
		for _, blk := range plan.Sequence {
			s.Task.Apply(view, blk)
			eval.Check(view, &s.Task.Demands, klotski.CheckOpts{})
		}
	}
	walk() // first-use scratch allocation stays out of the measurement
	base := *eval
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk()
	}
	b.StopTimer()
	checks := float64(eval.Checks - base.Checks)
	visits := float64(eval.ArcVisits - base.ArcVisits)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/checks, "ns/check")
	b.ReportMetric(visits/checks, "arcvisits/check")
	b.ReportMetric(float64(eval.UpRebuilds-base.UpRebuilds)/checks, "rebuilt-switches/check")
	b.ReportMetric(float64(eval.ArcVisitsInPlace-base.ArcVisitsInPlace)/visits, "allup-share")
	repairs := float64(eval.FieldRepairs - base.FieldRepairs)
	b.ReportMetric(repairs/(repairs+float64(eval.BFSes-base.BFSes)), "repaired-share")
	b.ReportMetric(float64(eval.FieldEntriesRepaired-base.FieldEntriesRepaired)/checks, "repaired-entries/check")
	reportHopSets(b, eval, &base, checks)
}

// BenchmarkLiftedCheckSuiteE sets the lifted check against the full one on
// the walk of BenchmarkCheckSuiteE — suite E walked block by block along the
// plan A* returns — at scale 0.25 (the plan-large fabric) and at paper scale.
// full is the evaluator's Check per state, lifted the quotient's (the lane's
// routing.Quotient, core.LiftedQuotient) with the full Check where it is not
// sure; one iteration is one walk, and both report ns/check. lifted also
// reports quotient-arcvisits/check, the quotient arcs its distance traversals
// scanned and its field repairs tested; unsure/check, the share it left to
// the full Check; repaired-share, the part of the distance fields it used
// that were the previous check's, repaired, rather than traversed afresh; and
// hoplist-reuse-share, the part of its sweeps' (group, class) visits that
// read a retained next-hop list back instead of scanning the class's arcs.
// build is one partition build.
func BenchmarkLiftedCheckSuiteE(b *testing.B) {
	for _, scale := range []float64{0.25, 1} {
		s, err := klotski.Suite("E", scale)
		if err != nil {
			b.Fatal(err)
		}
		plan, err := klotski.PlanAStar(s.Task, klotski.Options{SkipAudit: true})
		if err != nil {
			b.Fatal(err)
		}
		view := s.Task.Topo.NewView()
		walk := func(check func()) {
			view.Reset()
			for _, blk := range plan.Sequence {
				s.Task.Apply(view, blk)
				check()
			}
		}
		ds := &s.Task.Demands
		b.Run(fmt.Sprintf("x%g/full", scale), func(b *testing.B) {
			eval := klotski.NewEvaluator(s.Task.Topo)
			check := func() { eval.Check(view, ds, klotski.CheckOpts{}) }
			walk(check)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk(check)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(plan.Sequence)), "ns/check")
		})
		b.Run(fmt.Sprintf("x%g/lifted", scale), func(b *testing.B) {
			q, ok := core.LiftedQuotient(s.Task, s.Task.Topo.NumCircuits())
			if !ok {
				b.Fatal("the quotient build declined")
			}
			eval := klotski.NewEvaluator(s.Task.Topo)
			unsure := 0
			check := func() {
				if _, sure := q.Check(view, ds, klotski.CheckOpts{}, nil); !sure {
					unsure++
					eval.Check(view, ds, klotski.CheckOpts{})
				}
			}
			walk(check)
			base, unsure0 := *q, unsure
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk(check)
			}
			n := float64(q.Checks - base.Checks)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/check")
			b.ReportMetric(float64(q.ArcVisits-base.ArcVisits)/n, "quotient-arcvisits/check")
			b.ReportMetric(float64(unsure-unsure0)/n, "unsure/check")
			repairs := float64(q.FieldRepairs - base.FieldRepairs)
			b.ReportMetric(repairs/(repairs+float64(q.BFSes-base.BFSes)), "repaired-share")
			reused := float64(q.HopListsReused - base.HopListsReused)
			b.ReportMetric(reused/(reused+float64(q.HopListsBuilt-base.HopListsBuilt)), "hoplist-reuse-share")
		})
		b.Run(fmt.Sprintf("x%g/build", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := core.LiftedQuotient(s.Task, s.Task.Topo.NumCircuits()); !ok {
					b.Fatal("the quotient build declined")
				}
			}
		})
	}
}

// reportHopSets reports what the flow sweeps of eval did since base, over the
// given number of checks: the arcs they classified, and the share of their
// (group, switch) visits served by a retained next-hop mask.
func reportHopSets(b *testing.B, eval, base *klotski.Evaluator, checks float64) {
	reused := float64(eval.HopSetsReused - base.HopSetsReused)
	b.ReportMetric(float64(eval.SweepArcTests-base.SweepArcTests)/checks, "sweep-arctests/check")
	b.ReportMetric(reused/(reused+float64(eval.HopSetsBuilt-base.HopSetsBuilt)), "hopset-reuse-share")
}

// BenchmarkCheckFarJump measures the classic check where the view jumps
// instead of stepping: one evaluator alternates between suite E's initial
// state and the state some blocks into the plan, one Check each. "over" picks
// the fewest blocks that make a jump rebuild more switches than the field
// repair's cut-over (a sixteenth of the fabric), so every check traverses
// afresh and keeps no next-hop mask (hopset-reuse-share 0); "under" picks one
// block fewer, the farthest jump that is still repaired.
func BenchmarkCheckFarJump(b *testing.B) {
	s, err := klotski.Suite("E", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := klotski.PlanAStar(s.Task, klotski.Options{SkipAudit: true})
	if err != nil {
		b.Fatal(err)
	}
	cutover := s.Task.Topo.NumSwitches() / 16
	near, far := s.Task.Topo.NewView(), s.Task.Topo.NewView()
	// rebuilt counts the switches a jump from the initial state to v rebuilds.
	rebuilt := func(v *klotski.View) int {
		eval := klotski.NewEvaluator(s.Task.Topo)
		eval.Check(near, &s.Task.Demands, klotski.CheckOpts{})
		before := eval.UpRebuilds
		eval.Check(v, &s.Task.Demands, klotski.CheckOpts{})
		return eval.UpRebuilds - before
	}
	blocks := 0
	for rebuilt(far) <= cutover {
		s.Task.Apply(far, plan.Sequence[blocks])
		blocks++
	}
	under := s.Task.Topo.NewView()
	for _, blk := range plan.Sequence[:blocks-1] {
		s.Task.Apply(under, blk)
	}
	for _, c := range []struct {
		name string
		view *klotski.View
	}{{"over", far}, {"under", under}} {
		b.Run(c.name, func(b *testing.B) {
			eval := klotski.NewEvaluator(s.Task.Topo)
			jump := func() {
				eval.Check(near, &s.Task.Demands, klotski.CheckOpts{})
				eval.Check(c.view, &s.Task.Demands, klotski.CheckOpts{})
			}
			jump()
			base := *eval
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jump()
			}
			b.StopTimer()
			checks := float64(eval.Checks - base.Checks)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/checks, "ns/check")
			b.ReportMetric(float64(eval.UpRebuilds-base.UpRebuilds)/checks, "rebuilt-switches/check")
			b.ReportMetric(float64(eval.ArcVisits-base.ArcVisits)/checks, "arcvisits/check")
			repairs := float64(eval.FieldRepairs - base.FieldRepairs)
			b.ReportMetric(repairs/(repairs+float64(eval.BFSes-base.BFSes)), "repaired-share")
			reportHopSets(b, eval, &base, checks)
			if c.view == far && repairs != 0 {
				b.Fatalf("a jump of more than %d rebuilt switches was repaired: the cut-over is no longer a sixteenth", cutover)
			}
		})
	}
}

// BenchmarkCheckPortReject measures the check's cheapest exit on the same
// fabric: suite E's port-infeasible corner, where V2 grid blocks are
// undrained before any V1 block is drained and every state puts a spine
// switch over its port budget. Half the checks of a plan-large search end
// this way (522 of 1013), before a single demand is routed, so what they
// cost is what following the view costs. One iteration walks the undrain
// blocks from the initial state, one Check per block.
func BenchmarkCheckPortReject(b *testing.B) {
	s, err := klotski.Suite("E", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	var undrains []int
	for ty, info := range s.Task.Types {
		if info.Op == klotski.Undrain {
			undrains = append(undrains, s.Task.BlocksOfType(klotski.ActionType(ty))...)
		}
	}
	eval := klotski.NewEvaluator(s.Task.Topo)
	view := s.Task.Topo.NewView()
	walk := func() {
		view.Reset()
		for _, blk := range undrains {
			s.Task.Apply(view, blk)
			if viol := eval.Check(view, &s.Task.Demands, klotski.CheckOpts{}); viol.Kind != routing.ViolationPorts {
				b.Fatalf("undrain-first state answered %v, want a port violation", viol)
			}
		}
	}
	walk()
	base := *eval
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		walk()
	}
	b.StopTimer()
	checks := float64(eval.Checks - base.Checks)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/checks, "ns/check")
	b.ReportMetric(float64(eval.UpRebuilds-base.UpRebuilds)/checks, "rebuilt-switches/check")
	b.ReportMetric(float64(eval.BFSes-base.BFSes)/checks, "searches/check")
}

// TestEvaluatorFootprintSuiteE bounds what an evaluator costs a process on
// the benchmark's large fabric, in bytes allocated: NewEvaluator plus the
// first Check (which sizes every piece of traversal scratch) on a topology of
// a fresh shape, which builds the adjacency, and Fork plus the first Check.
// Neither may exceed what the per-destination evaluator this one replaced
// allocated for the same calls. The two parent figures come from this very
// function run in a checkout of the parent commit (recipe in DESIGN.md,
// "Satisfiability checker"). The bounds are what keep op_rss_mb_p50 flat: the
// batched traversal has to replace the old scratch, not sit beside it. Once
// the shape keeps its adjacency, NewEvaluator is a Fork, and what a replan,
// an audit or a world over a clone pays for it is held to the Fork's bound.
// The last row adds the first check that repairs its fields, one block on:
// that is where the retained next-hop masks and the repair's lists are
// allocated, and the row is pinned to what they measure so that neither can
// grow unnoticed, and nothing can come to sit beside them.
func TestEvaluatorFootprintSuiteE(t *testing.T) {
	const (
		parentNew  = 642536 // NewEvaluator + first Check, fresh shape, at the parent commit
		parentFork = 301256 // Fork + first Check at the parent commit
		// Fork + first Check + first repaired Check: 460 008 as measured here
		// (460 088 under the race detector), held to a kilobyte over. That is
		// the 298 896 of Fork + first Check, plus the next-hop masks' slab:
		// 14 fields × 8·1236 bytes of masks (138 432, 139 264 as a large
		// object) and 14 × 1236 validity bytes (17 304 → 18 432), plus 3 416
		// for the field repair's own lists, which that check also allocates
		// first.
		repairedFork = 461000
	)
	s, err := klotski.Suite("E", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	view := s.Task.Topo.NewView()
	s.Task.Demands.DestinationIndex() // the demand set's own cache, not the evaluator's
	root := klotski.NewEvaluator(s.Task.Topo)
	// next is the initial state one block on, the first block after which the
	// check is routed and repairs its fields.
	next := s.Task.Topo.NewView()
	for blk := 0; ; blk++ {
		if blk == s.Task.NumActions() {
			t.Fatal("no single block leads to a repaired check")
		}
		s.Task.Apply(next, blk)
		e := root.Fork()
		e.Check(view, &s.Task.Demands, klotski.CheckOpts{})
		if e.Check(next, &s.Task.Demands, klotski.CheckOpts{}); e.FieldRepairs > 0 {
			break
		}
		s.Task.Revert(next, blk)
	}
	// reshaped returns a copy of the fabric whose shape no evaluator has
	// been built for: a structural setter that changes nothing.
	reshaped := func() *klotski.Topology {
		tp := s.Task.Topo.Clone()
		tp.SetCapacity(0, tp.Circuit(0).Capacity)
		return tp
	}
	newEvaluator := func(tp *klotski.Topology) *klotski.Evaluator { return klotski.NewEvaluator(tp) }
	fork := func(*klotski.Topology) *klotski.Evaluator { return root.Fork() }
	for _, c := range []struct {
		name   string
		make   func(*klotski.Topology) *klotski.Evaluator
		fresh  bool // make gets a topology of a fresh shape
		repair bool
		bound  uint64
	}{
		{"NewEvaluator + first Check, fresh shape", newEvaluator, true, false, parentNew},
		{"NewEvaluator + first Check", newEvaluator, false, false, parentFork},
		{"Fork + first Check", fork, false, false, parentFork},
		{"Fork + first Check + first repaired Check", fork, false, true, repairedFork},
	} {
		// TotalAlloc is process-wide; the smallest of a few runs is the run
		// no other goroutine allocated during.
		best := uint64(math.MaxUint64)
		var before, after runtime.MemStats
		for i := 0; i < 5; i++ {
			tp := s.Task.Topo
			if c.fresh {
				tp = reshaped()
			}
			runtime.ReadMemStats(&before)
			e := c.make(tp)
			viol := e.Check(view, &s.Task.Demands, klotski.CheckOpts{})
			if c.repair {
				e.Check(next, &s.Task.Demands, klotski.CheckOpts{})
			}
			runtime.ReadMemStats(&after)
			if !viol.OK() {
				t.Fatalf("initial state unsafe: %v", viol)
			}
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("%s allocate %d bytes (bound %d)", c.name, best, c.bound)
		if best > c.bound {
			t.Errorf("%s allocate %d bytes, more than the bound of %d", c.name, best, c.bound)
		}
	}
}

// TestHopSetsFollowRepairs holds the next-hop masks to where they belong, in
// the evaluator's own counts over one A* search per fabric. On the small
// fabrics every step is past the repair's cut-over, every check traverses, and
// nothing may be kept or read back: the benchmark's daemon-burst workload runs
// exactly these and must not see the mechanism. On suite E × 0.25, the
// plan-large search, the planner makes 1014 checks and its lane answers 522 of
// them on the port budgets and 92 on the capacity cuts before routing. The
// lane's gate opens at the first of the other 400, and the lifted check
// answers all of them from the fabric's quotient, 429 switch classes and 1278
// circuit classes, on the evaluator's engine: it repairs the fields of the
// check before wherever the evaluator would, and the caller's evaluator routes
// nothing. The same search on the full
// evaluator alone is pinned by TestHopSetsFollowRepairsFullPath and
// TestRoutedChecksPinnedFullPath in internal/core.
func TestHopSetsFollowRepairs(t *testing.T) {
	search := func(name string) (*klotski.Scenario, *klotski.Evaluator, klotski.Metrics) {
		t.Helper()
		s, err := klotski.Suite(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		ev := klotski.NewEvaluator(s.Task.Topo)
		p, err := klotski.PlanAStar(s.Task, klotski.Options{SkipAudit: true, Evaluator: ev})
		if err != nil {
			t.Fatal(err)
		}
		return s, ev, p.Metrics
	}
	for _, name := range []string{"A", "B", "C", "D"} {
		if _, ev, m := search(name); ev.FieldRepairs != 0 || ev.HopSetsReused != 0 || ev.HopSetsBuilt == 0 || m.LiftedChecks+m.LiftedFallbacks != 0 {
			t.Errorf("suite %s: %d fields repaired, %d next-hop masks read back, %d built, %d checks lifted; want none, none, some, none", name, ev.FieldRepairs, ev.HopSetsReused, ev.HopSetsBuilt, m.LiftedChecks+m.LiftedFallbacks)
		}
	}
	s, ev, m := search("E")
	if got, want := [3]int{m.Checks, m.PortRejects, m.CutRejects}, [3]int{1014, 522, 92}; got != want {
		t.Errorf("suite E: checks, port rejections, cut rejections = %v, want %v", got, want)
	}
	if got := [3]int{ev.Checks, ev.UpRebuilds, ev.ArcVisits}; got != [3]int{} {
		t.Errorf("suite E: the caller's evaluator made %d checks, rebuilt %d switches and visited %d arcs; want none", got[0], got[1], got[2])
	}
	q, ok := core.LiftedQuotient(s.Task, s.Task.Topo.NumCircuits())
	if !ok {
		t.Fatal("suite E: the quotient build declined")
	}
	sw, ck := q.Classes()
	if lifted, want := [4]int{m.LiftedChecks, m.LiftedFallbacks, sw, ck}, [4]int{400, 0, 429, 1278}; lifted != want {
		t.Errorf("suite E: lifted checks, lifted fallbacks, switch classes, circuit classes = %v, want %v", lifted, want)
	}
	// 41 lifted checks traverse the 14 destination fields, under the
	// evaluator's cut-over and budget, and the other 359 repair them
	// (TestLiftedFieldsFollowRepairs in internal/core pins the quotient's own
	// counts).
	if got, want := m.LiftedFieldRepairs, 359*14; got != want {
		t.Errorf("suite E: lifted field repairs = %d, want %d", got, want)
	}
}

// TestLiftedChecksPinned holds the lifted check to the planners' own counts
// on the DP search on suite E-SSW × 0.25, the primary plan of the benchmark's
// fleet-mixed workload. The lane routes 243 of its 289 checks, and its gate
// opens at the first: the quotient answers all 243 and the caller's evaluator
// routes none. 18 lifted checks traverse the 14 destination fields, under the
// evaluator's cut-over and budget, and the other 225 repair them.
func TestLiftedChecksPinned(t *testing.T) {
	s, err := klotski.Suite("E-SSW", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	ev := klotski.NewEvaluator(s.Task.Topo)
	p, err := klotski.PlanDP(s.Task, klotski.Options{SkipAudit: true, Evaluator: ev})
	if err != nil {
		t.Fatal(err)
	}
	m := p.Metrics
	got := [5]int{m.Checks, ev.Checks, m.LiftedChecks, m.LiftedFallbacks, m.LiftedFieldRepairs}
	t.Logf("suite E-SSW dp: checks, routed on the evaluator, lifted, lifted fallbacks, lifted field repairs = %v", got)
	if want := [5]int{289, 0, 243, 0, 225 * 14}; got != want {
		t.Errorf("suite E-SSW dp: checks, routed on the evaluator, lifted, lifted fallbacks, lifted field repairs = %v, want %v", got, want)
	}
}

// TestSearchEffortPinned pins how hard each Klotski planner searches, in
// counts that are exact on any host: an algorithmic regression moves them
// where a slower host moves only the clock. Suite C × benchScale is the small
// fabric; suite E × 0.25 is the fabric of the benchmark's plan-large
// workload, searched cold and then warm: a second run on the bound engine
// the cold run sealed, the shape of a drift replan. A fresh engine prunes
// nothing, so the cold counts are the unbounded search's. Warm pruning must
// keep the warm search to at most four fifths of the cold one's states.
func TestSearchEffortPinned(t *testing.T) {
	// effort is a search's effort in the planner's own counts: states
	// expanded (the recorder's planner.states_expanded), checks made, and
	// checks answered from and missed by the equivalent-state cache.
	type effort [4]int
	for _, c := range []struct {
		fabric, planner string
		scale           float64
		run             func(*klotski.Task, klotski.Options) (*klotski.Plan, error)
		cold, warm      effort // warm is zero where no warm run is made
	}{
		{"C", "astar", benchScale, klotski.PlanAStar, effort{23, 22, 0, 22}, effort{}},
		{"C", "dp", benchScale, klotski.PlanDP, effort{25, 25, 1, 25}, effort{}},
		{"E", "astar", 0.25, klotski.PlanAStar, effort{1181, 1014, 164, 1014}, effort{513, 346, 164, 346}},
		{"E", "dp", 0.25, klotski.PlanDP, effort{1432, 1089, 333, 1089}, effort{572, 376, 186, 376}},
	} {
		s, err := klotski.Suite(c.fabric, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		opts := klotski.Options{SkipAudit: true}
		if c.warm != (effort{}) {
			opts.Bound = klotski.NewBoundEngine(s.Task, opts)
		}
		plan := func() effort {
			t.Helper()
			p, err := c.run(s.Task, opts)
			if err != nil {
				t.Fatal(err)
			}
			m := p.Metrics
			return effort{m.StatesPopped, m.Checks, m.CacheHits, m.CacheMisses}
		}
		cold := plan()
		if cold != c.cold {
			t.Errorf("suite %s × %g %s cold: states expanded, checks, cache hits, misses = %v, want %v", c.fabric, c.scale, c.planner, cold, c.cold)
		}
		if c.warm == (effort{}) {
			continue
		}
		warm := plan()
		if warm != c.warm {
			t.Errorf("suite %s × %g %s warm: states expanded, checks, cache hits, misses = %v, want %v", c.fabric, c.scale, c.planner, warm, c.warm)
		}
		if 5*warm[0] > 4*cold[0] {
			t.Errorf("suite %s × %g %s: the warm search expands %d states, more than four fifths of the cold one's %d", c.fabric, c.scale, c.planner, warm[0], cold[0])
		}
	}
}

// BenchmarkEndToEndPipeline measures the full EDP-Lite path: scenario →
// plan → audit → phase document.
func BenchmarkEndToEndPipeline(b *testing.B) {
	s := buildSuite(b, "C")
	for i := 0; i < b.N; i++ {
		if _, err := klotski.RunPipelineTask(s.Task, klotski.PipelineConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}
