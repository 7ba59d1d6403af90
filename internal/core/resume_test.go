package core_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"klotski/internal/baseline"
	"klotski/internal/core"
	"klotski/internal/gen"
	"klotski/internal/migration"
)

// planners are the two optimal planners, which resume from canonical
// executed blocks.
var planners = []struct {
	name string
	plan func(*migration.Task, core.Options) (*core.Plan, error)
}{
	{"astar", core.PlanAStar},
	{"dp", core.PlanDP},
}

// TestResumedCostIdentity: a plan resumed after any cut of a plan charges
// exactly what executing it after the cut adds to the whole sequence's
// cost, also under a run cap, where the executed run's current chunk
// carries across the cut. Every suite at × 0.25, both planners, run caps 2
// and 3, every cut.
func TestResumedCostIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("plans every cut of 28 plans")
	}
	for _, name := range gen.SuiteNames() {
		s, err := gen.Suite(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		task := s.Task
		for _, pl := range planners {
			for _, k := range []int{2, 3} {
				opts := core.Options{MaxRunLength: k, SkipAudit: true}
				cost := func(seq []int) float64 {
					return core.SequenceCostCapped(task, seq, 0, core.NoLast, k, 0)
				}
				full, err := pl.plan(task, opts)
				if err != nil {
					t.Fatalf("%s %s K=%d: %v", name, pl.name, k, err)
				}
				for n := 1; n < len(full.Sequence); n++ {
					resumed := opts
					resumed.Executed = full.Sequence[:n]
					re, err := pl.plan(task, resumed)
					if err != nil {
						t.Fatalf("%s %s K=%d executed %d: %v", name, pl.name, k, n, err)
					}
					whole := append(slices.Clone(resumed.Executed), re.Sequence...)
					if want := cost(whole) - cost(resumed.Executed); math.Abs(re.Cost-want) > 1e-9 {
						t.Fatalf("%s %s K=%d executed %d: the replan reports cost %g, executing it costs %g",
							name, pl.name, k, n, re.Cost, want)
					}
					// Its runs are the crews' runs after the cut: the first
					// finishes the chunk in progress.
					want := slices.DeleteFunc(runEnds(core.RunsOf(task, whole, k), 0), func(end int) bool { return end <= n })
					if got := runEnds(re.Runs, n); !slices.Equal(got, want) {
						t.Fatalf("%s %s K=%d executed %d: runs end at %v, the whole sequence's at %v",
							name, pl.name, k, n, got, want)
					}
					// The rest of the plan is one completion from the cut.
					if rest := cost(full.Sequence) - cost(resumed.Executed); re.Cost > rest+1e-9 {
						t.Fatalf("%s %s K=%d executed %d: replan cost %g above the rest of the plan %g",
							name, pl.name, k, n, re.Cost, rest)
					}
				}
			}
		}
	}
}

// runEnds lists the sequence positions where runs end, counted from
// offset.
func runEnds(runs []core.Run, offset int) []int {
	var ends []int
	for _, r := range runs {
		offset += len(r.Blocks)
		ends = append(ends, offset)
	}
	return ends
}

// TestResumeRefusesNonCanonicalPrefix: A* and DP name a state by its
// per-type counts, which an executed prefix out of canonical order does not
// reach, so resuming after one is an error naming the block — not a plan
// that repeats an executed block. A × 0.25's MRC plan leaves canonical
// order within its first three blocks.
func TestResumeRefusesNonCanonicalPrefix(t *testing.T) {
	s, err := gen.Suite("A", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	task := s.Task
	mrc, err := baseline.PlanMRC(task, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	executed := mrc.Sequence[:3]
	if err := core.ValidateSequence(task, executed, nil); err == nil {
		t.Fatal("not a test: the first three blocks of the MRC plan are canonical")
	}
	// The block out of order is the first one a canonical prefix could not
	// have operated at its position.
	done := make([]int, task.NumTypes())
	var culprit string
	for _, id := range executed {
		ty := task.Blocks[id].Type
		if task.BlocksOfType(ty)[done[ty]] != id {
			culprit = task.Blocks[id].Name
			break
		}
		done[ty]++
	}
	for _, pl := range planners {
		_, err := pl.plan(task, core.Options{Executed: executed})
		if err == nil || !strings.Contains(err.Error(), "canonical order") || !strings.Contains(err.Error(), `"`+culprit+`"`) {
			t.Fatalf("%s after %v: %v, want a refusal naming block %q", pl.name, executed, err, culprit)
		}
	}
	// The baselines resume from any order.
	re, err := baseline.PlanMRC(task, core.Options{Executed: executed})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(re.Sequence, mrc.Sequence[3:]) {
		t.Fatalf("MRC after its own first three blocks: %v, want %v", re.Sequence, mrc.Sequence[3:])
	}
}

// TestLowerBoundAtMostCost: every lower bound a run certifies is at most
// the optimal cost it bounds — the completed plan's, an interrupted
// search's checkpoint, and the closed-form completion bound — fresh and
// resumed, under a run cap, and with a bound engine warmed by an earlier
// run over the same task.
func TestLowerBoundAtMostCost(t *testing.T) {
	for _, name := range []string{"A", "B", "C", "E-SSW"} {
		s, err := gen.Suite(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		task := s.Task
		for _, pl := range planners {
			for _, k := range []int{0, 2} {
				for _, warm := range []bool{false, true} {
					opts := core.Options{Alpha: 0.2, MaxRunLength: k, SkipAudit: true}
					if warm {
						opts.Bound = core.NewBoundEngine(task, opts)
					}
					full, err := pl.plan(task, opts)
					if err != nil {
						t.Fatalf("%s %s K=%d: %v", name, pl.name, k, err)
					}
					for _, n := range []int{0, len(full.Sequence) / 3, len(full.Sequence) / 2} {
						ro := opts
						ro.Executed = full.Sequence[:n]
						label := func(what string, lb, c float64) {
							t.Helper()
							if lb > c+1e-9 {
								t.Fatalf("%s %s K=%d warm=%v executed %d: %s lower bound %g above cost %g",
									name, pl.name, k, warm, n, what, lb, c)
							}
						}
						re, err := pl.plan(task, ro)
						if err != nil {
							t.Fatalf("%s %s K=%d executed %d: %v", name, pl.name, k, n, err)
						}
						label("plan", re.Metrics.LowerBound, re.Cost)
						last := core.NoLast
						if n > 0 {
							last = task.Blocks[full.Sequence[n-1]].Type
						}
						label("completion", core.CompletionLowerBound(task, core.CountsOf(task, ro.Executed), last, ro.Alpha, k), re.Cost)
						for _, states := range []int{1, 10, 100} {
							ro.MaxStates = states
							_, err := pl.plan(task, ro)
							var intr *core.Interrupted
							if errors.As(err, &intr) {
								label("checkpoint", intr.Checkpoint.Metrics.LowerBound, re.Cost)
							} else if err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
	}
}

// TestSafePartialTrimsUnsafeFrontier: a search checks states only at run
// boundaries, so the frontier a checkpoint reaches can be an unsafe paused
// state. SafePartial keeps the longest prefix of Partial whose endpoint,
// counted after the executed blocks, is safe, and cuts it into the runs the
// crews execute after those blocks. Every suite at × 0.25, both planners,
// run caps 0 and 2, resume cuts 0 and the middle of the plan, state budgets
// 1, 10 and 100; some frontier must be unsafe and trimmed.
func TestSafePartialTrimsUnsafeFrontier(t *testing.T) {
	trimmed := 0
	for _, name := range gen.SuiteNames() {
		s, err := gen.Suite(name, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		task := s.Task
		for _, pl := range planners {
			for _, k := range []int{0, 2} {
				full, err := pl.plan(task, core.Options{MaxRunLength: k, SkipAudit: true})
				if err != nil {
					t.Fatalf("%s %s K=%d: %v", name, pl.name, k, err)
				}
				for _, n := range []int{0, len(full.Sequence) / 2} {
					for _, states := range []int{1, 10, 100} {
						opts := core.Options{MaxRunLength: k, MaxStates: states, Executed: full.Sequence[:n]}
						_, err := pl.plan(task, opts)
						var intr *core.Interrupted
						if !errors.As(err, &intr) {
							if err != nil {
								t.Fatal(err)
							}
							continue
						}
						cp := intr.Checkpoint
						label := fmt.Sprintf("%s %s K=%d executed %d states %d", name, pl.name, k, n, states)
						if !slices.Equal(cp.Executed(), opts.Executed) {
							t.Fatalf("%s: checkpoint executed %v, want %v", label, cp.Executed(), opts.Executed)
						}
						seq, runs := cp.SafePartial()
						if !slices.Equal(seq, cp.Partial[:len(seq)]) {
							t.Fatalf("%s: safe partial %v is not a prefix of %v", label, seq, cp.Partial)
						}
						done := append(slices.Clone(opts.Executed), seq...)
						if err := core.CheckState(task, core.CountsOf(task, done), opts); err != nil {
							t.Fatalf("%s: the safe partial ends at an unsafe state: %v", label, err)
						}
						if len(seq) < len(cp.Partial) {
							next := append(slices.Clone(done), cp.Partial[len(seq)])
							if core.CheckState(task, core.CountsOf(task, next), opts) == nil {
								t.Fatalf("%s: trimmed to %d of %d actions, but the next prefix is safe", label, len(seq), len(cp.Partial))
							}
							trimmed++
						}
						want := slices.DeleteFunc(runEnds(core.RunsOf(task, done, k), 0), func(end int) bool { return end <= n })
						if got := runEnds(runs, n); !slices.Equal(got, want) {
							t.Fatalf("%s: safe partial's runs end at %v, the whole sequence's at %v", label, got, want)
						}
					}
				}
			}
		}
	}
	if trimmed == 0 {
		t.Fatal("no checkpoint reached an unsafe frontier; the cases must reach one")
	}
	t.Logf("%d checkpoints trimmed", trimmed)
}
