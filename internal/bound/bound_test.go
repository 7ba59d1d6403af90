package bound

import (
	"math"
	"testing"
)

// tiny returns a fresh 2-type engine over a 3×3 lattice (totals [2,2]),
// unit costs, α=0 — the same shape as the planners' pinned search-effort fabrics.
func tiny() *Engine {
	e := New([]uint16{2, 2}, []float64{1, 1}, 0)
	e.Bind(1, 1)
	e.Arm([]uint16{0, 0}, -1)
	return e
}

func TestMatches(t *testing.T) {
	e := New([]uint16{2, 3}, []float64{1, 0.5}, 0.1)
	if !e.Matches([]uint16{2, 3}, []float64{1, 0.5}, 0.1) {
		t.Fatal("engine does not match its own shape")
	}
	for _, bad := range []struct {
		name   string
		totals []uint16
		units  []float64
		alpha  float64
	}{
		{"totals", []uint16{2, 4}, []float64{1, 0.5}, 0.1},
		{"units", []uint16{2, 3}, []float64{1, 1}, 0.1},
		{"alpha", []uint16{2, 3}, []float64{1, 0.5}, 0.2},
		{"arity", []uint16{2}, []float64{1}, 0.1},
	} {
		if e.Matches(bad.totals, bad.units, bad.alpha) {
			t.Errorf("%s mismatch accepted", bad.name)
		}
	}
}

// TestRelaxCapped pins the closed-form relaxation against hand-computed
// values of the run-cost algebra f_cost(x) = 1 + α(x−1).
func TestRelaxCapped(t *testing.T) {
	cases := []struct {
		name   string
		units  []float64
		rem    []int
		alpha  float64
		last   int
		maxRun int
		tail   int
		want   float64
	}{
		// Two types, two actions each, α=0: one run per type.
		{"alpha0-fresh", []float64{1, 1}, []int{2, 2}, 0, -1, 0, 0, 2},
		// Continuing type 0's run: its remaining actions extend for free.
		{"alpha0-continue", []float64{1, 1}, []int{2, 2}, 0, 0, 0, 1, 1},
		// α=1 makes every action a full unit: no run discount at all.
		{"alpha1", []float64{1, 1}, []int{2, 2}, 1, -1, 0, 0, 4},
		// α=0.5, fresh: each type costs 1 + 0.5·(rem−1).
		{"alpha-half", []float64{1, 1}, []int{3, 1}, 0.5, -1, 0, 0, 2 + 1},
		// Run cap 2, α=0: 3 remaining of one type need ⌈3/2⌉ = 2 runs.
		{"capped", []float64{1}, []int{3}, 0, -1, 2, 0, 2},
		// Run cap 2 with one slot left in the current run: extend once
		// free, then one fresh run for the other two.
		{"capped-tail", []float64{1}, []int{3}, 0, 0, 2, 1, 1},
		// Done: nothing remains.
		{"done", []float64{1, 1}, []int{0, 0}, 0.3, 0, 0, 1, 0},
	}
	for _, c := range cases {
		totals := make([]uint16, len(c.rem))
		for i, r := range c.rem {
			totals[i] = uint16(r)
		}
		done := make([]uint16, len(c.rem))
		if got := RelaxCapped(c.units, totals, done, c.alpha, c.last, c.maxRun, c.tail); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: RelaxCapped = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestDeadWall verifies the cold-path deadness test: a state is dead only
// when off-axis work remains and the entire last-type axis suffix is cut.
func TestDeadWall(t *testing.T) {
	e := tiny()
	e.Learn([]uint16{1, 0}, false)
	e.Learn([]uint16{2, 0}, false)

	if !e.Dead([]uint16{1, 0}, 0) {
		t.Error("(1,0) last=0 should be dead: every type-0 extension is cut and type-1 work remains")
	}
	if e.Dead([]uint16{1, 0}, 1) {
		t.Error("(1,0) last=1 should not be dead: (1,1) is not cut")
	}
	if e.Dead([]uint16{1, 0}, -1) {
		t.Error("no-last states are never dead")
	}
	// (0,0) itself is not cut, so the run could end right here.
	if e.Dead([]uint16{0, 0}, 0) {
		t.Error("uncut state should not be dead")
	}
	// With no off-axis work left, a pure same-type extension finishes the
	// plan; cuts on the interior do not matter for the final vector.
	e2 := tiny()
	e2.Learn([]uint16{1, 2}, false)
	if e2.Dead([]uint16{1, 2}, 0) {
		t.Error("(1,2) last=0 has no off-axis work; cut walls are irrelevant unless the target is cut")
	}
}

// TestLearnIdempotent verifies duplicate cuts are not double-counted and
// that a structural re-learn upgrades an existing demand cut in place.
func TestLearnIdempotent(t *testing.T) {
	e := tiny()
	if !e.Learn([]uint16{1, 0}, false) {
		t.Fatal("first Learn should report a new cut")
	}
	if e.Learn([]uint16{1, 0}, false) {
		t.Error("duplicate Learn should report no new cut")
	}
	if got := e.CutsLearned(); got != 1 {
		t.Fatalf("CutsLearned = %d, want 1", got)
	}
	// Upgrade to structural, then check it survives a demand-only rebind.
	e.Learn([]uint16{1, 0}, true)
	e.Learn([]uint16{2, 0}, false)
	e.Bind(1, 2) // same structure, new demands
	e.Arm([]uint16{0, 0}, -1)
	e.Learn([]uint16{2, 0}, false) // re-prove the demand cut
	if !e.Dead([]uint16{1, 0}, 0) {
		t.Error("structural cut should survive demand drift (plus the re-proven demand cut)")
	}
}

// TestBindReset verifies the two rebind regimes: a structural change
// drops everything, a demand-only change keeps structural cuts.
func TestBindReset(t *testing.T) {
	e := tiny()
	e.Learn([]uint16{1, 0}, true)  // structural
	e.Learn([]uint16{2, 0}, false) // demand-dependent
	if !e.Dead([]uint16{1, 0}, 0) {
		t.Fatal("wall should be dead before rebinding")
	}

	// Demand-only rebind: the structural cut stays, the demand cut drops,
	// so the wall is broken and the state is live again.
	e.Bind(1, 2)
	e.Arm([]uint16{0, 0}, -1)
	if e.Dead([]uint16{1, 0}, 0) {
		t.Error("demand cut should not survive demand drift")
	}
	if e.Sealed() {
		t.Error("rebinding must unseal")
	}

	// Structural rebind: everything drops, including structural cuts.
	e.Learn([]uint16{2, 0}, false)
	e.Bind(2, 2)
	e.Arm([]uint16{0, 0}, -1)
	if e.Dead([]uint16{1, 0}, 0) {
		t.Error("no cut survives a structural change")
	}
}

// TestCompletionAdmissibleAndMonotone exhaustively compares the engine's
// Completion bound against the true cut-respecting optimal completion on
// a small lattice, before and after sealing, and checks the bound never
// decreases as cuts accumulate.
func TestCompletionAdmissibleAndMonotone(t *testing.T) {
	totals := []uint16{2, 2}
	units := []float64{1, 1}
	const alpha = 0.25

	// optimal computes the true minimum completion cost from (vec, last)
	// treating cut vectors as unusable run boundaries — a tiny independent
	// DP over the 3×3 lattice.
	cut := map[[2]uint16]bool{}
	var optimal func(v0, v1 uint16, last int) float64
	optimal = func(v0, v1 uint16, last int) float64 {
		if v0 == totals[0] && v1 == totals[1] {
			return 0
		}
		best := math.Inf(1)
		for a := 0; a < 2; a++ {
			n0, n1 := v0, v1
			if a == 0 {
				if v0 >= totals[0] {
					continue
				}
				n0++
			} else {
				if v1 >= totals[1] {
					continue
				}
				n1++
			}
			step := units[a]
			if a == last {
				step = alpha * units[a]
			} else if cut[[2]uint16{v0, v1}] && last >= 0 {
				continue // ending the previous run here is infeasible
			}
			c := step + optimal(n0, n1, a)
			if c < best {
				best = c
			}
		}
		return best
	}

	e := New(totals, units, alpha)
	e.Bind(7, 7)
	e.Arm([]uint16{0, 0}, -1)

	checkAdmissible := func(stage string) {
		for v0 := uint16(0); v0 <= totals[0]; v0++ {
			for v1 := uint16(0); v1 <= totals[1]; v1++ {
				for last := -1; last < 2; last++ {
					got := e.Completion([]uint16{v0, v1}, last)
					want := optimal(v0, v1, last)
					if got > want+1e-9 {
						t.Errorf("%s: Completion((%d,%d), %d) = %v exceeds optimal %v",
							stage, v0, v1, last, got, want)
					}
				}
			}
		}
	}
	checkAdmissible("cold")

	// Learn a cut and seal; the table bound must stay admissible w.r.t.
	// the cut-respecting optimum and must not drop below the cold bound.
	type key struct {
		v0, v1 uint16
		last   int
	}
	before := map[key]float64{}
	for v0 := uint16(0); v0 <= totals[0]; v0++ {
		for v1 := uint16(0); v1 <= totals[1]; v1++ {
			for last := -1; last < 2; last++ {
				before[key{v0, v1, last}] = e.Completion([]uint16{v0, v1}, last)
			}
		}
	}
	cut[[2]uint16{1, 0}] = true
	e.Learn([]uint16{1, 0}, false)
	e.Seal(2) // any valid incumbent; tables freeze here
	checkAdmissible("sealed")
	for v0 := uint16(0); v0 <= totals[0]; v0++ {
		for v1 := uint16(0); v1 <= totals[1]; v1++ {
			for last := -1; last < 2; last++ {
				got := e.Completion([]uint16{v0, v1}, last)
				if got < before[key{v0, v1, last}]-1e-12 {
					t.Errorf("bound decreased after cuts: (%d,%d) last=%d: %v < %v",
						v0, v1, last, got, before[key{v0, v1, last}])
				}
			}
		}
	}
}

// TestSealEpochFreeze verifies sealed tables are frozen snapshots: a cut
// learned after sealing does not move the bound until the next Seal.
func TestSealEpochFreeze(t *testing.T) {
	e := tiny()
	e.Seal(2)
	before := e.Completion([]uint16{0, 0}, 0)
	e.Learn([]uint16{1, 0}, false)
	if got := e.Completion([]uint16{0, 0}, 0); got != before {
		t.Fatalf("bound moved under a frozen seal: %v → %v", before, got)
	}
	// Re-sealing the same basis with the new cut rebuilds the tables; the
	// bound may now rise (never fall).
	e.Seal(2)
	if got := e.Completion([]uint16{0, 0}, 0); got < before {
		t.Fatalf("bound decreased across re-seal: %v → %v", before, got)
	}
}

// TestSealKeepsTighterIncumbent verifies re-sealing the same basis with a
// worse cost keeps the earlier, tighter incumbent.
func TestSealKeepsTighterIncumbent(t *testing.T) {
	e := tiny()
	e.Seal(2)
	e.Learn([]uint16{1, 0}, false)
	e.Seal(3)
	if got := e.Incumbent(); got != 2 {
		t.Fatalf("Incumbent = %v after worse re-seal, want 2", got)
	}
	// NaN/Inf/negative seals are ignored outright.
	e.Seal(math.Inf(1))
	e.Seal(math.NaN())
	e.Seal(-1)
	if got := e.Incumbent(); got != 2 {
		t.Fatalf("Incumbent = %v after garbage seals, want 2", got)
	}
}

// TestDominatedDPBasis verifies dominance pruning only fires when the
// armed run basis matches the sealed one; deadness remains basis-free.
func TestDominatedDPBasis(t *testing.T) {
	e := tiny()
	// Cut the whole interior column so (1,0)/(2,0) die and dominance has
	// something to prune once sealed.
	e.Learn([]uint16{1, 0}, false)
	e.Learn([]uint16{2, 0}, false)
	e.Seal(2) // basis: init (0,0), last -1

	if !e.DominatedDP([]uint16{1, 0}, 0) {
		t.Error("dead cell should be dominated under the sealed basis")
	}

	// Re-arm from a different start: dominance must stand down, deadness
	// must not.
	e.Arm([]uint16{0, 1}, 1)
	if !e.Dead([]uint16{1, 0}, 0) {
		t.Error("deadness is basis-free and must survive re-arming")
	}
	// A live cell (not dead) must not be dominance-pruned off-basis.
	if e.DominatedDP([]uint16{0, 1}, 1) {
		t.Error("live cell dominance-pruned under a mismatched basis")
	}
}

// TestOverflowLattice verifies an engine whose lattice exceeds the dense
// cap degrades to closed-form bounds: no cuts, never dead, still
// admissible.
func TestOverflowLattice(t *testing.T) {
	e := New([]uint16{65000, 65000, 65000}, []float64{1, 1, 1}, 0)
	e.Bind(1, 1)
	e.Arm([]uint16{0, 0, 0}, -1)
	if e.Learn([]uint16{1, 0, 0}, false) {
		t.Error("overflowed lattice should not store cuts")
	}
	if e.Dead([]uint16{1, 0, 0}, 0) {
		t.Error("overflowed lattice can prove nothing dead")
	}
	if got := e.Completion([]uint16{0, 0, 0}, -1); got != 3 {
		t.Errorf("closed-form relaxation = %v, want 3 (one unit run per type at α=0)", got)
	}
}
