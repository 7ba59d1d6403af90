package routing_test

import (
	"slices"
	"testing"

	"klotski/internal/core"
	"klotski/internal/gen"
)

// TestQuotientQuota builds the lifted check's quotient of every suite fabric
// at × 0.25 and × 1 with no quota, and again under a quota of a quarter of
// the fabric's circuits (the lane's gate), one circuit class fewer than the
// unbounded build has, and exactly as many. A build under a quota must
// decline exactly when the unbounded build has more circuit classes than the
// quota allows. The gate builds on E, E-DMAG and E-SSW at both scales and on
// C at × 1, and declines everywhere else.
func TestQuotientQuota(t *testing.T) {
	opens := map[float64][]string{
		0.25: {"E", "E-DMAG", "E-SSW"},
		1:    {"C", "E", "E-DMAG", "E-SSW"},
	}
	for _, scale := range []float64{0.25, 1} {
		var opened []string
		for _, name := range gen.SuiteNames() {
			s, err := gen.Suite(name, scale)
			if err != nil {
				t.Fatal(err)
			}
			m := s.Task.Topo.NumCircuits()
			q, ok := core.LiftedQuotient(s.Task, m)
			if !ok {
				t.Fatalf("%s × %g: the unbounded build declined", name, scale)
			}
			_, ncc := q.Classes()
			t.Logf("%s × %g: %d circuits, %d circuit classes", name, scale, m, ncc)
			for _, quota := range []int{m / 4, ncc - 1, ncc} {
				if _, ok := core.LiftedQuotient(s.Task, quota); ok != (ncc <= quota) {
					t.Errorf("%s × %g: %d circuit classes, and the build under a quota of %d returned %v", name, scale, ncc, quota, ok)
				}
			}
			if ncc <= m/4 {
				opened = append(opened, name)
			}
		}
		if want := opens[scale]; !slices.Equal(opened, want) {
			t.Errorf("× %g: the gate builds on %v, want %v", scale, opened, want)
		}
	}
}
