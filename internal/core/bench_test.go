package core

import (
	"math/rand"
	"testing"

	"klotski/internal/migration"
)

// Micro-benchmarks for the planner's hot paths: state interning, the
// heuristic, cached and uncached satisfiability, and full plans on the
// bridge microcosm. The macroscopic figure benchmarks live at the
// repository root.

func benchSpace(b *testing.B, nOld, nNew int) *space {
	b.Helper()
	task := bridgeTask(b, nOld, nNew, 1, 2, 0.5, 0)
	sp, err := newSpace(task, Options{})
	if err != nil {
		b.Fatal(err)
	}
	return sp
}

func BenchmarkIntern(b *testing.B) {
	sp := benchSpace(b, 3, 3)
	rng := rand.New(rand.NewSource(1))
	vecs := make([][]uint16, 64)
	for i := range vecs {
		vecs[i] = []uint16{uint16(rng.Intn(4)), uint16(rng.Intn(4))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.intern(vecs[i%len(vecs)])
	}
}

func BenchmarkHeuristic(b *testing.B) {
	sp := benchSpace(b, 3, 3)
	idx, _ := sp.intern([]uint16{1, 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.heuristic(idx, migration.ActionType(i%2), 0)
	}
}

func BenchmarkFeasibleCached(b *testing.B) {
	sp := benchSpace(b, 3, 3)
	idx, _ := sp.intern([]uint16{1, 2})
	sp.feasible(idx, NoLast) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.feasible(idx, NoLast)
	}
}

func BenchmarkFeasibleUncached(b *testing.B) {
	sp := benchSpace(b, 3, 3)
	idx, _ := sp.intern([]uint16{1, 2})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.metrics.Checks = 0
		sp.feasT.set(idx, 0) // forget the verdict
		sp.feasible(idx, NoLast)
	}
}

func BenchmarkPlanAStarBridges(b *testing.B) {
	task := bridgeTask(b, 4, 4, 1, 1, 1.2, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlanAStar(task, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanDPBridges(b *testing.B) {
	task := bridgeTask(b, 4, 4, 1, 1, 1.2, 5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := PlanDP(task, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyPlan(b *testing.B) {
	task := bridgeTask(b, 4, 4, 1, 1, 1.2, 5)
	p, err := PlanAStar(task, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyPlan(task, p.Sequence, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
