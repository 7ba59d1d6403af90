// Package demand models traffic demands and demand forecasting.
//
// A demand is an aggregate (source switch, destination switch, rate) triple.
// The Klotski paper (§6.1) evaluates with three kinds of source/target
// pairs — RSW→EBB, EBB→RSW, and RSW→RSW — with total volume in the hundreds
// of Tbps. Demands here play exactly that role: the satisfiability checker
// routes each demand over the intermediate topology with ECMP and verifies
// per-circuit utilization bounds.
//
// The package also implements the demand-forecast integration described in
// the paper's deployment section (§7.1): traffic grows organically during a
// months-long migration, so plans must be checked against forecasted rather
// than current demand (migration.Task.Forecast), and re-planned when the
// forecast shifts.
package demand

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"unsafe"

	"klotski/internal/topo"
)

// Demand is an aggregate traffic requirement from Src to Dst.
type Demand struct {
	Name string
	Src  topo.SwitchID
	Dst  topo.SwitchID
	Rate float64 // Tbps
}

// Set is a collection of demands. The zero value is an empty, usable set.
type Set struct {
	Demands []Demand

	// idx caches the destination index (dst → demand indices) as an
	// atomically published *dstIndex. It is built on first DestinationIndex
	// call — concurrently if need be: racing builders produce identical
	// indexes and the last atomic store wins — and invalidated by Add;
	// callers that append to Demands directly must not hold a stale index
	// (rebuilds trigger off the length check). Mutating a demand's Rate in
	// place is fine; mutating Src/Dst in place is not. The field is an
	// unsafe.Pointer rather than an atomic.Pointer so Set values stay
	// copyable (Scaled, Forecast.At, and Task embedding all pass Sets by
	// value); the published payload is immutable, so copies share it safely.
	idx unsafe.Pointer // *dstIndex
}

// dstIndex is the cached per-destination demand grouping. The satisfiability
// checker processes demands one destination group at a time; this index
// replaces the O(|demands| × |destinations|) rescan with a prebuilt lookup.
type dstIndex struct {
	n     int // len(Demands) when built, for staleness detection
	dsts  []topo.SwitchID
	byDst [][]int32 // aligned with dsts: indices into Demands
}

// Add appends a demand to the set.
func (s *Set) Add(d Demand) {
	s.Demands = append(s.Demands, d)
	atomic.StorePointer(&s.idx, nil)
}

// Len returns the number of demands.
func (s *Set) Len() int { return len(s.Demands) }

// Total returns the aggregate rate across all demands in Tbps.
func (s *Set) Total() float64 {
	t := 0.0
	for _, d := range s.Demands {
		t += d.Rate
	}
	return t
}

// Scaled returns a copy of the set with every rate multiplied by f.
func (s *Set) Scaled(f float64) Set {
	out := Set{Demands: make([]Demand, len(s.Demands))}
	for i, d := range s.Demands {
		d.Rate *= f
		out.Demands[i] = d
	}
	return out
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() Set {
	return Set{Demands: append([]Demand(nil), s.Demands...)}
}

// Destinations returns the distinct destination switches, sorted by ID.
// The satisfiability checker batches routing work per destination, so the
// size of this slice — not the number of demands — dominates check cost.
func (s *Set) Destinations() []topo.SwitchID {
	dsts, _ := s.DestinationIndex()
	return append([]topo.SwitchID(nil), dsts...)
}

// DestinationIndex returns the distinct destinations, sorted by ID, and —
// aligned with them — the indices of each destination's demands, in Demands
// order. The index is built once and cached. The build is goroutine-safe:
// concurrent first callers may each build the (deterministic, identical)
// index, with one winning the atomic publication — so parallel check
// workers can share a Set without any pre-touch protocol. Concurrent reads
// racing an Add remain the caller's responsibility, as for any slice
// append. The returned slices are shared — callers must not modify them.
func (s *Set) DestinationIndex() ([]topo.SwitchID, [][]int32) {
	idx := (*dstIndex)(atomic.LoadPointer(&s.idx))
	if idx == nil || idx.n != len(s.Demands) {
		idx = buildDstIndex(s.Demands)
		atomic.StorePointer(&s.idx, unsafe.Pointer(idx))
	}
	return idx.dsts, idx.byDst
}

func buildDstIndex(demands []Demand) *dstIndex {
	pos := make(map[topo.SwitchID]int, 8)
	idx := &dstIndex{n: len(demands)}
	for _, d := range demands {
		if _, ok := pos[d.Dst]; !ok {
			pos[d.Dst] = len(idx.dsts)
			idx.dsts = append(idx.dsts, d.Dst)
		}
	}
	sort.Slice(idx.dsts, func(i, j int) bool { return idx.dsts[i] < idx.dsts[j] })
	for i, dst := range idx.dsts {
		pos[dst] = i
	}
	idx.byDst = make([][]int32, len(idx.dsts))
	for i, d := range demands {
		g := pos[d.Dst]
		idx.byDst[g] = append(idx.byDst[g], int32(i))
	}
	return idx
}

// Validate checks that all endpoints are in range for the topology, all
// rates are finite and positive, and no demand is a self-loop.
func (s *Set) Validate(t *topo.Topology) error {
	n := topo.SwitchID(t.NumSwitches())
	for i, d := range s.Demands {
		if d.Src < 0 || d.Src >= n || d.Dst < 0 || d.Dst >= n {
			return fmt.Errorf("demand: demand %d (%s) has out-of-range endpoint", i, d.Name)
		}
		if d.Src == d.Dst {
			return fmt.Errorf("demand: demand %d (%s) is a self-loop", i, d.Name)
		}
		if d.Rate <= 0 || math.IsNaN(d.Rate) || math.IsInf(d.Rate, 0) {
			return fmt.Errorf("demand: demand %d (%s) has invalid rate %v", i, d.Name, d.Rate)
		}
	}
	return nil
}

// Forecast models organic traffic growth over the duration of a migration
// (paper §7.1). GrowthPerStep is the fractional increase applied per
// migration step; a ten-percent increase over a month-long migration with
// 20 steps corresponds to GrowthPerStep ≈ 0.0048.
type Forecast struct {
	GrowthPerStep float64
}

// At returns the demand set forecast after the given number of completed
// migration steps: every rate is multiplied by (1+GrowthPerStep)^steps.
func (f Forecast) At(s Set, steps int) Set {
	if steps <= 0 || f.GrowthPerStep == 0 {
		return s.Clone()
	}
	return s.Scaled(f.ScaleAt(steps))
}

// ScaleAt returns the multiplier the forecast applies after the given
// number of completed steps: (1+GrowthPerStep)^steps. Horizon 0 (or any
// non-positive horizon) is exactly 1 — "now" needs no scaling — and a
// horizon large enough to overflow float64 clamps to MaxFloat64 rather
// than returning +Inf, so downstream utilization comparisons stay ordered
// (anything times MaxFloat64 already fails every finite bound).
func (f Forecast) ScaleAt(steps int) float64 {
	if steps <= 0 || f.GrowthPerStep == 0 {
		return 1
	}
	scale := math.Pow(1+f.GrowthPerStep, float64(steps))
	if math.IsInf(scale, 1) || scale > math.MaxFloat64 {
		return math.MaxFloat64
	}
	return scale
}

// Surge models an unexpected service-behavior change (paper §7.2: a warm
// storage backup-placement change caused days of traffic spikes during a
// migration). Fraction of demands, chosen pseudo-randomly, are multiplied
// by Multiplier.
type Surge struct {
	Fraction   float64 // fraction of demands affected, in [0,1]
	Multiplier float64 // rate multiplier for affected demands, ≥ 1
}

// Apply returns a copy of the set with the surge applied, using rng to pick
// the affected demands.
func (su Surge) Apply(s Set, rng *rand.Rand) Set {
	out, _ := su.ApplyTracked(s, rng)
	return out
}

// ApplyTracked is Apply plus the indices of the affected demands, ascending.
// Chaos worlds use the indices to undo a transient surge when it recovers
// (divide the same rates back) without re-drawing from the rng.
func (su Surge) ApplyTracked(s Set, rng *rand.Rand) (Set, []int32) {
	out := s.Clone()
	var hit []int32
	for i := range out.Demands {
		if rng.Float64() < su.Fraction {
			out.Demands[i].Rate *= su.Multiplier
			hit = append(hit, int32(i))
		}
	}
	return out, hit
}
