package routing

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// freshPartition builds the partition NewQuotient would, keeping nothing on
// the shape.
func freshPartition(tp *topo.Topology, sw, ck []int32, quota int) (partition, bool) {
	cls, nc, ok := refine(tp, sw, ck, quota)
	if !ok {
		return partition{}, false
	}
	return partitioned(tp, cls, nc, ck, quota)
}

// freshEvaluator builds an evaluator over tp from nothing, keeping nothing on
// the shape.
func freshEvaluator(tp *topo.Topology) *Evaluator {
	e := newAdjacency(tp).Fork()
	e.t = tp
	return e
}

// newQuotient returns a quotient of the partition with fresh check state, as
// NewQuotient forks one.
func newQuotient(p partition) *Quotient {
	return &Quotient{partition: p, engine: p.adj.fork()}
}

// sharesPartition reports whether two quotients route one partition.
func sharesPartition(a, b *Quotient) bool {
	return &a.classOf[0] == &b.classOf[0] && &a.ckClassOf[0] == &b.ckClassOf[0] && &a.mult[0] == &b.mult[0]
}

// sharesAdjacency reports whether two evaluators read one static adjacency.
func sharesAdjacency(a, b *Evaluator) bool {
	return &a.arcs[0] == &b.arcs[0] && &a.caps[0] == &b.caps[0] && &a.ports[0] == &b.ports[0]
}

// sameBits reports whether two float slices are equal bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// shapeScript is a fixed run of views the blocks of p reach, with the check
// options of each.
func shapeScript(p *planted, rng *rand.Rand) ([]*topo.View, []CheckOpts) {
	var views []*topo.View
	var opts []CheckOpts
	applied := make([]bool, len(p.drains))
	for step := 0; step < 12; step++ {
		b := rng.Intn(len(applied))
		applied[b] = !applied[b]
		views = append(views, p.view(applied))
		opts = append(opts, CheckOpts{Split: SplitMode(rng.Intn(2)), Theta: []float64{0.5, 1, 2, 4}[rng.Intn(4)]})
	}
	return views, opts
}

// quotientAnswersAsFresh runs q and a quotient of a fresh build through the
// script and fails the test at the first step where their answers or loads
// differ.
func quotientAnswersAsFresh(t *testing.T, what string, q *Quotient, fresh partition, ds *demand.Set, views []*topo.View, opts []CheckOpts) {
	t.Helper()
	ref := newQuotient(fresh)
	for i, v := range views {
		gotOK, gotSure := q.Check(v, ds, opts[i], nil)
		wantOK, wantSure := ref.Check(v, ds, opts[i], nil)
		if gotOK != wantOK || gotSure != wantSure || !sameBits(q.load, ref.load) {
			t.Fatalf("%s, step %d: (%v, %v) with loads %v, a fresh build (%v, %v) with %v", what, i, gotOK, gotSure, q.load, wantOK, wantSure, ref.load)
		}
	}
}

// evaluatorAnswersAsFresh runs e and an evaluator built from nothing over the
// same topology through the script and fails the test at the first step where
// their answers, results or loads differ.
func evaluatorAnswersAsFresh(t *testing.T, what string, e *Evaluator, ds *demand.Set, views []*topo.View, opts []CheckOpts) {
	t.Helper()
	ref := freshEvaluator(e.t)
	for i, v := range views {
		gotRes, got := e.Evaluate(v, ds, opts[i])
		wantRes, want := ref.Evaluate(v, ds, opts[i])
		if got != want || gotRes != wantRes || !sameBits(e.load, ref.load) {
			t.Fatalf("%s, step %d: %v %+v, a fresh build %v %+v", what, i, got, gotRes, want, wantRes)
		}
	}
}

// TestBuildsSharedPerShape holds NewQuotient and NewEvaluator to one build
// per topology shape. A second call on the same topology, and a call on a
// clone with equal colours, share the first's partition or adjacency, start
// from fresh check state and zeroed counters, and answer a script of views as
// a fresh build does, every load bit for bit. Scaling every capacity keeps
// the colours as they were but gives the topology a new shape, and both
// functions build again, equal to a fresh build; so does a clone with one
// switch down and its own colours, which leaves the first build kept beside
// its own. A declined build is kept too.
func TestBuildsSharedPerShape(t *testing.T) {
	downed := 0
	for _, seed := range []int64{1, 2, 3, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		p := plant(rng, 4)
		tp := p.tp
		m := tp.NumCircuits()
		ds := p.demands(rng)
		views, opts := shapeScript(p, rng)
		sw, ck := fuzzColours(tp, p.swBlock, p.ckBlock, &ds)
		want, ok := freshPartition(tp, sw, ck, m)
		if !ok {
			t.Fatalf("seed %d: the build refused refinement's own partition", seed)
		}

		q1, _ := NewQuotient(tp, sw, ck, m)
		e1 := NewEvaluator(tp)
		quotientAnswersAsFresh(t, "first quotient", q1, want, &ds, views, opts)
		evaluatorAnswersAsFresh(t, "first evaluator", e1, &ds, views, opts)
		if !reflect.DeepEqual(q1.partition, want) {
			t.Fatalf("seed %d: the first build differs from a fresh one", seed)
		}

		cl := tp.Clone()
		for _, c := range []struct {
			name string
			tp   *topo.Topology
		}{{"the same topology", tp}, {"a clone", cl}} {
			q, _ := NewQuotient(c.tp, sw, ck, m)
			switch {
			case q == q1 || !sharesPartition(q, q1):
				t.Fatalf("seed %d, %s: NewQuotient did not fork the kept partition", seed, c.name)
			case !reflect.DeepEqual(*q, *newQuotient(q.partition)):
				t.Fatalf("seed %d, %s: a fork starts with check state or counters", seed, c.name)
			}
			quotientAnswersAsFresh(t, c.name, q, want, &ds, views, opts)

			e := NewEvaluator(c.tp)
			switch {
			case e == e1 || !sharesAdjacency(e, e1):
				t.Fatalf("seed %d, %s: NewEvaluator did not fork the kept adjacency", seed, c.name)
			case e.t != c.tp:
				t.Fatalf("seed %d, %s: the fork is not over its caller's topology", seed, c.name)
			case !reflect.DeepEqual(*e, *freshEvaluator(c.tp)):
				t.Fatalf("seed %d, %s: a fork differs from a fresh evaluator", seed, c.name)
			}
			evaluatorAnswersAsFresh(t, c.name, e, &ds, views, opts)
		}

		// Twice every capacity: the colours number capacities by first
		// appearance, so they stay as they were, and only the shape tells.
		scaled := tp.Clone()
		for c := 0; c < m; c++ {
			id := topo.CircuitID(c)
			scaled.SetCapacity(id, 2*scaled.Circuit(id).Capacity)
		}
		ssw, sck := fuzzColours(scaled, p.swBlock, p.ckBlock, &ds)
		if !slices.Equal(ssw, sw) || !slices.Equal(sck, ck) {
			t.Fatalf("seed %d: scaling every capacity changed the colours", seed)
		}
		qs, _ := NewQuotient(scaled, sw, ck, m)
		wantScaled, _ := freshPartition(scaled, sw, ck, m)
		if sharesPartition(qs, q1) || !reflect.DeepEqual(qs.partition, wantScaled) {
			t.Fatalf("seed %d: after SetCapacity NewQuotient did not build again, equal to a fresh build", seed)
		}
		quotientAnswersAsFresh(t, "scaled", qs, wantScaled, &ds, views, opts)
		es := NewEvaluator(scaled)
		if sharesAdjacency(es, e1) || !reflect.DeepEqual(*es, *freshEvaluator(scaled)) {
			t.Fatalf("seed %d: after SetCapacity NewEvaluator did not build again, equal to a fresh build", seed)
		}
		evaluatorAnswersAsFresh(t, "scaled", es, &ds, views, opts)

		// One switch down, in a class with others, on a clone of one shape.
		var s topo.SwitchID = -1
		for i := range sw {
			if i != int(want.rep[want.classOf[i]]) && tp.SwitchActive(topo.SwitchID(i)) {
				s = topo.SwitchID(i)
				break
			}
		}
		if s >= 0 {
			downed++
			out := tp.Clone()
			out.SetSwitchActive(s, false)
			osw, ock := fuzzColours(out, p.swBlock, p.ckBlock, &ds)
			qo, _ := NewQuotient(out, osw, ock, m)
			wantOut, _ := freshPartition(out, osw, ock, m)
			if sharesPartition(qo, q1) || !reflect.DeepEqual(qo.partition, wantOut) {
				t.Fatalf("seed %d: with switch %d down NewQuotient did not build its own partition, equal to a fresh build", seed, s)
			}
			if again, _ := NewQuotient(out, osw, ock, m); !sharesPartition(again, qo) {
				t.Fatalf("seed %d: the latest build was not kept", seed)
			}
			if again, _ := NewQuotient(tp, sw, ck, m); !sharesPartition(again, q1) {
				t.Fatalf("seed %d: the first build was not kept beside the latest", seed)
			}
		}

		_, ncc := q1.Classes()
		for i := 0; i < 2; i++ {
			if q, ok := NewQuotient(tp, sw, ck, ncc-1); ok || q != nil {
				t.Fatalf("seed %d: a build under a quota of %d circuit classes, one fewer than the partition has, returned %v", seed, ncc-1, ok)
			}
		}
	}
	if downed == 0 {
		t.Fatal("no seed had a switch in a class with others")
	}
}

// TestBuildsSharedConcurrently calls NewEvaluator and NewQuotient on one
// topology of a fresh shape from several goroutines at once, each checking a
// script of views; under the race detector this holds the shape's keeping to
// its lock, and every answer and load must be a fresh build's.
func TestBuildsSharedConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := plant(rng, 4)
	tp := p.tp
	ds := p.demands(rng)
	ds.DestinationIndex() // the demand set's own cache, built before it is shared
	views, opts := shapeScript(p, rng)
	sw, ck := fuzzColours(tp, p.swBlock, p.ckBlock, &ds)
	want, _ := freshPartition(tp, sw, ck, tp.NumCircuits())
	type answer struct {
		ok, sure bool
		load     []float64
		viol     Violation
		res      Result
	}
	run := func(q *Quotient, e *Evaluator) []answer {
		out := make([]answer, len(views))
		for i, v := range views {
			a := &out[i]
			a.ok, a.sure = q.Check(v, &ds, opts[i], nil)
			a.load = slices.Clone(q.load)
			a.res, a.viol = e.Evaluate(v, &ds, opts[i])
		}
		return out
	}
	ref := run(newQuotient(want), freshEvaluator(tp))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, ok := NewQuotient(tp, sw, ck, tp.NumCircuits())
			if !ok {
				t.Error("the build declined")
				return
			}
			for i, a := range run(q, NewEvaluator(tp)) {
				r := ref[i]
				if a.ok != r.ok || a.sure != r.sure || !sameBits(a.load, r.load) || a.viol != r.viol || a.res != r.res {
					t.Errorf("step %d: %+v, a fresh build %+v", i, a, r)
					return
				}
			}
		}()
	}
	wg.Wait()
}
