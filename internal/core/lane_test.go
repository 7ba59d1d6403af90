package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"klotski/internal/demand"
	"klotski/internal/gen"
	"klotski/internal/migration"
	"klotski/internal/routing"
	"klotski/internal/topo"
)

// laneAudit holds every state the lane rejects before routing to the full
// check while it is installed as laneRejectHook: the evaluator must reject
// it too, with a port violation exactly when the lane's verdict was the port
// budget. It keeps one evaluator per topology, following the views it is
// handed by content as any evaluator does. The hook runs on the planner's
// goroutine, and the test plans one task at a time.
type laneAudit struct {
	evals    map[*topo.Topology]*routing.Evaluator
	ports    int
	cuts     int
	disagree []string

	// Per fabric (the label) and cut: the cut rejections in which the cut is
	// overloaded, and those in which it is the only overloaded cut.
	fabric         string
	catches, alone map[[2]string]int
}

func (c cutDesc) String() string {
	if c.dc < 0 {
		return fmt.Sprintf("region ≤ %s", c.role)
	}
	return fmt.Sprintf("DC %d ≤ %s", c.dc, c.role)
}

// overloadedCuts lists every live cut the lane's state overloads, where the
// lane itself stops at the first.
func overloadedCuts(ln *lane, copts routing.CheckOpts) uint64 {
	var over uint64
	for x := ln.sp.cuts.live; x != 0; x &= x - 1 {
		if k := bits.TrailingZeros64(x); ln.overloaded(k, copts.Scale(), copts.Theta) {
			over |= 1 << k
		}
	}
	return over
}

// install sets the audit as the lane's reject hook for the rest of the test.
func (a *laneAudit) install(t *testing.T) {
	a.evals = map[*topo.Topology]*routing.Evaluator{}
	a.catches = map[[2]string]int{}
	a.alone = map[[2]string]int{}
	laneRejectHook = a.check
	t.Cleanup(func() { laneRejectHook = nil })
}

func (a *laneAudit) check(ln *lane, copts routing.CheckOpts, port bool) {
	t := ln.view.Topology()
	ev := a.evals[t]
	if ev == nil {
		ev = routing.NewEvaluator(t)
		a.evals[t] = ev
	}
	viol := ev.Check(ln.view, ln.sp.demands, copts)
	what := "port budget"
	if port {
		a.ports++
	} else {
		a.cuts++
		over := overloadedCuts(ln, copts)
		what = "cut " + ln.sp.cuts.desc[bits.TrailingZeros64(over)].String()
		for x := over; x != 0; x &= x - 1 {
			key := [2]string{a.fabric, ln.sp.cuts.desc[bits.TrailingZeros64(x)].String()}
			a.catches[key]++
			if over&(over-1) == 0 {
				a.alone[key]++
			}
		}
	}
	switch {
	case viol.OK():
		a.disagree = append(a.disagree, fmt.Sprintf("%s at %v: the full check passes", what, ln.curVec))
	case port != (viol.Kind == routing.ViolationPorts):
		a.disagree = append(a.disagree, fmt.Sprintf("%s at %v: the full check answers %v", what, ln.curVec, viol))
	}
}

// TestLaneRejectionsAgreeWithChecker holds both pre-routing verdicts to the
// full check on every state the lane rejects, over every suite fabric at
// ×0.25 (E-DMAG's blocks operate circuits of their own) and over paper-sized
// E once, under both planners and under ECMP, WCMP, funneling headroom and a
// demand growth forecast. The run must reject states of both kinds: a hook
// that is never called checks nothing. It logs, per fabric and cut, the cut
// rejections in which the cut is overloaded and those in which it is alone.
func TestLaneRejectionsAgreeWithChecker(t *testing.T) {
	var a laneAudit
	a.install(t)
	type variant struct {
		name string
		opts Options
		grow float64
	}
	variants := []variant{
		{"ecmp", Options{}, 0},
		{"wcmp", Options{Split: routing.SplitCapacityWeighted}, 0},
		{"funnel2", Options{FunnelFactor: 2}, 0},
		{"forecast", Options{}, 0.004},
	}
	planners := []struct {
		name string
		run  func(*migration.Task, Options) (*Plan, error)
	}{{"astar", PlanAStar}, {"dp", PlanDP}}
	type fabric struct {
		name  string
		scale float64
	}
	fabrics := []fabric{}
	for _, name := range gen.SuiteNames() {
		fabrics = append(fabrics, fabric{name, 0.25})
	}
	if !testing.Short() {
		fabrics = append(fabrics, fabric{"E", 1})
	}
	for _, fb := range fabrics {
		s, err := gen.Suite(fb.name, fb.scale)
		if err != nil {
			t.Fatal(err)
		}
		a.fabric = fmt.Sprintf("%s×%g", fb.name, fb.scale)
		for _, v := range variants {
			for _, pl := range planners {
				if fb.scale == 1 && (pl.name != "astar" || v.name != "ecmp") {
					continue
				}
				task := s.Task
				if v.grow != 0 {
					task = task.WithForecast(demand.Forecast{GrowthPerStep: v.grow})
				}
				opts := v.opts
				opts.SkipAudit = true
				opts.MaxStates = 200_000
				before := a.ports + a.cuts
				p, err := pl.run(task, opts)
				var m Metrics
				if p != nil {
					m = p.Metrics
				}
				t.Logf("%s %s %s: %v; %d checks, %d port and %d cut rejections",
					a.fabric, v.name, pl.name, err, m.Checks, m.PortRejects, m.CutRejects)
				if p != nil && m.PortRejects+m.CutRejects != a.ports+a.cuts-before {
					t.Errorf("%s %s %s: metrics count %d rejections, the hook saw %d",
						a.fabric, v.name, pl.name, m.PortRejects+m.CutRejects, a.ports+a.cuts-before)
				}
			}
		}
	}
	for _, d := range a.disagree {
		t.Error(d)
	}
	if a.ports == 0 || a.cuts == 0 {
		t.Fatalf("%d port and %d cut rejections seen: the hook checked nothing of one kind", a.ports, a.cuts)
	}
	keys := make([][2]string, 0, len(a.catches))
	for k := range a.catches {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		t.Logf("%s cut %s: overloaded in %d cut rejections, alone in %d", k[0], k[1], a.catches[k], a.alone[k])
	}
	t.Logf("%d port and %d cut rejections, %d disagreements", a.ports, a.cuts, len(a.disagree))
}

// recountLane recounts what the lane keeps by deltas from the view alone:
// each switch's up-degree, the switches over their port budget, and each
// live cut's up capacity in the family's fixed point, with cut membership
// tested against the cut's definition rather than the membership words.
func recountLane(sp *space, v *topo.View) (deg []int32, over int, caps [maxCuts]int64) {
	t := sp.task.Topo
	in := func(k int, s topo.SwitchID) bool {
		c, sw := sp.cuts.desc[k], t.Switch(s)
		return sw.Role <= c.role && (c.dc < 0 || sw.DC == c.dc)
	}
	deg = make([]int32, t.NumSwitches())
	for i := range deg {
		s := topo.SwitchID(i)
		deg[i] = int32(v.ActiveDegree(s))
		if p := t.Switch(s).Ports; p > 0 && v.ActiveDegree(s) > p {
			over++
		}
	}
	for k := 0; k < maxCuts; k++ {
		if sp.cuts.live>>k&1 == 0 {
			continue
		}
		for c := 0; c < t.NumCircuits(); c++ {
			cc := t.Circuit(topo.CircuitID(c))
			if v.CircuitUp(cc.ID) && in(k, cc.A) != in(k, cc.B) {
				caps[k] += sp.cuts.units(cc.Capacity)
			}
		}
	}
	return deg, over, caps
}

// FuzzLaneCounts applies and reverts random blocks through the lane's
// buildView, on a seeded random HGRID fabric when kind is even and on E-DMAG
// (whose drain blocks operate circuits and no switch) when it is odd, and
// after every move cross-checks the lane's per-switch up-degree, over-budget
// count and per-cut up capacity against recountLane, and its view against a
// rebuild.
func FuzzLaneCounts(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(20261015), uint8(1))
	f.Add(int64(-3), uint8(2))
	f.Add(int64(7), uint8(255))
	dmag, err := gen.EDMAG(0.05)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8) {
		rng := rand.New(rand.NewSource(seed))
		task := dmag.Task
		if kind%2 == 0 {
			p := gen.HGRIDScenarioParams{
				Region: gen.RegionParams{
					Name: "lanefuzz",
					DCs: []gen.FabricParams{{
						Pods: 1 + rng.Intn(2), RSWPerPod: 2, Planes: 4,
						SSWPerPlane: 1 + rng.Intn(2), FSWUplinks: 1,
					}, {
						Pods: 1 + rng.Intn(2), RSWPerPod: 2, Planes: 4,
						SSWPerPlane: 1 + rng.Intn(2), FSWUplinks: 1 + rng.Intn(2),
					}}[:1+rng.Intn(2)],
					HGRID: gen.HGRIDParams{Grids: 2 + rng.Intn(3), FADUPerGrid: 1 + rng.Intn(2),
						FAUUPerGrid: 1, SSWDownlinks: 1},
					EBs: 2, DRs: 1, EBBs: 1,
				},
				V2GridFactor: 1 + rng.Intn(2),
				SplitRoles:   rng.Intn(2) == 0,
			}
			s, err := gen.HGRIDScenario(p.Region.Name, p)
			if err != nil {
				t.Skip(err)
			}
			task = s.Task
		}
		sp, err := newSpace(task, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sp.ports == nil || sp.cuts.live == 0 {
			t.Fatalf("%s: %v port budgets, live cuts %b: the fuzz would cross-check nothing", task.Name, sp.ports != nil, sp.cuts.live)
		}
		ref := task.Topo.NewView()
		ln := sp.ln
		vec := make([]uint16, sp.nTypes)
		for step := 0; step < 120; step++ {
			// Mostly one block on or back, now and then a jump.
			if rng.Intn(8) == 0 {
				for ty := range vec {
					vec[ty] = uint16(rng.Intn(int(sp.totals[ty]) + 1))
				}
			} else if ty := rng.Intn(sp.nTypes); rng.Intn(2) == 0 && vec[ty] < sp.totals[ty] {
				vec[ty]++
			} else if vec[ty] > 0 {
				vec[ty]--
			}
			ln.buildView(vec)
			ref.Reset()
			for ty := range vec {
				for _, id := range task.BlocksOfType(migration.ActionType(ty))[:vec[ty]] {
					task.Apply(ref, id)
				}
			}
			if !ln.view.Equal(ref) {
				t.Fatalf("step %d vec %v: lane view differs from a rebuild", step, vec)
			}
			deg, over, caps := recountLane(sp, ref)
			for s := range deg {
				if ln.deg[s] != deg[s] {
					t.Fatalf("step %d vec %v: switch %d up-degree %d, recount %d", step, vec, s, ln.deg[s], deg[s])
				}
			}
			if ln.nOver != over {
				t.Fatalf("step %d vec %v: %d switches over budget, recount %d", step, vec, ln.nOver, over)
			}
			if ln.cutCap != caps {
				t.Fatalf("step %d vec %v: cut capacities %v, recount %v", step, vec, ln.cutCap, caps)
			}
		}
	})
}
