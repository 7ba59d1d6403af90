package routing

import (
	"math"
	"testing"
	"testing/quick"

	"klotski/internal/demand"
	"klotski/internal/topo"
)

// diamond builds: src —(c0)— m1 —(c2)— dst, src —(c1)— m2 —(c3)— dst.
func diamond() (*topo.Topology, []topo.SwitchID, []topo.CircuitID) {
	t := topo.New("diamond")
	src := t.AddSwitch(topo.Switch{Name: "src", Role: topo.RoleRSW})
	m1 := t.AddSwitch(topo.Switch{Name: "m1", Role: topo.RoleFSW})
	m2 := t.AddSwitch(topo.Switch{Name: "m2", Role: topo.RoleFSW})
	dst := t.AddSwitch(topo.Switch{Name: "dst", Role: topo.RoleSSW})
	c0 := t.AddCircuit(src, m1, 10)
	c1 := t.AddCircuit(src, m2, 10)
	c2 := t.AddCircuit(m1, dst, 10)
	c3 := t.AddCircuit(m2, dst, 10)
	return t, []topo.SwitchID{src, m1, m2, dst}, []topo.CircuitID{c0, c1, c2, c3}
}

func oneDemand(src, dst topo.SwitchID, rate float64) demand.Set {
	return demand.Set{Demands: []demand.Demand{{Name: "d", Src: src, Dst: dst, Rate: rate}}}
}

func TestECMPSplitsEqually(t *testing.T) {
	tp, sw, ck := diamond()
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 8)
	res, viol := e.Evaluate(tp.NewView(), &ds, CheckOpts{Theta: 0.9})
	if !viol.OK() {
		t.Fatalf("unexpected violation: %v", viol)
	}
	for _, c := range ck {
		ab, ba := e.CircuitLoad(c)
		if got := ab + ba; math.Abs(got-4) > 1e-9 {
			t.Errorf("circuit %d load = %v, want 4", c, got)
		}
	}
	if math.Abs(res.MaxUtil-0.4) > 1e-9 {
		t.Errorf("MaxUtil = %v, want 0.4", res.MaxUtil)
	}
}

func TestSinglePathWhenBranchDrained(t *testing.T) {
	tp, sw, ck := diamond()
	v := tp.NewView()
	v.DrainSwitch(sw[2]) // kill m2 branch
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 8)
	_, viol := e.Evaluate(v, &ds, CheckOpts{Theta: 0.9})
	if !viol.OK() {
		t.Fatalf("unexpected violation: %v", viol)
	}
	ab, ba := e.CircuitLoad(ck[0])
	if ab+ba != 8 {
		t.Errorf("surviving branch load = %v, want 8", ab+ba)
	}
	ab, ba = e.CircuitLoad(ck[1])
	if ab+ba != 0 {
		t.Errorf("drained branch load = %v, want 0", ab+ba)
	}
}

func TestUtilizationViolation(t *testing.T) {
	tp, sw, _ := diamond()
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 16) // 8 per branch = 0.8 util
	viol := e.Check(tp.NewView(), &ds, CheckOpts{Theta: 0.75})
	if viol.Kind != ViolationUtilization {
		t.Fatalf("want utilization violation, got %v", viol)
	}
	if viol.Util <= 0.75 {
		t.Errorf("violation util = %v, should exceed theta", viol.Util)
	}
}

func TestUnreachableDemand(t *testing.T) {
	tp, sw, _ := diamond()
	v := tp.NewView()
	v.DrainSwitch(sw[1])
	v.DrainSwitch(sw[2]) // dst fully cut off
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 1)
	viol := e.Check(v, &ds, CheckOpts{Theta: 0.75})
	if viol.Kind != ViolationUnreachable {
		t.Fatalf("want unreachable violation, got %v", viol)
	}
	if viol.Demand.Name != "d" {
		t.Errorf("violation should carry the demand, got %+v", viol.Demand)
	}
}

func TestInactiveEndpointsAreUnreachable(t *testing.T) {
	tp, sw, _ := diamond()
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 1)

	v := tp.NewView()
	v.DrainSwitch(sw[3]) // destination itself down
	if viol := e.Check(v, &ds, CheckOpts{}); viol.Kind != ViolationUnreachable {
		t.Errorf("inactive dst: got %v", viol)
	}
	v.Reset()
	v.DrainSwitch(sw[0]) // source down
	if viol := e.Check(v, &ds, CheckOpts{}); viol.Kind != ViolationUnreachable {
		t.Errorf("inactive src: got %v", viol)
	}
}

func TestPortViolation(t *testing.T) {
	tp, sw, _ := diamond()
	tp.SetPorts(sw[0], 1) // src has 2 active circuits
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 1)
	viol := e.Check(tp.NewView(), &ds, CheckOpts{Theta: 0.75})
	if viol.Kind != ViolationPorts || viol.Switch != sw[0] {
		t.Fatalf("want port violation on src, got %v", viol)
	}
}

func TestPortViolationRespectsView(t *testing.T) {
	tp, sw, ck := diamond()
	tp.SetPorts(sw[0], 1)
	v := tp.NewView()
	v.DrainCircuit(ck[1]) // now only 1 active circuit on src
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 1)
	if viol := e.Check(v, &ds, CheckOpts{Theta: 0.75}); !viol.OK() {
		t.Fatalf("port check should respect the view: %v", viol)
	}
}

func TestEvaluateReportsResultDespitePortViolation(t *testing.T) {
	tp, sw, _ := diamond()
	tp.SetPorts(sw[0], 1)
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 8)
	res, viol := e.Evaluate(tp.NewView(), &ds, CheckOpts{Theta: 0.75})
	if viol.Kind != ViolationPorts {
		t.Fatalf("want port violation, got %v", viol)
	}
	if res.MaxUtil == 0 {
		t.Error("Evaluate should still place traffic for ranking")
	}
}

func TestMetricShiftsPaths(t *testing.T) {
	tp, sw, ck := diamond()
	// Make the m1 branch cost 2+2=4 while m2 stays 1+1=2: all traffic
	// should take m2.
	tp.SetMetric(ck[0], 2)
	tp.SetMetric(ck[2], 2)
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 8)
	if _, viol := e.Evaluate(tp.NewView(), &ds, CheckOpts{Theta: 0.9}); !viol.OK() {
		t.Fatalf("violation: %v", viol)
	}
	if ab, ba := e.CircuitLoad(ck[0]); ab+ba != 0 {
		t.Errorf("expensive branch should be idle, carries %v", ab+ba)
	}
	if ab, ba := e.CircuitLoad(ck[1]); ab+ba != 8 {
		t.Errorf("cheap branch should carry 8, got %v", ab+ba)
	}
}

func TestMetricTieSplitsAcrossMixedHopCounts(t *testing.T) {
	// src—(metric 2)—dst  versus  src—m—dst with metric 1+1: equal cost,
	// ECMP must use both. This is the DMAG layer-insertion situation.
	tp := topo.New("mixed")
	src := tp.AddSwitch(topo.Switch{Name: "src", Role: topo.RoleFAUU})
	m := tp.AddSwitch(topo.Switch{Name: "ma", Role: topo.RoleMA})
	dst := tp.AddSwitch(topo.Switch{Name: "eb", Role: topo.RoleEB})
	direct := tp.AddCircuit(src, dst, 10)
	tp.SetMetric(direct, 2)
	up := tp.AddCircuit(src, m, 10)
	down := tp.AddCircuit(m, dst, 10)
	e := NewEvaluator(tp)
	ds := oneDemand(src, dst, 8)
	if _, viol := e.Evaluate(tp.NewView(), &ds, CheckOpts{Theta: 0.9}); !viol.OK() {
		t.Fatalf("violation: %v", viol)
	}
	if ab, ba := e.CircuitLoad(direct); ab+ba != 4 {
		t.Errorf("direct path should carry 4, got %v", ab+ba)
	}
	if ab, ba := e.CircuitLoad(up); ab+ba != 4 {
		t.Errorf("detour should carry 4, got %v", ab+ba)
	}
	if ab, ba := e.CircuitLoad(down); ab+ba != 4 {
		t.Errorf("detour second hop should carry 4, got %v", ab+ba)
	}
}

func TestFunnelingTightensBound(t *testing.T) {
	tp, sw, ck := diamond()
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 8) // 0.4 util per branch
	opts := CheckOpts{Theta: 0.75, FunnelFactor: 2, FunnelCircuits: []topo.CircuitID{ck[0]}}
	viol := e.Check(tp.NewView(), &ds, opts)
	if viol.Kind != ViolationUtilization || viol.Circuit != ck[0] {
		t.Fatalf("funneled circuit should violate 0.375 bound at 0.4 util, got %v", viol)
	}
	// Without funneling the same state passes.
	if viol := e.Check(tp.NewView(), &ds, CheckOpts{Theta: 0.75}); !viol.OK() {
		t.Fatalf("state should pass without funneling: %v", viol)
	}
	// Funnel flags must not leak into the next call.
	if viol := e.Check(tp.NewView(), &ds, CheckOpts{Theta: 0.75}); !viol.OK() {
		t.Fatalf("funnel flags leaked: %v", viol)
	}
}

func TestBidirectionalDemandsShareCapacity(t *testing.T) {
	tp, sw, ck := diamond()
	e := NewEvaluator(tp)
	ds := demand.Set{Demands: []demand.Demand{
		{Name: "fwd", Src: sw[0], Dst: sw[3], Rate: 8},
		{Name: "rev", Src: sw[3], Dst: sw[0], Rate: 8},
	}}
	if _, viol := e.Evaluate(tp.NewView(), &ds, CheckOpts{Theta: 0.9}); !viol.OK() {
		t.Fatalf("violation: %v", viol)
	}
	ab, ba := e.CircuitLoad(ck[0])
	if ab != 4 || ba != 4 {
		t.Errorf("directional loads = %v/%v, want 4/4", ab, ba)
	}
}

func TestDefaultThetaIs075(t *testing.T) {
	tp, sw, _ := diamond()
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 15.2) // 0.76 per branch
	if viol := e.Check(tp.NewView(), &ds, CheckOpts{}); viol.Kind != ViolationUtilization {
		t.Fatalf("zero theta should default to 0.75, got %v", viol)
	}
	ds = oneDemand(sw[0], sw[3], 14.8) // 0.74 per branch
	if viol := e.Check(tp.NewView(), &ds, CheckOpts{}); !viol.OK() {
		t.Fatalf("0.74 should pass at default theta: %v", viol)
	}
}

func TestEvaluatorReuseIsClean(t *testing.T) {
	tp, sw, ck := diamond()
	e := NewEvaluator(tp)
	ds := oneDemand(sw[0], sw[3], 8)
	for i := 0; i < 3; i++ {
		res, viol := e.Evaluate(tp.NewView(), &ds, CheckOpts{Theta: 0.9})
		if !viol.OK() || math.Abs(res.MaxUtil-0.4) > 1e-9 {
			t.Fatalf("iteration %d: res=%+v viol=%v", i, res, viol)
		}
	}
	if e.Checks != 3 {
		t.Errorf("Checks = %d, want 3", e.Checks)
	}
	_ = ck
}

func TestCloneEvaluator(t *testing.T) {
	tp, sw, _ := diamond()
	e := NewEvaluator(tp)
	c := e.Fork()
	ds := oneDemand(sw[0], sw[3], 8)
	if viol := c.Check(tp.NewView(), &ds, CheckOpts{}); !viol.OK() {
		t.Fatalf("forked evaluator broken: %v", viol)
	}
	if e.Checks != 0 {
		t.Error("fork must not share counters")
	}
}

func TestViolationStrings(t *testing.T) {
	cases := []Violation{
		{},
		{Kind: ViolationUnreachable, Demand: demand.Demand{Name: "x"}},
		{Kind: ViolationUtilization, Circuit: 3, Util: 0.9},
		{Kind: ViolationPorts, Switch: 7},
	}
	for _, v := range cases {
		if v.String() == "" {
			t.Errorf("empty String for %v", v.Kind)
		}
	}
	if !(Violation{}).OK() {
		t.Error("zero violation should be OK")
	}
}

// Property: total load on circuits incident to the destination equals the
// total demand rate (flow conservation), for random diamond-mesh demands.
func TestFlowConservation(t *testing.T) {
	tp, sw, _ := diamond()
	e := NewEvaluator(tp)
	f := func(r1, r2 uint8) bool {
		rate1, rate2 := float64(r1)+1, float64(r2)+1
		ds := demand.Set{Demands: []demand.Demand{
			{Name: "a", Src: sw[0], Dst: sw[3], Rate: rate1},
			{Name: "b", Src: sw[1], Dst: sw[3], Rate: rate2},
		}}
		if _, viol := e.Evaluate(tp.NewView(), &ds, CheckOpts{Theta: 1e9}); viol.Kind == ViolationUnreachable {
			return false
		}
		into := 0.0
		for _, cid := range tp.Switch(sw[3]).Circuits() {
			ab, ba := e.CircuitLoad(cid)
			into += ab + ba
		}
		return math.Abs(into-(rate1+rate2)) < 1e-9*(rate1+rate2+1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: loads scale linearly with demand rates.
func TestLoadLinearity(t *testing.T) {
	tp, sw, ck := diamond()
	e := NewEvaluator(tp)
	f := func(r uint8) bool {
		rate := float64(r%100) + 1
		ds := oneDemand(sw[0], sw[3], rate)
		e.Evaluate(tp.NewView(), &ds, CheckOpts{Theta: 1e9})
		ab, ba := e.CircuitLoad(ck[0])
		return math.Abs((ab+ba)-rate/2) < 1e-9*rate
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkCheckDiamond(b *testing.B) {
	tp, sw, _ := diamond()
	e := NewEvaluator(tp)
	v := tp.NewView()
	ds := oneDemand(sw[0], sw[3], 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if viol := e.Check(v, &ds, CheckOpts{Theta: 0.9}); !viol.OK() {
			b.Fatal(viol)
		}
	}
}
