package klotski_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"klotski"
	"klotski/internal/migration"
	"klotski/internal/pipeline"
)

// buildTinyTask constructs a small migration entirely through the public
// API: two old bridges out, three new ones in, port-limited.
func buildTinyTask(t testing.TB) *klotski.Task {
	t.Helper()
	topo := klotski.NewTopology("api-test")
	src := topo.AddSwitch(klotski.Switch{Name: "src", Role: klotski.RoleRSW})
	dst := topo.AddSwitch(klotski.Switch{Name: "dst", Role: klotski.RoleEBB})
	task := &klotski.Task{Name: "api-swap", Topo: topo}
	d := task.AddType(klotski.ActionTypeInfo{Name: "drain", Op: klotski.Drain, Role: klotski.RoleFADU})
	u := task.AddType(klotski.ActionTypeInfo{Name: "undrain", Op: klotski.Undrain, Role: klotski.RoleFADU})
	for i := 0; i < 2; i++ {
		s := topo.AddSwitch(klotski.Switch{Name: "old" + string(rune('0'+i)), Role: klotski.RoleFADU, Generation: 1})
		topo.AddCircuit(src, s, 1)
		topo.AddCircuit(s, dst, 1)
		task.AddBlock(klotski.Block{Type: d, Switches: []klotski.SwitchID{s}})
	}
	for i := 0; i < 3; i++ {
		s := topo.AddSwitch(klotski.Switch{Name: "new" + string(rune('0'+i)), Role: klotski.RoleFADU, Generation: 2})
		topo.SetSwitchActive(s, false)
		topo.AddCircuit(src, s, 1)
		topo.AddCircuit(s, dst, 1)
		task.AddBlock(klotski.Block{Type: u, Switches: []klotski.SwitchID{s}})
	}
	topo.SetPorts(src, 3)
	task.Demands.Add(klotski.Demand{Name: "d", Src: src, Dst: dst, Rate: 1.0})
	return task
}

func TestPublicAPIPlanAuditExecute(t *testing.T) {
	task := buildTinyTask(t)
	plan, err := klotski.PlanAStar(task, klotski.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := klotski.VerifyPlan(task, plan.Sequence, klotski.Options{}); err != nil {
		t.Fatal(err)
	}
	rep, err := klotski.NewExecutor(task).Execute(plan.Sequence, klotski.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.BoundaryViolations != 0 {
		t.Fatalf("execution: %s", rep)
	}
}

func TestPublicAPIAllPlannersAgree(t *testing.T) {
	task := buildTinyTask(t)
	opt, err := klotski.PlanAStar(task, klotski.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dp, err := klotski.PlanDP(task, klotski.Options{}); err != nil || math.Abs(dp.Cost-opt.Cost) > 1e-9 {
		t.Fatalf("DP: %v / %v", dp, err)
	}
	if j, err := klotski.PlanJanus(task, klotski.Options{}); err != nil || math.Abs(j.Cost-opt.Cost) > 1e-9 {
		t.Fatalf("Janus: %v / %v", j, err)
	}
	mrc, err := klotski.PlanMRC(task, klotski.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mrc.Cost < opt.Cost-1e-9 {
		t.Fatalf("MRC %v beat optimal %v", mrc.Cost, opt.Cost)
	}
}

func TestPublicAPISuiteAndSymmetry(t *testing.T) {
	s, err := klotski.Suite("A", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	sym := migration.SymmetryGranularity(s.Task)
	if sym.NumActions() < s.Task.NumActions() {
		t.Errorf("symmetry granularity should not coarsen: %d vs %d",
			sym.NumActions(), s.Task.NumActions())
	}
	var ops []klotski.SwitchID
	for _, b := range s.Task.Blocks {
		ops = append(ops, b.Switches...)
	}
	blocks := migration.StrictSymmetryBlocks(s.Task.Topo, ops)
	if len(blocks) == 0 {
		t.Fatal("no symmetry blocks")
	}
}

func TestPublicAPINPDPipeline(t *testing.T) {
	js := `{
		"version": 1,
		"name": "api-region",
		"fabric": [{"dc": 0, "pods": 2, "rswPerPod": 2, "planes": 4, "sswPerPlane": 2, "fswUplinks": 1}],
		"hgrid": {"grids": 4, "faduPerGrid": 2, "fauuPerGrid": 1, "sswDownlinks": 1},
		"eb": {"count": 2, "linkTbps": 40},
		"dr": {"count": 1, "linkTbps": 80},
		"bb": {"ebbs": 1},
		"migration": {"kind": "hgrid-v1-v2"}
	}`
	doc, err := klotski.LoadNPD(bytes.NewReader([]byte(js)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Run(doc, klotski.PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Document.Phases) == 0 {
		t.Fatal("pipeline produced no phases")
	}
	var buf bytes.Buffer
	if err := res.Document.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty plan document")
	}
}

func TestPublicAPIErrorsAreMatchable(t *testing.T) {
	task := buildTinyTask(t)
	task.Demands.Demands[0].Rate = 100
	if _, err := klotski.PlanAStar(task, klotski.Options{}); !errors.Is(err, klotski.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	task2 := buildTinyTask(t)
	task2.TopologyChanging = true
	if _, err := klotski.PlanMRC(task2, klotski.Options{}); !errors.Is(err, klotski.ErrUnsupported) {
		t.Fatalf("want ErrUnsupported, got %v", err)
	}
}

func TestPublicAPIReblockFactors(t *testing.T) {
	s, err := klotski.Suite("B", 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0.5, 2} {
		rb, err := migration.Reblock(s.Task, f)
		if err != nil {
			t.Fatalf("factor %v: %v", f, err)
		}
		if rb.NumSwitchOps() != s.Task.NumSwitchOps() {
			t.Errorf("factor %v changed switch ops", f)
		}
	}
}
