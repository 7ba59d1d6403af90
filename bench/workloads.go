package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"klotski"
	"klotski/bench/spawn"
	"klotski/internal/npd"
)

// opStat is what one op cost. A failed op has no opStat.
type opStat struct {
	variant int     // which kind of op this was, 0 when the workload has one
	wall    float64 // seconds
	cpu     float64 // seconds of user+sys CPU; negative when this op closes no CPU sample
	rssKB   int64   // peak resident set of the op's process; 0 when taken at the end of the run
}

// runner is a workload that has been set up and can execute ops.
type runner interface {
	// op executes op i (negative during warm-up) and checks its output.
	// An error is a failed op.
	op(ctx context.Context, i int) (opStat, error)
	// finish runs after the measured phase: checks that need not run per
	// op, and a peak RSS that is only known at the end (0 otherwise).
	finish(ctx context.Context) (rssKB int64, err error)
	// close stops whatever setup started and waits for it to end.
	close()
}

// workload is one named traffic mix. Op counts are fixed, not time-boxed,
// so totals and peak memory compare across commits; baseOps is sized for
// about 25 s of measured phase on a 2-vCPU machine and scales with
// -seconds.
type workload struct {
	name     string
	baseOps  int
	variants int
	// traceReps is how often the traced run repeats each timing, sized
	// like baseOps; at least 20, more where a repeat is cheap.
	traceReps int
	// setup generates the inputs into dir from the seed and returns the
	// ready runner. It is timed: setup_s is the lower quartile of several calls.
	setup func(ctx context.Context, e *env, dir string, seed int64, ops int) (runner, error)
}

var workloads = []workload{
	{name: "plan-large", baseOps: 100, variants: 1, traceReps: 20, setup: setupPlanLarge},
	{name: "replan-chaos", baseOps: 100, variants: len(chaosSeeds), traceReps: 25, setup: setupReplanChaos},
	{name: "fleet-mixed", baseOps: 150, variants: 1, traceReps: 20, setup: setupFleetMixed},
	{name: "daemon-burst", baseOps: 200, variants: 1, traceReps: 60, setup: setupDaemonBurst},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// topogen writes the NPD document of one suite fabric into dir.
func (e *env) topogenInto(dir, suite string) error {
	_, _, err := e.sp.Run(dir, e.topogen, "-suite", suite, "-scale", suiteScale, "-o", suite+".json")
	return err
}

// checkPlanDoc parses a plan document and compares it with the pinned plan.
func checkPlanDoc(data []byte, want expectedPlan) (*npd.PlanDocument, error) {
	doc, err := npd.DecodePlan(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	if doc.Cost != want.Cost || doc.Actions != want.Actions {
		return nil, fmt.Errorf("plan has cost %g in %d actions, pinned %g in %d", doc.Cost, doc.Actions, want.Cost, want.Actions)
	}
	return doc, nil
}

func (e *env) pinned(fabric, planner string) (expectedPlan, error) {
	p, ok := e.expected.Fabrics[fabric][planner]
	if !ok {
		return expectedPlan{}, fmt.Errorf("expected.json pins no plan for %s/%s", fabric, planner)
	}
	return p, nil
}

// removeOutput deletes what the previous op wrote, so that a process which
// exits 0 without writing its output cannot pass on the old file.
func removeOutput(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	return nil
}

// planOp is the shared shape of the two single-plan CLI workloads: a cold
// klotski process that must write the same pinned plan document every time.
type planOp struct {
	e       *env
	dir     string
	fabric  string
	planner string
	want    expectedPlan
	ref     []byte // plan document of the first op
}

func (p *planOp) run(args ...string) (spawn.Stat, []byte, error) {
	out := filepath.Join(p.dir, "plan.json")
	if err := removeOutput(out); err != nil {
		return spawn.Stat{}, nil, err
	}
	st, stderr, err := p.e.sp.Run(p.dir, p.e.klotski, args...)
	if err != nil {
		return st, stderr, err
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return st, stderr, err
	}
	if p.ref == nil {
		if _, err := checkPlanDoc(data, p.want); err != nil {
			return st, stderr, err
		}
		p.ref = data
	} else if !bytes.Equal(data, p.ref) {
		return st, stderr, fmt.Errorf("plan document differs from the run's first op")
	}
	return st, stderr, nil
}

// audit re-verifies the run's plan on a task built afresh from the NPD
// file, inside this process: the check does not trust the exit status of
// the program that wrote the plan.
func (p *planOp) audit() error {
	if p.ref == nil {
		return fmt.Errorf("no op produced a plan to audit")
	}
	f, err := os.Open(filepath.Join(p.dir, p.fabric+".json"))
	if err != nil {
		return err
	}
	defer f.Close()
	doc, err := klotski.LoadNPD(f)
	if err != nil {
		return err
	}
	scenario, err := doc.Scenario()
	if err != nil {
		return err
	}
	planDoc, err := npd.DecodePlan(bytes.NewReader(p.ref))
	if err != nil {
		return err
	}
	seq, err := planSequence(scenario.Task, planDoc)
	if err != nil {
		return err
	}
	rep, err := klotski.AuditPlan(scenario.Task, seq, klotski.Options{AuditSerial: true}, false)
	if err != nil {
		return err
	}
	if !rep.Passed {
		return fmt.Errorf("independent audit failed: %s", rep)
	}
	return nil
}

// planSequence maps a plan document's block names back to block IDs.
func planSequence(task *klotski.Task, doc *npd.PlanDocument) ([]int, error) {
	byName := make(map[string]int, len(task.Blocks))
	for i := range task.Blocks {
		byName[task.Blocks[i].Name] = i
	}
	var seq []int
	for _, ph := range doc.Phases {
		for _, name := range ph.Blocks {
			id, ok := byName[name]
			if !ok {
				return nil, fmt.Errorf("plan block %q is not in the task", name)
			}
			seq = append(seq, id)
		}
	}
	return seq, nil
}

// plan-large

type planLarge struct{ planOp }

func setupPlanLarge(ctx context.Context, e *env, dir string, _ int64, _ int) (runner, error) {
	const fabric, planner = "E", "astar"
	if err := e.topogenInto(dir, fabric); err != nil {
		return nil, err
	}
	want, err := e.pinned(fabric, planner)
	if err != nil {
		return nil, err
	}
	return &planLarge{planOp{e: e, dir: dir, fabric: fabric, planner: planner, want: want}}, nil
}

func (p *planLarge) op(ctx context.Context, _ int) (opStat, error) {
	// -gap-max 0 makes the process itself fail unless the plan is
	// certified optimal; it adds no work.
	st, _, err := p.run("-npd", p.fabric+".json", "-planner", p.planner, "-workers", "1", "-gap-max", "0", "-o", "plan.json")
	return opStat{wall: st.Wall, cpu: st.CPU, rssKB: st.RSSKB}, err
}

func (p *planLarge) finish(context.Context) (int64, error) { return 0, p.audit() }
func (p *planLarge) close()                                {}

// replan-chaos

type replanChaos struct {
	planOp
	schedule []int    // op → index into chaosSeeds
	lines    []string // campaign line of each chaos seed's first op
}

func setupReplanChaos(ctx context.Context, e *env, dir string, seed int64, ops int) (runner, error) {
	const fabric, planner = "E-SSW", "astar"
	if err := e.topogenInto(dir, fabric); err != nil {
		return nil, err
	}
	want, err := e.pinned(fabric, planner)
	if err != nil {
		return nil, err
	}
	return &replanChaos{
		planOp:   planOp{e: e, dir: dir, fabric: fabric, planner: planner, want: want},
		schedule: chaosSchedule(seed, ops),
		lines:    make([]string, len(chaosSeeds)),
	}, nil
}

func (r *replanChaos) op(ctx context.Context, i int) (opStat, error) {
	// Warm-up ops (i < 0) walk the pool too.
	v := -i % len(chaosSeeds)
	if i >= 0 {
		v = r.schedule[i]
	}
	st, stderr, err := r.run("-npd", r.fabric+".json", "-workers", "1",
		"-chaos", "4", "-chaos-faults", "4", "-chaos-seed", strconv.FormatInt(chaosSeeds[v], 10),
		"-drift-threshold", "0.05", "-o", "plan.json")
	if err != nil {
		return opStat{}, err
	}
	line := campaignLine(stderr)
	switch {
	case !strings.Contains(line, " 100% completed,") || !strings.Contains(line, ", 0 boundary violations,"):
		return opStat{}, fmt.Errorf("chaos seed %d: campaign not clean: %q", chaosSeeds[v], line)
	case r.lines[v] == "":
		r.lines[v] = line
	case r.lines[v] != line:
		return opStat{}, fmt.Errorf("chaos seed %d: campaign line changed between ops: %q, first %q", chaosSeeds[v], line, r.lines[v])
	}
	return opStat{variant: v, wall: st.Wall, cpu: st.CPU, rssKB: st.RSSKB}, nil
}

// campaignLine picks the chaos campaign's summary out of klotski's stderr.
func campaignLine(stderr []byte) string {
	for _, line := range strings.Split(string(stderr), "\n") {
		if strings.HasPrefix(line, "chaos campaign over ") {
			return line
		}
	}
	return ""
}

func (r *replanChaos) finish(context.Context) (int64, error) { return 0, r.audit() }
func (r *replanChaos) close()                                {}

// fleet-mixed

type fleetMixed struct {
	e    *env
	dir  string
	want map[string]expectedPlan // member name → pinned plan
	cost float64                 // pinned total
}

// fleetReport is the part of klotski -fleet's report the checks read. The
// members' elapsed_ms is deliberately not among them: it is always 0 at
// this commit, and the harness times the op itself.
type fleetReport struct {
	Members []struct {
		Name      string  `json:"name"`
		Completed bool    `json:"completed"`
		Actions   int     `json:"actions"`
		Cost      float64 `json:"cost"`
		Gap       float64 `json:"gap"`
	} `json:"members"`
	Completed int     `json:"completed"`
	Failed    int     `json:"failed"`
	TotalCost float64 `json:"total_cost"`
}

func setupFleetMixed(ctx context.Context, e *env, dir string, seed int64, _ int) (runner, error) {
	f := &fleetMixed{e: e, dir: dir, want: make(map[string]expectedPlan)}
	for _, m := range fleetMembers {
		if err := e.topogenInto(dir, m.Name); err != nil {
			return nil, err
		}
		want, err := e.pinned(m.Name, m.Planner)
		if err != nil {
			return nil, err
		}
		f.want[m.Name] = want
		f.cost += want.Cost
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), fleetManifest(seed), 0o644); err != nil {
		return nil, err
	}
	return f, nil
}

func (f *fleetMixed) op(ctx context.Context, _ int) (opStat, error) {
	out := filepath.Join(f.dir, "report.json")
	if err := removeOutput(out); err != nil {
		return opStat{}, err
	}
	st, _, err := f.e.sp.Run(f.dir, f.e.klotski, "-fleet", "manifest.json", "-fleet-workers", "2", "-o", "report.json")
	if err != nil {
		return opStat{}, err
	}
	var rep fleetReport
	if err := readJSON(out, &rep); err != nil {
		return opStat{}, err
	}
	if rep.Completed != len(f.want) || rep.Failed != 0 || len(rep.Members) != len(f.want) || rep.TotalCost != f.cost {
		return opStat{}, fmt.Errorf("fleet report: %d completed, %d failed, total cost %g; want %d, 0, %g",
			rep.Completed, rep.Failed, rep.TotalCost, len(f.want), f.cost)
	}
	for _, m := range rep.Members {
		want, ok := f.want[m.Name]
		if !ok || !m.Completed || m.Gap != 0 || m.Cost != want.Cost || m.Actions != want.Actions {
			return opStat{}, fmt.Errorf("fleet member %+v does not match its pinned plan %+v", m, want)
		}
	}
	return opStat{wall: st.Wall, cpu: st.CPU, rssKB: st.RSSKB}, nil
}

func (f *fleetMixed) finish(context.Context) (int64, error) { return 0, nil }
func (f *fleetMixed) close()                                {}

// marshalIndent is json.MarshalIndent for values that cannot fail to encode.
func marshalIndent(v any) []byte {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err)
	}
	return b
}
