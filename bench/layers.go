package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"klotski/internal/core"
	"klotski/internal/migration"
	"klotski/internal/npd"
	"klotski/internal/obs"
	"klotski/internal/pipeline"
	"klotski/internal/routing"
)

// The traced run (-trace 1) attributes a workload's op to the repository's
// layers from outside the program: the harness replays the op in this
// process, calling each layer's public functions itself and recording a
// span around every call, and probes single layers with the workload's own
// inputs. Every timing it reports is the fastest of reps repeats.
//
// The planning layers (npd, gen, topo, migration, routing, core, bound,
// audit, pipeline) are probed on every workload, on the workload's primary
// fabric. The sched, ctrl, sim and serve metrics come from the replay of
// the workload's own op and stay 0 where that op never enters the layer.

// primary is the fabric and planner each workload's planning-layer probes
// run on: the one that carries most of its op.
var primary = map[string]daemonJob{
	"plan-large":   {Fabric: "E", Planner: "astar"},
	"replan-chaos": {Fabric: "E-SSW", Planner: "astar"},
	"fleet-mixed":  {Fabric: "E-SSW", Planner: "dp"},
	"daemon-burst": {Fabric: "D", Planner: "astar"},
}

// cliOptions are the planning options the klotski CLI derives from the
// flags the workloads pass: -workers N and the default -timeout.
func cliOptions(workers int) core.Options {
	return core.Options{Workers: workers, Timeout: 5 * time.Minute}
}

// taskOf builds the migration task an NPD document describes.
func taskOf(npdDoc []byte) (*migration.Task, error) {
	doc, err := npd.Decode(bytes.NewReader(npdDoc))
	if err != nil {
		return nil, err
	}
	scenario, err := doc.Scenario()
	if err != nil {
		return nil, err
	}
	return scenario.Task, nil
}

type planFunc func(context.Context, *migration.Task, core.Options) (*core.Plan, error)

func plannerFor(name string) planFunc {
	if name == "dp" {
		return core.PlanDPContext
	}
	return core.PlanAStarContext
}

// layerRun is one traced run in progress.
type layerRun struct {
	ctx  context.Context
	e    *env
	w    workload
	seed int64
	reps int
	dir  string

	opTrace    *tracer // spans of the workload's own op, replayed
	probeTrace *tracer // spans of the single-plan probe, where that is not the op

	res *result
}

// set records a per-layer metric. Only names BENCHMARK.json declares exist.
func (l *layerRun) set(name string, v float64) {
	m, ok := l.res.Metrics[name]
	if !ok {
		panic("bench: per-layer metric " + name + " is not declared in BENCHMARK.json")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		l.res.problem("%s is not a number", name)
		v = 0
	}
	m.Value = v
	l.res.Metrics[name] = m
}

// did counts one replay or probe as an attempted op, failed when err is
// set, and reports whether it succeeded.
func (l *layerRun) did(what string, err error) bool {
	l.res.Attempted++
	if err != nil {
		l.res.Failed++
		l.res.problem("%s: %v", what, err)
		return false
	}
	return true
}

// fastest runs f reps times and returns the shortest duration in seconds.
// It stops at the first error.
func (l *layerRun) fastest(what string, f func() error) float64 {
	return l.fastestOf(what, l.reps, func() (float64, error) {
		start := time.Now()
		err := f()
		return time.Since(start).Seconds(), err
	})
}

// fastestOf is fastest for a body that times itself.
func (l *layerRun) fastestOf(what string, n int, f func() (float64, error)) float64 {
	var xs []float64
	for i := 0; i < n && l.ctx.Err() == nil; i++ {
		d, err := f()
		if !l.did(what, err) {
			break
		}
		xs = append(xs, d)
	}
	if len(xs) == 0 {
		return 0
	}
	return floor(xs)
}

func runTraced(ctx context.Context, e *env, w workload, seed int64, seconds int) (*result, error) {
	l := &layerRun{
		ctx: ctx, e: e, w: w, seed: seed,
		reps:    max(3, int(math.Round(float64(w.traceReps*seconds)/baseSeconds))),
		opTrace: newTracer(),
		res:     &result{Workload: w.name, Seed: seed, Correct: true, Metrics: map[string]value{}, Info: map[string]value{}},
	}
	for _, m := range e.spec.PerLayer {
		l.res.Metrics[m.Name] = value{0, m.Unit}
	}
	var err error
	if l.dir, err = e.workDir(w.name + "-trace"); err != nil {
		return nil, err
	}

	// The real op first, through the same runner the untraced run uses:
	// it checks the outputs and gives the process-level floor the
	// in-process replay is compared with.
	run, err := w.setup(ctx, e, l.dir, seed, l.reps)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer run.close()
	if rc, ok := run.(*replanChaos); ok {
		// The traced run follows one kind of op: the pool's first seed.
		rc.schedule = make([]int, l.reps)
	}
	var real []float64
	for i := 0; i < l.reps && ctx.Err() == nil; i++ {
		st, err := run.op(ctx, i)
		if l.did("real op", err) {
			real = append(real, st.wall)
		}
	}
	if len(real) == 0 {
		return nil, fmt.Errorf("%s: no real op succeeded: %v", w.name, l.res.Problems)
	}

	var inproc, traced float64 // floors of the untraced and traced in-process op, seconds
	switch w.name {
	case "plan-large":
		inproc, traced = l.tracePlanLarge(run.(*planLarge))
	case "replan-chaos":
		inproc, traced = l.traceReplanChaos(run.(*replanChaos))
	case "fleet-mixed":
		inproc, traced = l.traceFleetMixed(run.(*fleetMixed))
	case "daemon-burst":
		inproc, traced = l.traceDaemonBurst(run.(*daemonBurst))
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if inproc > 0 {
		l.set("cli.process_overhead_ms", (floor(real)-inproc)*1e3)
		l.set("trace.overhead_share", (traced-inproc)/inproc)
	}
	l.set("trace.coverage_share", coverage(l.opTrace.spans))

	l.res.Info["repeats"] = value{float64(l.reps), "count"}
	l.res.Info["real_op_s_min"] = value{floor(real), "s"}
	l.res.Info["inproc_op_s_min"] = value{inproc, "s"}
	for name, s := range selfByName(l.opTrace.spans) {
		l.res.Info["self."+name] = value{s * 1e3, "ms"}
	}
	if err := l.writeTrace(); err != nil {
		return nil, err
	}
	return l.res, nil
}

// writeTrace dumps the spans collected in memory, once, at the end.
func (l *layerRun) writeTrace() error {
	doc := struct {
		Workload   string `json:"workload"`
		Seed       int64  `json:"seed"`
		OpSpans    []span `json:"op_spans"`
		ProbeSpans []span `json:"probe_spans,omitempty"`
	}{Workload: l.w.name, Seed: l.seed, OpSpans: l.opTrace.spans}
	if l.probeTrace != nil {
		doc.ProbeSpans = l.probeTrace.spans
	}
	return os.WriteFile(filepath.Join(l.e.out, l.w.name+".trace.json"), append(marshalIndent(doc), '\n'), 0o644)
}

// planReplay is what one in-process single-plan op produced.
type planReplay struct {
	task *migration.Task
	plan *core.Plan
	doc  *npd.PlanDocument
	out  []byte
}

// replayPlan is the single-plan CLI op done in this process, one call per
// layer boundary: decode → scenario → search → audit → plan document →
// encode. It is what klotski -npd … -o … does, minus the process.
func replayPlan(ctx context.Context, tr *tracer, op int, npdDoc []byte, planner string) (*planReplay, error) {
	root := tr.start("op", -1, op)
	defer tr.end(root)

	id := tr.start("npd.decode", root, op)
	doc, err := npd.Decode(bytes.NewReader(npdDoc))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("gen.scenario", root, op)
	scenario, err := doc.Scenario()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	task := scenario.Task
	opts := cliOptions(1)
	search := opts
	search.SkipAudit = true
	id = tr.start("core.search", root, op)
	plan, err := plannerFor(planner)(ctx, task, search)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("audit.verify", root, op)
	rep, err := core.AuditSequence(task, plan.Sequence, opts, false)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if !rep.Passed {
		return nil, fmt.Errorf("audit failed: %s", rep)
	}
	plan.Audit = rep
	id = tr.start("npd.plandoc", root, op)
	planDoc, err := npd.BuildPlanDocument(task, plan, opts)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	id = tr.start("npd.encode", root, op)
	err = planDoc.Encode(&buf)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &planReplay{task: task, plan: plan, doc: planDoc, out: buf.Bytes()}, nil
}

// planReplays replays the single-plan op on the workload's primary fabric
// reps times under tr, checking every plan document against the pinned
// plan. It returns the traced op's floor in seconds and the last replay.
func (l *layerRun) planReplays(tr *tracer, npdDoc []byte, kind daemonJob) (float64, *planReplay) {
	want, err := l.e.pinned(kind.Fabric, kind.Planner)
	if err != nil {
		l.did("pinned plan", err)
		return 0, nil
	}
	var last *planReplay
	op := 0
	tracedFloor := l.fastest("plan replay", func() error {
		r, err := replayPlan(l.ctx, tr, op, npdDoc, kind.Planner)
		op++
		if err != nil {
			return err
		}
		if _, err := checkPlanDoc(r.out, want); err != nil {
			return err
		}
		if last != nil && !bytes.Equal(last.out, r.out) {
			return fmt.Errorf("plan document differs between replays")
		}
		last = r
		return nil
	})
	return tracedFloor, last
}

// planLayers sets the planning-layer metrics from the spans planReplays
// recorded under tr and runs the single-layer probes on the task and plan
// of its last replay.
func (l *layerRun) planLayers(tr *tracer, npdDoc []byte, kind daemonJob, last *planReplay) {
	want, err := l.e.pinned(kind.Fabric, kind.Planner)
	if err != nil {
		l.did("pinned plan", err)
		return
	}
	ms := func(name string) float64 { return floor(durations(tr.spans, name)) * 1e3 }
	l.set("npd.decode_us", ms("npd.decode")*1e3)
	l.set("gen.scenario_ms", ms("gen.scenario"))
	l.set("core.search_ms", ms("core.search"))
	l.set("audit.verify_ms", ms("audit.verify"))
	l.set("npd.plandoc_us", ms("npd.plandoc")*1e3)

	task, plan := last.task, last.plan
	st := task.Topo.Stats()
	l.set("topo.switches", float64(st.Switches))
	l.set("topo.circuits", float64(st.Circuits))
	l.set("migration.blocks", float64(len(task.Blocks)))
	m := plan.Metrics
	l.set("core.states_expanded", float64(m.StatesPopped))
	l.set("core.states_created", float64(m.StatesCreated))
	l.set("core.checks", float64(m.Checks))
	if lookups := m.CacheHits + m.CacheMisses; lookups > 0 {
		l.set("core.cache_hit_share", float64(m.CacheHits)/float64(lookups))
	}
	l.set("audit.steps_checked", float64(plan.Audit.StatesChecked))
	searchUS := ms("core.search") * 1e3
	if m.Checks > 0 {
		l.set("core.us_per_check", searchUS/float64(m.Checks))
	}

	// fresh builds a task no search has touched, as every cold process
	// does; lazily built tables are then paid inside the timed call.
	fresh := func() (*migration.Task, error) { return taskOf(npdDoc) }
	planFn := plannerFor(kind.Planner)
	searchOpts := cliOptions(1)
	searchOpts.SkipAudit = true
	timedSearch := func(opts core.Options, keep func(*core.Plan)) func() (float64, error) {
		return func() (float64, error) {
			t, err := fresh()
			if err != nil {
				return 0, err
			}
			start := time.Now()
			p, err := planFn(l.ctx, t, opts)
			d := time.Since(start).Seconds()
			if err == nil && p.Cost != want.Cost {
				err = fmt.Errorf("plan cost %g, pinned %g", p.Cost, want.Cost)
			}
			if err == nil && keep != nil {
				keep(p)
			}
			return d, err
		}
	}

	// core: the same search on two lanes.
	par := searchOpts
	par.Workers = 2
	l.set("core.parallel_search_ms", l.fastestOf("parallel search", l.reps, timedSearch(par, nil))*1e3)

	// bound: a cold engine, then the same engine again.
	var cold, warm []float64
	l.fastestOf("bound search", l.reps, func() (float64, error) {
		t, err := fresh()
		if err != nil {
			return 0, err
		}
		opts := searchOpts
		opts.Bound = core.NewBoundEngine(t, opts)
		start := time.Now()
		p1, err := planFn(l.ctx, t, opts)
		if err != nil {
			return 0, err
		}
		mid := time.Now()
		p2, err := planFn(l.ctx, t, opts)
		if err != nil {
			return 0, err
		}
		end := time.Now()
		if p1.Cost != want.Cost || p2.Cost != want.Cost {
			return 0, fmt.Errorf("bounded plan costs %g and %g, pinned %g", p1.Cost, p2.Cost, want.Cost)
		}
		cold = append(cold, mid.Sub(start).Seconds())
		warm = append(warm, end.Sub(mid).Seconds())
		l.set("bound.cuts_learned", float64(p1.Metrics.BoundCutsLearned))
		l.set("bound.cut_hits", float64(p2.Metrics.BoundCutHits))
		l.set("bound.states_pruned", float64(p2.Metrics.BoundStatesPruned))
		return end.Sub(start).Seconds(), nil
	})
	if len(cold) > 0 {
		l.set("bound.cold_search_ms", floor(cold)*1e3)
		l.set("bound.warm_search_ms", floor(warm)*1e3)
	}

	// obs: the same search with a recorder attached, then a snapshot.
	reg := obs.NewRegistry()
	withRec := searchOpts
	withRec.Recorder = obs.NewRecorder(reg)
	recordedTotal := 0.0
	search := timedSearch(withRec, nil)
	recorded := l.fastestOf("recorded search", l.reps, func() (float64, error) {
		d, err := search()
		recordedTotal += d
		return d, err
	})
	if searchUS > 0 {
		l.set("obs.recorder_overhead_share", (recorded*1e6-searchUS)/searchUS)
	}
	// The recorder times every satisfiability check the search makes;
	// what is left of the search is its own bookkeeping: the queue, the
	// state table, the cache.
	if checks := reg.Snapshot().Histograms[obs.MetricCheckLatency]; recordedTotal > 0 {
		l.set("core.bookkeeping_share", 1-checks.Sum/recordedTotal)
	}
	l.set("obs.snapshot_us", l.fastest("snapshot", func() error { reg.Snapshot(); return nil })*1e6)

	// audit: the serial reference engine on the same plan.
	serial := cliOptions(1)
	serial.AuditSerial = true
	l.set("audit.serial_verify_ms", l.fastest("serial audit", func() error {
		rep, err := core.AuditSequence(task, plan.Sequence, serial, false)
		if err == nil && !rep.Passed {
			err = fmt.Errorf("serial audit failed: %s", rep)
		}
		return err
	})*1e3)

	// pipeline: the whole run as the CLI calls it, and a replan of the
	// half-executed plan under 5% more demand.
	cfg := pipeline.Config{Planner: pipeline.Planner(kind.Planner), Options: cliOptions(1)}
	runMS := l.fastestOf("pipeline run", l.reps, func() (float64, error) {
		doc, err := npd.Decode(bytes.NewReader(npdDoc))
		if err != nil {
			return 0, err
		}
		start := time.Now()
		res, err := pipeline.RunContext(l.ctx, doc, cfg)
		d := time.Since(start).Seconds()
		if err == nil && res.Plan.Cost != want.Cost {
			err = fmt.Errorf("pipeline plan cost %g, pinned %g", res.Plan.Cost, want.Cost)
		}
		return d, err
	}) * 1e3
	l.set("pipeline.run_ms", runMS)
	l.set("pipeline.self_ms", runMS-ms("gen.scenario")-ms("core.search")-ms("audit.verify")-ms("npd.plandoc"))
	half := plan.Sequence[:len(plan.Sequence)/2]
	grown := task.Demands.Scaled(1.05)
	l.set("pipeline.replan_ms", l.fastest("replan", func() error {
		_, err := pipeline.ReplanContext(l.ctx, task, half, &grown, cfg)
		return err
	})*1e3)

	// npd and migration: the sealed envelope and a re-blocking.
	l.set("npd.seal_us", l.fastest("seal", func() error {
		_, err := npd.SealValue("klotski/plan", last.doc)
		return err
	})*1e6)
	l.set("migration.reblock_us", l.fastest("reblock", func() error {
		_, err := migration.Reblock(task, 2)
		return err
	})*1e6)

	l.probeRouting(task, plan)
}

// probeRouting times the satisfiability checker alone on the primary
// fabric: a full check of the initial state, the incremental check after
// each block of the plan, and an incremental check after 5% of the demands
// changed rate.
func (l *layerRun) probeRouting(task *migration.Task, plan *core.Plan) {
	ds := &task.Demands
	opts := routing.CheckOpts{}

	ev := routing.NewEvaluator(task.Topo)
	view := task.Topo.NewView()
	l.set("routing.eval_full_us", l.fastest("full check", func() error {
		if v := ev.Check(view, ds, opts); !v.OK() {
			return fmt.Errorf("initial state unsafe: %s", v)
		}
		return nil
	})*1e6)

	deltaUS := l.fastestOf("delta walk", l.reps, func() (float64, error) {
		ev := routing.NewEvaluator(task.Topo)
		view := task.Topo.NewView()
		ev.CheckDelta(view, nil, nil, ds, opts) // builds the memo, untimed
		var total time.Duration
		var v routing.Violation
		// One block per step, as the search moves: states inside a run
		// may be unsafe, only the last one must hold.
		for _, b := range plan.Sequence {
			task.Apply(view, b)
			bt := task.Touched(b)
			start := time.Now()
			v = ev.CheckDelta(view, bt.Switches, bt.Circuits, ds, opts)
			total += time.Since(start)
		}
		if !v.OK() {
			return 0, fmt.Errorf("target state unsafe: %s", v)
		}
		return total.Seconds() / float64(len(plan.Sequence)), nil
	}) * 1e6
	l.set("routing.eval_delta_us", deltaUS)
	// How much of the memo the search itself could reuse, from its own
	// counters: 0 where the engine switched itself off on this fabric.
	if m := plan.Metrics; m.GroupsReused+m.GroupInvalidations > 0 {
		l.set("routing.groups_reused_share", float64(m.GroupsReused)/float64(m.GroupsReused+m.GroupInvalidations))
	}

	changed := make([]int32, max(1, ds.Len()/20))
	for i := range changed {
		changed[i] = int32(i)
	}
	mutable := ds.Clone()
	ev = routing.NewEvaluator(task.Topo)
	ev.CheckDelta(view, nil, nil, &mutable, opts)
	up := true
	l.set("routing.demand_delta_us", l.fastest("demand delta", func() error {
		// Alternate a 1% rise and its reversal so rates do not drift.
		f := 1.01
		if !up {
			f = 1 / 1.01
		}
		up = !up
		for _, i := range changed {
			mutable.Demands[i].Rate *= f
		}
		if v := ev.CheckDemandDelta(view, changed, &mutable, opts); !v.OK() {
			return fmt.Errorf("initial state unsafe after demand change: %s", v)
		}
		return nil
	})*1e6)
}

// tracePlanLarge: the op is the single-plan replay itself.
func (l *layerRun) tracePlanLarge(run *planLarge) (inproc, traced float64) {
	npdDoc, err := os.ReadFile(filepath.Join(run.dir, run.fabric+".json"))
	if !l.did("read npd", err) {
		return 0, 0
	}
	kind := primary[l.w.name]
	traced, last := l.planReplays(l.opTrace, npdDoc, kind)
	if last == nil {
		return 0, 0
	}
	if !bytes.Equal(last.out, run.ref) {
		l.did("replay vs process", fmt.Errorf("in-process plan document differs from the klotski process's"))
	}
	// Straight after the traced replays, so that the two floors come from
	// the same minute; the probes take the next half minute.
	inproc = l.fastest("untraced replay", func() error {
		_, err := replayPlan(l.ctx, nil, 0, npdDoc, kind.Planner)
		return err
	})
	l.planLayers(l.opTrace, npdDoc, kind, last)
	return inproc, traced
}
