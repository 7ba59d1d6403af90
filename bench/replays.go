package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"klotski/internal/core"
	"klotski/internal/ctrl"
	"klotski/internal/npd"
	"klotski/internal/obs"
	"klotski/internal/pipeline"
	"klotski/internal/sched"
	"klotski/internal/serve"
	"klotski/internal/sim"
)

// probePlan runs the planning-layer probes for a workload whose own op is
// not the single-plan replay: the spans go to a trace of their own.
func (l *layerRun) probePlan(dir string) *planReplay {
	kind := primary[l.w.name]
	npdDoc, err := os.ReadFile(filepath.Join(dir, kind.Fabric+".json"))
	if !l.did("read npd", err) {
		return nil
	}
	l.probeTrace = newTracer()
	_, last := l.planReplays(l.probeTrace, npdDoc, kind)
	if last != nil {
		l.planLayers(l.probeTrace, npdDoc, kind, last)
	}
	return last
}

// replan-chaos

// replayChaos is the replan-chaos op in this process: plan the forklift,
// then drive it through the chaos campaign the CLI flags describe.
func replayChaos(ctx context.Context, tr *tracer, op int, npdDoc []byte, chaosSeed int64) (*ctrl.CampaignReport, []byte, error) {
	root := tr.start("op", -1, op)
	defer tr.end(root)

	id := tr.start("npd.decode", root, op)
	doc, err := npd.Decode(bytes.NewReader(npdDoc))
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.start("gen.scenario", root, op)
	scenario, err := doc.Scenario()
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	cfg := pipeline.Config{Planner: pipeline.PlannerAStar, Options: cliOptions(1)}
	id = tr.start("pipeline.run", root, op)
	res, err := pipeline.RunTaskContext(ctx, scenario.Task, cfg)
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	id = tr.start("ctrl.campaign", root, op)
	rep, err := ctrl.Campaign(ctx, res.Task, ctrl.CampaignOptions{
		Seeds:    4,
		Seed:     chaosSeed,
		Schedule: sim.ScheduleOptions{Faults: 4, Telemetry: true},
		Run:      ctrl.Options{Config: cfg, DriftThreshold: 0.05, DemandMargin: 1.25},
	})
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	id = tr.start("npd.encode", root, op)
	err = res.Document.Encode(&buf)
	tr.end(id)
	return rep, buf.Bytes(), err
}

func (l *layerRun) traceReplanChaos(run *replanChaos) (inproc, traced float64) {
	last := l.probePlan(run.dir)
	if last == nil {
		return 0, 0
	}
	npdDoc, err := os.ReadFile(filepath.Join(run.dir, run.fabric+".json"))
	if !l.did("read npd", err) {
		return 0, 0
	}
	chaosSeed := chaosSeeds[0]
	var rep *ctrl.CampaignReport
	op := 0
	traced = l.fastest("chaos replay", func() error {
		r, out, err := replayChaos(l.ctx, l.opTrace, op, npdDoc, chaosSeed)
		op++
		if err != nil {
			return err
		}
		// The in-process campaign must tell the same story, word for
		// word, as the klotski process did, and write the same plan.
		if r.String() != run.lines[0] {
			return fmt.Errorf("campaign line %q, process printed %q", r, run.lines[0])
		}
		if !bytes.Equal(out, run.ref) {
			return fmt.Errorf("plan document differs from the klotski process's")
		}
		rep = r
		return nil
	})
	if rep == nil {
		return 0, 0
	}
	inproc = l.fastest("untraced chaos replay", func() error {
		_, _, err := replayChaos(l.ctx, nil, 0, npdDoc, chaosSeed)
		return err
	})

	l.set("ctrl.run_ms", floor(durations(l.opTrace.spans, "ctrl.campaign"))*1e3/float64(rep.Seeds))
	l.set("ctrl.replans", float64(rep.TotalReplans))
	l.set("ctrl.retries", float64(rep.TotalRetries))
	l.set("ctrl.drift_replans", float64(rep.DriftReplans))
	l.set("ctrl.gap_skips", float64(rep.GapSkips))

	// ctrl's write-ahead journal: one fsynced record per append.
	path := filepath.Join(l.dir, "probe.journal")
	j, err := ctrl.NewJournal(path)
	if l.did("open journal", err) {
		seq := 0
		l.set("ctrl.journal_append_us", l.fastest("journal append", func() error {
			seq++
			return j.Append(ctrl.Entry{Seq: seq, Op: "begin", Block: seq})
		})*1e6)
		l.did("close journal", j.Close())
	}

	// sim: the plan executed once against an undisturbed network.
	exec := sim.NewExecutor(last.task)
	l.set("sim.execute_us_per_action", l.fastest("sim execute", func() error {
		r, err := exec.Execute(last.plan.Sequence, sim.Options{})
		if err == nil && (!r.Completed || r.BoundaryViolations > 0) {
			err = fmt.Errorf("simulated execution: completed=%v, %d boundary violations", r.Completed, r.BoundaryViolations)
		}
		return err
	})*1e6/float64(len(last.plan.Sequence)))
	return inproc, traced
}

// fleet-mixed

// fleetInput is one manifest member with its NPD document loaded.
type fleetInput struct {
	fleetMember
	doc []byte
}

// replayFleet is the fleet-mixed op in this process: build every member's
// task, then plan them all under one shared pool of two workers.
func replayFleet(ctx context.Context, tr *tracer, op int, inputs []fleetInput, rec *obs.Recorder) (*ctrl.FleetReport, error) {
	root := tr.start("op", -1, op)
	defer tr.end(root)

	members := make([]ctrl.FleetMember, len(inputs))
	for i, in := range inputs {
		id := tr.start("npd.decode", root, op)
		doc, err := npd.Decode(bytes.NewReader(in.doc))
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
		opts := cliOptions(core.WorkersAdaptive) // the CLI's -workers default
		opts.Recorder = rec
		members[i] = ctrl.FleetMember{
			Name: in.Name, Task: scenario.Task, Planner: ctrl.Planner(in.Planner), Options: opts,
			Priority: in.Priority, MinShare: in.MinShare,
		}
	}
	id := tr.start("sched.pool", root, op)
	pool := sched.NewPool(2, rec)
	tr.end(id)
	defer pool.Close()
	id = tr.start("ctrl.fleet", root, op)
	rep, err := ctrl.Fleet(ctx, members, ctrl.FleetOptions{Pool: pool, Recorder: rec})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("cli.report", root, op)
	_, err = json.Marshal(rep.Members)
	tr.end(id)
	return rep, err
}

func (l *layerRun) traceFleetMixed(run *fleetMixed) (inproc, traced float64) {
	if l.probePlan(run.dir) == nil {
		return 0, 0
	}
	var manifest struct {
		Members []fleetMember `json:"members"`
	}
	if !l.did("read manifest", readJSON(filepath.Join(run.dir, "manifest.json"), &manifest)) {
		return 0, 0
	}
	inputs := make([]fleetInput, len(manifest.Members))
	for i, m := range manifest.Members {
		doc, err := os.ReadFile(filepath.Join(run.dir, m.NPD))
		if !l.did("read npd", err) {
			return 0, 0
		}
		inputs[i] = fleetInput{m, doc}
	}
	check := func(rep *ctrl.FleetReport) error {
		if rep.Completed != len(inputs) || rep.Failed != 0 || rep.TotalCost != run.cost {
			return fmt.Errorf("in-process fleet: %s; want %d completed at total cost %g", rep, len(inputs), run.cost)
		}
		return nil
	}

	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg)
	op, crossHits := 0, 0
	traced = l.fastest("fleet replay", func() error {
		rep, err := replayFleet(l.ctx, l.opTrace, op, inputs, rec)
		op++
		if err != nil {
			return err
		}
		crossHits += rep.CrossHits
		return check(rep)
	})
	if op == 0 {
		return 0, 0
	}
	inproc = l.fastest("untraced fleet replay", func() error {
		rep, err := replayFleet(l.ctx, nil, 0, inputs, nil)
		if err != nil {
			return err
		}
		return check(rep)
	})

	// Scheduler counters are totals over the traced replays; report them
	// per op. They depend on goroutine timing and do not repeat exactly.
	snap := reg.Snapshot()
	perOp := func(counter string) float64 { return float64(snap.Counters[counter]) / float64(op) }
	l.set("sched.steals", perOp(obs.MetricSchedSteals))
	l.set("sched.preemptions", perOp(obs.MetricSchedPreemptions))
	l.set("sched.queue_wait_ms", perOp(obs.MetricSchedQueueWait)/1e6)
	l.set("bound.cross_plan_cut_hits", float64(crossHits)/float64(op))
	l.probeSched()

	fleetMS := floor(durations(l.opTrace.spans, "ctrl.fleet")) * 1e3
	l.set("ctrl.fleet_ms", fleetMS)
	// The same members, one at a time, serial, no pool: what the fleet's
	// makespan is measured against.
	soloMS := 0.0
	for _, in := range inputs {
		in := in
		soloMS += l.fastestOf("solo "+in.Name, l.reps, func() (float64, error) {
			task, err := taskOf(in.doc)
			if err != nil {
				return 0, err
			}
			start := time.Now()
			_, err = plannerFor(in.Planner)(l.ctx, task, cliOptions(1))
			return time.Since(start).Seconds(), err
		}) * 1e3
	}
	if fleetMS > 0 {
		l.set("ctrl.fleet_speedup", soloMS/fleetMS)
	}
	return inproc, traced
}

// probeSched times the pool alone: admitting a client, and pushing a
// thousand empty tasks through it.
func (l *layerRun) probeSched() {
	pool := sched.NewPool(2, nil)
	defer pool.Close()
	l.set("sched.register_us", l.fastest("sched register", func() error {
		c, err := pool.Register("probe", sched.ClientOptions{})
		if err == nil {
			c.Close()
		}
		return err
	})*1e6)
	c, err := pool.Register("probe", sched.ClientOptions{})
	if !l.did("sched register", err) {
		return
	}
	defer c.Close()
	tasks := make([]func(), 1000)
	for i := range tasks {
		tasks[i] = func() {}
	}
	l.set("sched.dispatch_us_per_task", l.fastest("sched dispatch", func() error {
		c.Run(tasks)
		return nil
	})*1e6/float64(len(tasks)))
}

// daemon-burst

// inprocJob is one job through the service's Go API, no HTTP: submit,
// wait for a terminal state, fetch the plan.
func inprocJob(tr *tracer, op int, m *serve.Manager, req serve.Request) ([]byte, error) {
	root := tr.start("op", -1, op)
	defer tr.end(root)

	id := tr.start("serve.submit", root, op)
	j, err := m.Submit(req)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.start("serve.wait", root, op)
	ch, st := j.Subscribe()
	for !st.State.Terminal() {
		next, open := <-ch
		if !open {
			// The terminal transition closes the channel.
			st = j.Status()
			break
		}
		st = next
	}
	j.Unsubscribe(ch)
	tr.end(id)
	if st.State != serve.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Detail)
	}
	id = tr.start("serve.plan", root, op)
	plan, err := j.Plan()
	tr.end(id)
	return plan, err
}

func (l *layerRun) traceDaemonBurst(run *daemonBurst) (inproc, traced float64) {
	if l.probePlan(run.dir) == nil {
		return 0, 0
	}
	stateDir := filepath.Join(l.dir, "state-inproc")
	reg := obs.NewRegistry()
	cfg := serve.Config{Dir: stateDir, PoolWorkers: 2, Recorder: obs.NewRecorder(reg)}
	m, err := serve.Open(cfg)
	if !l.did("serve open", err) {
		return 0, 0
	}
	srv := httptest.NewServer(serve.NewHandler(m))
	closed := false
	shutdown := func() {
		if !closed {
			srv.Close()
			m.Close()
			closed = true
		}
	}
	defer shutdown()

	// The same batches as the real op, against the handler in this
	// process: what is left of the real op's time is the daemon process,
	// its sockets and its scheduling.
	local := &daemonBurst{
		e: run.e, dir: run.dir, jobs: run.jobs, docs: run.docs, body: run.body, want: run.want,
		ref: make(map[daemonJob][]byte), tr: l.opTrace,
		d: &daemon{base: srv.URL, stderr: &tailBuffer{}, client: newClient()},
	}
	defer local.d.client.CloseIdleConnections()
	batch := 0
	traced = l.fastestOf("traced batch", l.reps, func() (float64, error) {
		batch++
		return local.batch(l.ctx, batch)
	})
	local.tr = nil
	inproc = l.fastestOf("untraced batch", l.reps, func() (float64, error) {
		batch++
		return local.batch(l.ctx, batch)
	})

	// One job of each kind over HTTP (from the traced batches) and through
	// the Go API; the difference is what HTTP costs a job.
	httpJob := make(map[string][]float64)
	for _, s := range l.opTrace.spans {
		if s.Parent < 0 {
			k := run.jobs[s.Op%len(run.jobs)]
			key := k.Fabric + "/" + k.Planner
			httpJob[key] = append(httpJob[key], float64(s.End-s.Start)/1e9)
		}
	}
	var kinds []daemonJob
	for _, f := range daemonFabrics {
		kinds = append(kinds, daemonJob{f, "astar"}, daemonJob{f, "dp"})
	}
	var apiJob, httpFloors, solo [][]float64
	// The jobs' spans join the probe's, under op identifiers past the ones
	// planReplays used.
	op := l.reps
	for _, k := range kinds {
		req := serve.Request{Name: k.Fabric + "-" + k.Planner, NPD: run.docs[k.Fabric], Planner: k.Planner}
		var xs []float64
		l.fastestOf("in-process job", l.reps, func() (float64, error) {
			start := time.Now()
			plan, err := inprocJob(l.probeTrace, op, m, req)
			d := time.Since(start).Seconds()
			op++
			if err == nil {
				_, err = checkPlanDoc(plan, run.want[k])
			}
			xs = append(xs, d)
			return d, err
		})
		apiJob = append(apiJob, xs)
		httpFloors = append(httpFloors, httpJob[k.Fabric+"/"+k.Planner])

		// Planning and auditing the same request with nothing around it.
		var ys []float64
		l.fastestOf("bare plan", l.reps, func() (float64, error) {
			task, err := taskOf(run.docs[k.Fabric])
			if err != nil {
				return 0, err
			}
			start := time.Now()
			_, err = plannerFor(k.Planner)(l.ctx, task, core.Options{Workers: 1})
			ys = append(ys, time.Since(start).Seconds())
			return ys[len(ys)-1], err
		})
		solo = append(solo, ys)
	}
	jobMS := meanOf(apiJob, floor) * 1e3
	l.set("serve.job_ms", jobMS)
	l.set("serve.submit_ms", floor(durations(l.probeTrace.spans, "serve.submit"))*1e3)
	l.set("serve.http_overhead_ms", meanOf(httpFloors, floor)*1e3-jobMS)
	if jobMS > 0 {
		l.set("serve.plan_share", meanOf(solo, floor)*1e3/jobMS)
	}

	snap := reg.Snapshot()
	jobs := float64(snap.Counters[obs.MetricServeJobsSubmitted])
	if jobs > 0 {
		l.set("sched.steals", float64(snap.Counters[obs.MetricSchedSteals])/jobs)
		l.set("sched.preemptions", float64(snap.Counters[obs.MetricSchedPreemptions])/jobs)
		l.set("sched.queue_wait_ms", float64(snap.Counters[obs.MetricSchedQueueWait])/1e6/jobs)
	}
	l.probeSched()

	// The durable layer, as exact counts from the files the run left, and
	// the read path beside the write path: opening the finished state dir.
	shutdown()
	l.journalStats(stateDir, jobs)
	if jobs > 0 {
		l.set("serve.recover_ms", l.fastestOf("serve recover", 3, func() (float64, error) {
			start := time.Now()
			m2, err := serve.Open(serve.Config{Dir: stateDir, PoolWorkers: 2})
			d := time.Since(start).Seconds()
			if err == nil {
				if n := len(m2.Jobs()); float64(n) != jobs {
					err = fmt.Errorf("recovered %d jobs of %g", n, jobs)
				}
				m2.Close()
			}
			return d, err
		})*1e3*1000/jobs)
	}
	return inproc, traced
}

// journalStats counts what the service wrote per job: journal records,
// journal bytes, files.
func (l *layerRun) journalStats(stateDir string, jobs float64) {
	entries, err := os.ReadDir(stateDir)
	if !l.did("read state dir", err) || jobs == 0 {
		return
	}
	var records, size float64
	for _, ent := range entries {
		if !strings.HasSuffix(ent.Name(), ".journal") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(stateDir, ent.Name()))
		if !l.did("read journal", err) {
			return
		}
		records += float64(bytes.Count(data, []byte("\n")))
		size += float64(len(data))
	}
	l.set("serve.journal_records_per_job", records/jobs)
	l.set("serve.journal_bytes_per_job", size/jobs)
	l.set("serve.files_per_job", float64(len(entries))/jobs)
}
