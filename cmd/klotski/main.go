// Command klotski plans a datacenter network migration from an NPD
// document and emits the ordered topology phases as JSON.
//
// Usage:
//
//	klotski -npd region.json [-o plan.json] [-planner astar|dp|mrc|janus]
//	        [-theta 0.75] [-alpha 0] [-growth 0] [-maxrun 0] [-timeout 5m] [-v]
//	        [-gap] [-gap-max 0]
//	        [-checkpoint ckpt.json] [-chaos 0] [-chaos-faults 3] [-chaos-seed 1]
//	        [-drift-threshold 0] [-demand-margin 1.25]
//	        [-stats-out stats.json] [-debug-addr localhost:6060]
//	klotski -npd region.json -resume plan.json -executed 12   # replan the rest
//	klotski -npd region.json -audit plan.json                 # verify offline
//	klotski -fleet manifest.json [-fleet-workers 0] [-fleet-checkpoint-dir ckpts/]
//
// The NPD document must carry a migration part; see cmd/topogen for
// generating example documents. With -v the plan's runs and per-phase
// network snapshots are printed to stderr. With -resume, the blocks an
// earlier plan document lists as executed before its phases, and the first
// -executed actions of those phases, are treated as done and only the
// remainder is re-planned (demand may have shifted; pass -growth or edit
// the NPD demand part accordingly); the new document lists all of them. The replan starts in the run
// those actions leave in progress: under -maxrun its first phase finishes
// the current chunk. A* and DP refuse an executed prefix out of canonical
// within-type order, such as a cut of an MRC plan; resume one with
// -planner mrc or janus. -simulate replays a whole plan and is refused
// with -resume.
//
// Planning is interruptible: on SIGINT (or -timeout expiry) the search
// stops at a checkpoint instead of discarding its work. With -checkpoint
// the best safe partial sequence explored so far is written as a plan
// document, starting where the search started, that the -resume/-executed
// flow accepts once those actions have been executed. Checkpoints are written atomically (temp file + fsync +
// rename) inside a versioned, checksummed envelope, so a crash mid-write
// never leaves a file that silently resumes from garbage.
//
// With -audit the named plan or checkpoint document is independently
// verified against the NPD scenario — every boundary state replayed on a
// pristine serial evaluator — and the process exits non-zero if any state
// violates the constraints or the sequence was tampered with. -audit does
// nothing else, so it is refused with -simulate, -chaos or -resume.
//
// With -chaos N the planned migration is additionally driven through N
// Monte Carlo chaos runs: each run draws a random fault train (switch
// outages, circuit flaps, demand surges, transient action failures) and
// executes the migration with the fault-tolerant control loop — retries,
// backoff, and replanning — reporting completion rate and worst-case
// boundary utilization to stderr. Every run starts from the printed plan;
// with -resume the campaign plans the untouched task once itself.
//
// With -drift-threshold > 0 the chaos controller additionally observes
// demand telemetry before each run, replans when observed drift exceeds
// the threshold, and — when telemetry is dropped or corrupted (the fault
// train then includes telemetry faults) — degrades to planning against the
// last good demand inflated by -demand-margin. With -gap-skip G > 0 a
// drift replan is skipped when the remaining plan re-audits safe against
// the drifted demands and its cost is certified within G of the
// completion lower bound — drift that cannot buy a better plan no longer
// costs a replan. The resulting ctrl.drift_replans, ctrl.gap_skips,
// ctrl.telemetry_faults, and ctrl.degraded_runs counters land in the
// -stats-out snapshot.
//
// Every optimal-planner run carries an anytime optimality certificate:
// the incumbent plan cost, the proven global lower bound, and the
// certified relative gap between them (0 when the plan is provably
// optimal). -gap prints the certificate to stderr; -gap-max G exits
// non-zero when the certified gap exceeds G (so -gap-max 0 demands a
// proven-optimal plan). The certificate also lands in the -stats-out
// snapshot (planner.optimality_gap) and in checkpoint envelopes, where
// resuming restores and can only tighten it.
//
// With -fleet, instead of planning one NPD document, a manifest of fleet
// members ({"members":[{"name","npd","planner","priority","min_share"}]})
// is planned concurrently under one shared admission pool whose worker
// budget -fleet-workers sets (0 = GOMAXPROCS); the budget also bounds
// how many member documents are built at once. Higher-priority
// members preempt lower-priority ones mid-search (the victim checkpoints
// and later resumes, producing the identical plan). The fleet report
// (per-member plan cost, gap, preemptions, waits; aggregate makespan) is
// written as JSON to -o, and the exit status is non-zero if any member
// failed. Fleet runs stop cleanly on SIGINT and SIGTERM: every member
// halts at a planner checkpoint, the report is still written, and with
// -fleet-checkpoint-dir each interrupted member's best safe partial
// sequence is sealed into that directory as <member>.ckpt.json — the
// same envelope -checkpoint writes for a single plan, resumable per
// member via -resume/-executed.
//
// Observability: -stats-out writes a JSON snapshot of the planner's
// instruments (states created/expanded, check-latency histogram, cache
// hit/miss counts and ratio, span timings, bound-engine cut counters)
// when the run ends — including interrupted runs. -debug-addr serves the
// live registry over HTTP while planning: expvar under /debug/vars,
// profiles under /debug/pprof/.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"klotski"
	"klotski/internal/durable"
	"klotski/internal/npd"
	"klotski/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "klotski:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("klotski", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		npdPath = fs.String("npd", "", "path to the NPD document (required)")
		outPath = fs.String("o", "", "write the plan document here (default stdout)")
		planner = fs.String("planner", "astar", "planner: astar, dp, mrc, janus")
		theta   = fs.Float64("theta", 0, "utilization bound (default 0.75)")
		alpha   = fs.Float64("alpha", 0, "within-run marginal cost α of f_cost(x)=1+α(x−1)")
		growth  = fs.Float64("growth", 0, "forecasted demand growth per migration step (e.g. 0.002)")
		maxRun  = fs.Int("maxrun", 0, "maintenance-window cap: max same-type actions per run (0 = unlimited)")
		workers = fs.Int("workers", -1, "deprecated and ignored: the search and its audit are serial")
		timeout = fs.Duration("timeout", 5*time.Minute, "planning time budget")

		verbose = fs.Bool("v", false, "print the plan's runs and phase snapshots to stderr")

		gap    = fs.Bool("gap", false, "print the plan's certified optimality certificate (incumbent cost, proven lower bound, relative gap) to stderr")
		gapMax = fs.Float64("gap-max", -1, "exit non-zero when the certified relative optimality gap exceeds this value (e.g. 0 demands a proven-optimal plan; -1 = off)")

		resume   = fs.String("resume", "", "earlier plan document to resume from")
		executed = fs.Int("executed", 0, "number of actions of the -resume plan already executed")
		simulate = fs.Int("simulate", 0, "replay the plan this many times with randomized asynchrony and report transient exposure")
		auditDoc = fs.String("audit", "", "independently verify this plan or checkpoint document against the NPD scenario and exit")

		ckptPath    = fs.String("checkpoint", "", "on interrupted planning (SIGINT, -timeout), write the best safe partial sequence here")
		chaos       = fs.Int("chaos", 0, "run the plan through this many chaos-campaign control-loop runs")
		chaosFaults = fs.Int("chaos-faults", 3, "faults per chaos run")
		chaosSeed   = fs.Int64("chaos-seed", 1, "base seed for the chaos campaign")

		driftThreshold = fs.Float64("drift-threshold", 0, "chaos-campaign demand-drift replan threshold (relative L1 deviation; 0 = drift loop off)")
		gapSkip        = fs.Float64("gap-skip", 0, "skip drift replans when the remaining plan re-audits safe and its cost is certified within this relative gap of the completion lower bound (0 = off)")
		demandMargin   = fs.Float64("demand-margin", 1.25, "degraded-mode demand envelope multiplier when telemetry is unusable")

		fleetPath    = fs.String("fleet", "", "plan a fleet: JSON manifest of members ({\"members\":[{\"name\",\"npd\",\"planner\",\"priority\",\"min_share\"}]}) planned concurrently under one shared admission pool")
		fleetWorkers = fs.Int("fleet-workers", 0, "how many -fleet members plan at once, the pool's worker budget (0 = GOMAXPROCS)")
		fleetCkptDir = fs.String("fleet-checkpoint-dir", "", "on interrupted fleet planning (SIGINT, SIGTERM, -timeout), seal every interrupted member's best safe partial sequence into this directory (<member>.ckpt.json)")

		statsOut  = fs.String("stats-out", "", "write a JSON observability snapshot (counters, gauges, histograms, spans) here on exit")
		debugAddr = fs.String("debug-addr", "", "serve live expvar (/debug/vars) and pprof (/debug/pprof/) on this address, e.g. localhost:6060")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *npdPath == "" && *fleetPath == "" {
		fs.Usage()
		return fmt.Errorf("-npd (or -fleet) is required")
	}
	if *resume != "" && *simulate > 0 {
		return fmt.Errorf("-simulate replays a whole plan; it cannot follow -resume")
	}
	if *auditDoc != "" && (*simulate > 0 || *chaos > 0 || *resume != "") {
		return fmt.Errorf("-audit verifies a document and exits; it takes no -simulate, -chaos or -resume")
	}
	if *executed < 0 {
		return fmt.Errorf("-executed %d is negative: it counts actions of the -resume document already executed", *executed)
	}
	if *executed > 0 && *resume == "" {
		return fmt.Errorf("-executed %d needs -resume: it counts actions of the -resume document already executed", *executed)
	}
	if *simulate < 0 {
		return fmt.Errorf("-simulate %d is negative: it counts replays, 0 (none) or more", *simulate)
	}
	if *chaos < 0 {
		return fmt.Errorf("-chaos %d is negative: it counts chaos runs, 0 (none) or more", *chaos)
	}
	if *chaosFaults < 1 {
		return fmt.Errorf("-chaos-faults %d is out of range: each chaos run draws 1 fault or more", *chaosFaults)
	}
	if *growth < 0 {
		return fmt.Errorf("-growth %g is negative: it is demand growth per migration step, 0 or more", *growth)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout %s is negative: it is the planning budget, 0 (no limit) or more", *timeout)
	}

	// Observability: the recorder is wired into the planners only when an
	// export is requested; otherwise Options.Recorder stays nil and the
	// search hot path pays a single branch per event.
	var rec *klotski.ObsRecorder
	if *statsOut != "" || *debugAddr != "" {
		reg := klotski.DefaultObsRegistry()
		rec = klotski.NewObsRecorder(reg)
		if *statsOut != "" {
			// Deferred so interrupted runs still leave a snapshot behind.
			defer func() {
				if werr := writeStats(*statsOut, reg); werr != nil {
					fmt.Fprintln(stderr, "klotski: writing stats:", werr)
				}
			}()
		}
		if *debugAddr != "" {
			stopDebug, err := serveDebug(*debugAddr, reg, stderr)
			if err != nil {
				return fmt.Errorf("starting debug server: %w", err)
			}
			defer stopDebug()
		}
	}

	cfgOpts := klotski.Options{
		Theta: *theta, Alpha: *alpha, Timeout: *timeout, MaxRunLength: *maxRun,
		Workers: *workers, Recorder: rec,
	}
	if *fleetPath != "" {
		return runFleet(ctx, *fleetPath, *fleetWorkers, *fleetCkptDir, cfgOpts, *outPath, stdout, stderr, rec)
	}

	f, err := os.Open(*npdPath)
	if err != nil {
		return err
	}
	doc, err := klotski.LoadNPD(f)
	f.Close()
	if err != nil {
		return err
	}
	task, _, err := doc.Task()
	if err != nil {
		return err
	}
	if *growth > 0 {
		task = task.WithForecast(klotski.Forecast{GrowthPerStep: *growth})
	}

	cfg := klotski.PipelineConfig{
		Planner:       klotski.PlannerName(*planner),
		CampaignSeeds: *simulate,
		Options:       cfgOpts,
	}

	if *auditDoc != "" {
		return auditDocument(task, cfg, *auditDoc, stderr)
	}

	start := time.Now()
	var res *klotski.PipelineResult
	if *resume != "" {
		res, err = replanFromDocument(ctx, task, cfg, *resume, *executed)
	} else {
		res, err = klotski.RunPipelineTaskContext(ctx, task, cfg)
	}
	if err != nil {
		var interrupted *klotski.Interrupted
		if errors.As(err, &interrupted) && *ckptPath != "" {
			n, werr := writeCheckpoint(*ckptPath, interrupted)
			if werr != nil {
				return fmt.Errorf("%w (writing checkpoint also failed: %v)", err, werr)
			}
			fmt.Fprintf(stderr, "planning interrupted (%v); %d safe actions checkpointed to %s\n", interrupted.Reason, n, *ckptPath)
			fmt.Fprintf(stderr, "after executing them, continue with: -resume %s -executed %d\n", *ckptPath, n)
		}
		return err
	}

	if *gap || *gapMax >= 0 {
		m := res.Plan.Metrics
		fmt.Fprintf(stderr, "optimality certificate: incumbent %g, lower bound %g, gap %.2f%%\n",
			m.IncumbentCost, m.LowerBound, m.OptimalityGap*100)
	}

	if *verbose {
		fmt.Fprintf(stderr, "planned in %s (%d states, %d checks, %d cache hits, %d misses)\n",
			time.Since(start).Round(time.Millisecond),
			res.Plan.Metrics.StatesCreated, res.Plan.Metrics.Checks,
			res.Plan.Metrics.CacheHits, res.Plan.Metrics.CacheMisses)
		if err := report.Timeline(stderr, res.Document); err != nil {
			return err
		}
		if err := report.Margins(stderr, res.Document); err != nil {
			return err
		}
	}
	if res.Campaign != nil {
		fmt.Fprintln(stderr, res.Campaign)
	}
	if *chaos > 0 {
		campaign := klotski.ChaosCampaignOptions{
			Seeds: *chaos,
			Seed:  *chaosSeed,
			// Telemetry faults are only drawn when the drift loop consuming
			// them is on, keeping pre-drift seeds byte-identical.
			Schedule: klotski.FaultScheduleOptions{Faults: *chaosFaults, Telemetry: *driftThreshold > 0},
			Run: klotski.ControlOptions{
				Config:           cfg,
				DriftThreshold:   *driftThreshold,
				GapSkipThreshold: *gapSkip,
				DemandMargin:     *demandMargin,
			},
		}
		if *resume == "" {
			// The printed plan is the untouched task planned from the empty
			// prefix, which is where every run starts: no run plans it again.
			campaign.Run.Plan = res.Plan
		}
		rep, err := klotski.ChaosCampaign(ctx, res.Task, campaign)
		if err != nil {
			return fmt.Errorf("chaos campaign: %w", err)
		}
		fmt.Fprintln(stderr, rep)
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := res.Document.Encode(out); err != nil {
		return err
	}
	if *gapMax >= 0 {
		if g := res.Plan.Metrics.OptimalityGap; g > *gapMax {
			return fmt.Errorf("certified optimality gap %.4f exceeds -gap-max %g (incumbent %g, lower bound %g)",
				g, *gapMax, res.Plan.Metrics.IncumbentCost, res.Plan.Metrics.LowerBound)
		}
	}
	return nil
}

// fleetManifest is the -fleet input: a set of NPD-backed members planned
// concurrently under one shared worker pool.
type fleetManifest struct {
	Members []fleetManifestMember `json:"members"`
}

type fleetManifestMember struct {
	Name     string `json:"name"`
	NPD      string `json:"npd"`
	Planner  string `json:"planner,omitempty"`  // astar (default) or dp
	Priority int    `json:"priority,omitempty"` // higher preempts lower
	MinShare int    `json:"min_share,omitempty"`
}

// fleetMemberOut is one member's row in the emitted fleet report.
type fleetMemberOut struct {
	Name        string  `json:"name"`
	Completed   bool    `json:"completed"`
	Actions     int     `json:"actions,omitempty"`
	Cost        float64 `json:"cost,omitempty"`
	Gap         float64 `json:"gap"`
	Preemptions int     `json:"preemptions"`
	WaitMS      int64   `json:"wait_ms"`
	ElapsedMS   int64   `json:"elapsed_ms"`
	Error       string  `json:"error,omitempty"`
}

// fleetOut is the emitted fleet report document.
type fleetOut struct {
	Members     []fleetMemberOut `json:"members"`
	Completed   int              `json:"completed"`
	Failed      int              `json:"failed"`
	Admitted    int              `json:"admitted"`
	Preemptions int              `json:"preemptions"`
	TotalCost   float64          `json:"total_cost"`
	MakespanMS  int64            `json:"makespan_ms"`
}

// runFleet builds every manifest member's task from its NPD document,
// within the pool's worker budget, plans the fleet concurrently under
// that pool, prints the one-line summary to stderr, and writes the JSON
// fleet report to -o (default stdout). Any
// member failure makes the exit status non-zero after the report is
// written. An interrupted fleet (SIGINT/SIGTERM, -timeout) still writes
// the report, and — with ckptDir set — first seals every interrupted
// member's best safe partial sequence, so stopping a fleet run preserves
// all members' work, not just one plan's.
func runFleet(ctx context.Context, manifestPath string, workers int, ckptDir string, opts klotski.Options, outPath string, stdout, stderr io.Writer, rec *klotski.ObsRecorder) error {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	var manifest fleetManifest
	if err := json.Unmarshal(data, &manifest); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}
	if len(manifest.Members) == 0 {
		return fmt.Errorf("%s: fleet manifest has no members", manifestPath)
	}

	// Every member must seal to its own checkpoint file: named members
	// claim theirs now, unnamed ones once their document names them.
	files := make(map[string]int, len(manifest.Members))
	claim := func(i int, name string) error {
		file := fleetCheckpointName(fleetMemberLabel(i, name))
		if j, ok := files[file]; ok {
			return fmt.Errorf("%s: members %d and %d both checkpoint to %s; give them distinct names",
				manifestPath, min(i, j), max(i, j), file)
		}
		files[file] = i
		return nil
	}
	for i, m := range manifest.Members {
		if m.NPD == "" {
			return fmt.Errorf("%s: member %d (%q) has no npd path", manifestPath, i, m.Name)
		}
		if !klotski.FleetPlanner(m.Planner).Resumable() {
			return fmt.Errorf("%s: member %d (%q) has planner %q; -fleet runs \"astar\" or \"dp\"", manifestPath, i, m.Name, m.Planner)
		}
		if m.Name != "" {
			if err := claim(i, m.Name); err != nil {
				return err
			}
		}
	}

	pool := klotski.NewWorkerPool(workers, rec)
	defer pool.Close()
	members, err := buildFleetMembers(manifest.Members, min(len(manifest.Members), pool.Workers()))
	if err != nil {
		return err
	}
	for i, m := range manifest.Members {
		if m.Name == "" {
			if err := claim(i, members[i].Name); err != nil {
				return err
			}
		}
		members[i].Planner = klotski.FleetPlanner(m.Planner)
		members[i].Options = opts
		members[i].Priority = m.Priority
		members[i].MinShare = m.MinShare
	}

	rep, fleetErr := klotski.PlanFleet(ctx, members, klotski.FleetOptions{
		Pool:     pool,
		Recorder: rec,
	})
	if rep == nil {
		return fleetErr
	}
	fmt.Fprintln(stderr, rep)
	// A cancelled fleet (or a member that hit its own budget) stops every
	// planner at a checkpoint instead of discarding its work; seal them
	// all before reporting, so the -resume/-executed flow can pick each
	// member back up.
	checkpointFleetMembers(rep, ckptDir, stderr)

	out := fleetOut{
		Completed:   rep.Completed,
		Failed:      rep.Failed,
		Admitted:    rep.Admitted,
		Preemptions: rep.Preemptions,
		TotalCost:   rep.TotalCost,
		MakespanMS:  rep.Makespan.Milliseconds(),
	}
	failed := 0
	for i := range rep.Members {
		m := &rep.Members[i]
		row := fleetMemberOut{
			Name:        m.Name,
			Preemptions: m.Preemptions,
			WaitMS:      m.Wait.Milliseconds(),
			ElapsedMS:   m.Elapsed.Milliseconds(),
		}
		if m.Err != nil {
			row.Error = m.Err.Error()
			failed++
		} else if m.Plan != nil {
			row.Completed = true
			row.Actions = len(m.Plan.Sequence)
			row.Cost = m.Plan.Cost
			row.Gap = m.Plan.Metrics.OptimalityGap
		}
		out.Members = append(out.Members, row)
	}

	w := stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if fleetErr != nil {
		return fleetErr
	}
	if failed > 0 {
		return fmt.Errorf("fleet: %d of %d members failed", failed, len(rep.Members))
	}
	return nil
}

// buildFleetMembers decodes and builds every manifest member's task on
// width goroutines, each taking the next member in turn, and returns the
// members named and tasked (a member without a name takes its document's).
// When builds fail, the error is the lowest failing member's: the one a
// serial build would have returned.
func buildFleetMembers(manifest []fleetManifestMember, width int) ([]klotski.FleetMember, error) {
	members := make([]klotski.FleetMember, len(manifest))
	errs := make([]error, len(manifest))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range width {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(manifest) {
					return
				}
				members[i], errs[i] = buildFleetMember(manifest[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return members, nil
}

// buildFleetMember decodes one manifest member's NPD document and builds
// its task.
func buildFleetMember(m fleetManifestMember) (klotski.FleetMember, error) {
	f, err := os.Open(m.NPD)
	if err != nil {
		return klotski.FleetMember{}, err
	}
	doc, err := klotski.LoadNPD(f)
	f.Close()
	if err != nil {
		return klotski.FleetMember{}, fmt.Errorf("%s: %w", m.NPD, err)
	}
	task, _, err := doc.Task()
	if err != nil {
		return klotski.FleetMember{}, fmt.Errorf("%s: %w", m.NPD, err)
	}
	name := m.Name
	if name == "" {
		name = doc.Name
	}
	return klotski.FleetMember{Name: name, Task: task}, nil
}

// checkpointFleetMembers seals the best safe partial sequence of every
// interrupted fleet member into dir — one klotski/plan envelope per
// member, named <member>.ckpt.json — mirroring what -checkpoint does for
// a single plan. Members that failed for non-checkpoint reasons are
// skipped; write failures are reported to stderr and do not mask the
// interruption itself (the member's journal of record is the fleet
// report). Returns how many envelopes were written.
func checkpointFleetMembers(rep *klotski.FleetReport, dir string, stderr io.Writer) int {
	if dir == "" {
		return 0
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "klotski: creating -fleet-checkpoint-dir:", err)
		return 0
	}
	written := 0
	for i := range rep.Members {
		m := &rep.Members[i]
		var interrupted *klotski.Interrupted
		if m.Err == nil || !errors.As(m.Err, &interrupted) {
			continue
		}
		name := fleetMemberLabel(i, m.Name)
		path := filepath.Join(dir, fleetCheckpointName(name))
		n, werr := writeCheckpoint(path, interrupted)
		if werr != nil {
			fmt.Fprintf(stderr, "klotski: checkpointing fleet member %q: %v\n", name, werr)
			continue
		}
		fmt.Fprintf(stderr, "fleet member %q interrupted (%v); %d safe actions checkpointed to %s\n",
			name, interrupted.Reason, n, path)
		written++
	}
	return written
}

// fleetMemberLabel names fleet member i in checkpoint files and messages:
// its name, or member-<i> when it has none.
func fleetMemberLabel(i int, name string) string {
	if name == "" {
		return fmt.Sprintf("member-%d", i)
	}
	return name
}

// fleetCheckpointName maps a manifest member name to its checkpoint file
// name, flattening path separators so a creative member name cannot
// escape the checkpoint directory.
func fleetCheckpointName(name string) string {
	clean := strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\':
			return '_'
		}
		return r
	}, name)
	return clean + ".ckpt.json"
}

// writeStats dumps the registry's JSON snapshot to path.
func writeStats(path string, reg *klotski.ObsRegistry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveDebug starts the expvar + pprof debug server on addr, printing the
// resolved listen address to stderr (addr may use port 0). The returned
// stop function closes the listener; in-flight requests are abandoned —
// the process is exiting anyway.
func serveDebug(addr string, reg *klotski.ObsRegistry, stderr io.Writer) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	reg.PublishExpvar("klotski")
	fmt.Fprintf(stderr, "debug server listening on http://%s (expvar at /debug/vars, pprof at /debug/pprof/)\n", ln.Addr())
	srv := &http.Server{Handler: reg.DebugHandler()}
	go srv.Serve(ln)
	return func() { srv.Close() }, nil
}

// writeCheckpoint seals the interrupted search's checkpoint document
// (npd.BuildCheckpointDocument) into path and returns how many actions it
// holds: the -executed count that resumes after all of them.
func writeCheckpoint(path string, interrupted *klotski.Interrupted) (int, error) {
	doc := npd.BuildCheckpointDocument(interrupted.Checkpoint, interrupted.Reason)
	if err := durable.WriteSealedFile(path, npd.PlanFormat, doc); err != nil {
		return 0, err
	}
	return doc.Actions, nil
}

// readPlan reads the plan or checkpoint document at path and maps it onto
// the scenario task: the blocks operated before its phases, and its phases'
// blocks in plan order.
func readPlan(task *klotski.Task, path string) (prev *npd.PlanDocument, executed, seq []int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	if prev, err = npd.ReadPlan(data); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if executed, seq, err = prev.Sequence(task); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return prev, executed, seq, nil
}

// auditDocument independently verifies a plan or checkpoint document
// against the scenario task: the full sequence is replayed on a pristine
// serial evaluator and every observable boundary state is checked, under
// the task's forecast (-growth), from the state after the document's
// executed blocks. A sequence that stops short of the migration's end (a
// checkpoint) is audited with its endpoint as the final observable state.
func auditDocument(task *klotski.Task, cfg klotski.PipelineConfig, planPath string, stderr io.Writer) error {
	prev, executed, seq, err := readPlan(task, planPath)
	if err != nil {
		return err
	}
	opts := cfg.Options
	opts.Executed = executed
	if opts.Theta <= 0 {
		opts.Theta = prev.Theta
	}
	if opts.Alpha == 0 {
		opts.Alpha = prev.Alpha
	}
	freeOrder := cfg.Planner.FreeOrder()
	var rep *klotski.AuditReport
	if len(executed)+len(seq) < task.NumActions() {
		rep, err = klotski.AuditPartialPlan(task, seq, opts, freeOrder)
	} else {
		rep, err = klotski.AuditPlan(task, seq, opts, freeOrder)
	}
	if err != nil {
		return err
	}
	if !rep.Passed {
		fmt.Fprintf(stderr, "audit FAILED: %s\n", rep)
		return fmt.Errorf("audit of %s failed at step %d: %s", planPath, rep.FailStep, rep.Reason)
	}
	fmt.Fprintf(stderr, "audit passed: %s: %d actions, %d states checked, worst utilization %.4f\n",
		planPath, len(seq), rep.StatesChecked, rep.WorstUtil)
	return nil
}

// replanFromDocument treats as done the earlier document's executed blocks
// and the first n actions of its phases, and re-plans the remainder.
func replanFromDocument(ctx context.Context, task *klotski.Task, cfg klotski.PipelineConfig, planPath string, n int) (*klotski.PipelineResult, error) {
	_, executed, seq, err := readPlan(task, planPath)
	if err != nil {
		return nil, err
	}
	if len(seq) < n {
		return nil, fmt.Errorf("-executed %d exceeds the %d actions in %s", n, len(seq), planPath)
	}
	executed = append(executed, seq[:n]...)
	plan, err := klotski.ReplanMigrationContext(ctx, task, executed, nil, cfg)
	if err != nil {
		return nil, err
	}
	planDoc, err := npd.BuildPlanDocumentFrom(task, executed, plan, cfg.Options)
	if err != nil {
		return nil, err
	}
	return &klotski.PipelineResult{Task: task, Plan: plan, Document: planDoc}, nil
}
