// Command klotski plans a datacenter network migration from an NPD
// document and emits the ordered topology phases as JSON.
//
// Usage:
//
//	klotski -npd region.json [-o plan.json] [-planner astar|dp|mrc|janus]
//	        [-theta 0.75] [-alpha 0] [-growth 0] [-maxrun 0] [-timeout 5m] [-v]
//	        [-gap] [-gap-max 0] [-simulate 0] [-checkpoint ckpt.json]
//	        [-chaos 0] [-chaos-faults 3] [-chaos-seed 1]
//	        [-drift-threshold 0] [-gap-skip 0] [-demand-margin 1.25]
//	        [-stats-out stats.json]
//	klotski -npd region.json -resume plan.json -executed 12   # replan the rest
//	klotski -npd region.json -audit plan.json                 # verify offline
//	klotski -fleet manifest.json [-fleet-workers 0] [-fleet-checkpoint-dir ckpts/]
//
// klotski runs in one of four modes: plan, resume (-resume), audit (-audit)
// and fleet (-fleet). A flag its mode does not read is refused, as is a
// value outside its range; the campaign's flags need -chaos > 0.
//
// Plan reads an NPD document with a migration part (see cmd/topogen) and
// writes the plan document; -v prints its runs and per-phase network
// snapshots, and -simulate N replays it N times with randomized asynchrony.
// -gap prints the plan's optimality certificate (incumbent cost, proven
// lower bound, certified relative gap), and -gap-max G exits non-zero when
// the gap exceeds G. On SIGINT or -timeout expiry the search stops, and
// -checkpoint seals its best safe partial sequence as a plan document that
// resume accepts once those actions have been executed.
//
// Resume treats as done the blocks an earlier plan document lists as
// executed and the first -executed actions of its phases, and re-plans the
// remainder (demand may have shifted: pass -growth or edit the NPD demand
// part); the new document lists all of them. The replan starts in the run
// those actions leave in progress: under -maxrun its first phase finishes
// the current chunk. A* and DP refuse an executed prefix out of canonical
// within-type order, such as a cut of an MRC plan; resume one with
// -planner mrc or janus.
//
// Audit verifies a plan or checkpoint document against the NPD scenario —
// every boundary state replayed on a pristine serial evaluator — and exits
// non-zero if any state violates the constraints or the sequence was
// tampered with.
//
// -chaos N drives the migration through N Monte Carlo runs of the
// fault-tolerant control loop, each under a random train of -chaos-faults
// faults, and reports completion rate and worst-case utilization to
// stderr. -drift-threshold > 0 replans on observed demand drift and plans
// against the last good demand inflated by -demand-margin when telemetry
// is unusable; -gap-skip G skips a drift replan when the remaining plan
// re-audits safe within G of the completion lower bound.
//
// Fleet plans a manifest of members
// ({"members":[{"name","npd","planner","priority","min_share"}]})
// concurrently under one pool of -fleet-workers workers (0 = GOMAXPROCS),
// higher priorities preempting lower ones, and writes the fleet report to
// -o; it exits non-zero if any member failed. On SIGINT or SIGTERM every
// member halts at a checkpoint and the report is still written, after
// -fleet-checkpoint-dir seals each interrupted member as <member>.ckpt.json.
//
// In every mode -stats-out writes a JSON snapshot of the instruments when
// the run ends, interrupted or not; to watch a long plan live, submit it to
// klotskid, whose -ops-addr serves the same snapshot.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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
	c, err := parse(args, stderr)
	if err != nil {
		return err
	}

	// The recorder is wired into the planners only when an export is
	// requested; a nil recorder costs the search one branch per event.
	var rec *klotski.ObsRecorder
	if c.statsOut != "" {
		reg := klotski.DefaultObsRegistry()
		rec = klotski.NewObsRecorder(reg)
		// Deferred so interrupted runs still leave a snapshot behind.
		defer func() {
			if werr := writeOutput(c.statsOut, nil, reg.WriteJSON); werr != nil {
				fmt.Fprintln(stderr, "klotski: writing stats:", werr)
			}
		}()
	}

	cfgOpts := klotski.Options{
		Theta: c.theta, Alpha: c.alpha, Timeout: c.timeout, MaxRunLength: c.maxRun,
		Workers: c.workers, Recorder: rec,
	}
	if c.fleet != "" {
		return runFleet(ctx, c.fleet, c.fleetWorkers, c.fleetCkptDir, cfgOpts, c.out, stdout, stderr, rec)
	}

	task, _, err := loadTask(c.npd)
	if err != nil {
		return err
	}
	if c.growth > 0 {
		task = task.WithForecast(klotski.Forecast{GrowthPerStep: c.growth})
	}

	cfg := klotski.PipelineConfig{
		Planner:       klotski.PlannerName(c.planner),
		CampaignSeeds: c.simulate,
		Options:       cfgOpts,
	}

	if c.audit != "" {
		return auditDocument(task, cfg, c.audit, stderr)
	}

	start := time.Now()
	var res *klotski.PipelineResult
	if c.resume != "" {
		res, err = replanFromDocument(ctx, task, cfg, c.resume, c.executed)
	} else {
		res, err = klotski.RunPipelineTaskContext(ctx, task, cfg)
	}
	if err != nil {
		var interrupted *klotski.Interrupted
		if errors.As(err, &interrupted) && c.checkpoint != "" {
			n, werr := writeCheckpoint(c.checkpoint, interrupted)
			if werr != nil {
				return fmt.Errorf("%w (writing checkpoint also failed: %v)", err, werr)
			}
			fmt.Fprintf(stderr, "planning interrupted (%v); %d safe actions checkpointed to %s\n", interrupted.Reason, n, c.checkpoint)
			fmt.Fprintf(stderr, "after executing them, continue with: -resume %s -executed %d\n", c.checkpoint, n)
		}
		return err
	}

	m := res.Plan.Metrics
	if c.gap || c.gapMax >= 0 {
		fmt.Fprintf(stderr, "optimality certificate: incumbent %g, lower bound %g, gap %.2f%%\n",
			m.IncumbentCost, m.LowerBound, m.OptimalityGap*100)
	}
	if c.verbose {
		fmt.Fprintf(stderr, "planned in %s (%d states, %d checks, %d cache hits, %d misses)\n",
			time.Since(start).Round(time.Millisecond), m.StatesCreated, m.Checks, m.CacheHits, m.CacheMisses)
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
	if c.chaos > 0 {
		campaign := klotski.ChaosCampaignOptions{
			Seeds: c.chaos,
			Seed:  c.chaosSeed,
			// Telemetry faults are only drawn when the drift loop consuming
			// them is on, keeping pre-drift seeds byte-identical.
			Schedule: klotski.FaultScheduleOptions{Faults: c.chaosFaults, Telemetry: c.driftThreshold > 0},
			Run: klotski.ControlOptions{
				Config:           cfg,
				DriftThreshold:   c.driftThreshold,
				GapSkipThreshold: c.gapSkip,
				DemandMargin:     c.demandMargin,
			},
		}
		if c.resume == "" {
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

	if err := writeOutput(c.out, stdout, res.Document.Encode); err != nil {
		return err
	}
	if c.gapMax >= 0 && m.OptimalityGap > c.gapMax {
		return fmt.Errorf("certified optimality gap %.4f exceeds -gap-max %g (incumbent %g, lower bound %g)",
			m.OptimalityGap, c.gapMax, m.IncumbentCost, m.LowerBound)
	}
	return nil
}

// config is what one command line asks for.
type config struct {
	npd, out, planner, resume, audit, checkpoint, fleet, fleetCkptDir, statsOut string
	theta, alpha, growth, gapMax, driftThreshold, gapSkip, demandMargin         float64
	maxRun, workers, executed, simulate, chaos, chaosFaults, fleetWorkers       int
	chaosSeed                                                                   int64
	timeout                                                                     time.Duration
	verbose, gap                                                                bool
}

// flagSet declares klotski's flags over c. Each has a row in flagTable.
func (c *config) flagSet(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("klotski", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.npd, "npd", "", "path to the NPD document (required)")
	fs.StringVar(&c.out, "o", "", "write the plan document here (default stdout)")
	fs.StringVar(&c.planner, "planner", "astar", "planner: astar, dp, mrc, janus")
	fs.Float64Var(&c.theta, "theta", 0, "utilization bound (default 0.75)")
	fs.Float64Var(&c.alpha, "alpha", 0, "within-run marginal cost α of f_cost(x)=1+α(x−1)")
	fs.Float64Var(&c.growth, "growth", 0, "forecasted demand growth per migration step (e.g. 0.002)")
	fs.IntVar(&c.maxRun, "maxrun", 0, "maintenance-window cap: max same-type actions per run (0 = unlimited)")
	fs.IntVar(&c.workers, "workers", -1, "deprecated and ignored: the search and its audit are serial")
	fs.DurationVar(&c.timeout, "timeout", 5*time.Minute, "planning time budget")
	fs.BoolVar(&c.verbose, "v", false, "print the plan's runs and phase snapshots to stderr")
	fs.BoolVar(&c.gap, "gap", false, "print the plan's certified optimality certificate (incumbent cost, proven lower bound, relative gap) to stderr")
	fs.Float64Var(&c.gapMax, "gap-max", -1, "exit non-zero when the certified relative optimality gap exceeds this value (e.g. 0 demands a proven-optimal plan; unset = off)")
	fs.StringVar(&c.resume, "resume", "", "earlier plan document to resume from")
	fs.IntVar(&c.executed, "executed", 0, "number of actions of the -resume plan already executed")
	fs.IntVar(&c.simulate, "simulate", 0, "replay the plan this many times with randomized asynchrony and report transient exposure")
	fs.StringVar(&c.audit, "audit", "", "independently verify this plan or checkpoint document against the NPD scenario and exit")
	fs.StringVar(&c.checkpoint, "checkpoint", "", "on interrupted planning (SIGINT, -timeout), write the best safe partial sequence here")
	fs.IntVar(&c.chaos, "chaos", 0, "run the plan through this many chaos-campaign control-loop runs")
	fs.IntVar(&c.chaosFaults, "chaos-faults", 3, "faults per chaos run")
	fs.Int64Var(&c.chaosSeed, "chaos-seed", 1, "base seed for the chaos campaign")
	fs.Float64Var(&c.driftThreshold, "drift-threshold", 0, "chaos-campaign demand-drift replan threshold (relative L1 deviation; 0 = drift loop off)")
	fs.Float64Var(&c.gapSkip, "gap-skip", 0, "skip drift replans when the remaining plan re-audits safe and its cost is certified within this relative gap of the completion lower bound (0 = off)")
	fs.Float64Var(&c.demandMargin, "demand-margin", 1.25, "degraded-mode demand envelope multiplier when telemetry is unusable")
	fs.StringVar(&c.fleet, "fleet", "", "plan a fleet: JSON manifest of members ({\"members\":[{\"name\",\"npd\",\"planner\",\"priority\",\"min_share\"}]}) planned concurrently under one shared admission pool")
	fs.IntVar(&c.fleetWorkers, "fleet-workers", 0, "how many -fleet members plan at once, the pool's worker budget (0 = GOMAXPROCS)")
	fs.StringVar(&c.fleetCkptDir, "fleet-checkpoint-dir", "", "on interrupted fleet planning (SIGINT, SIGTERM, -timeout), seal every interrupted member's best safe partial sequence into this directory (<member>.ckpt.json)")
	fs.StringVar(&c.statsOut, "stats-out", "", "write a JSON observability snapshot (counters, gauges, histograms, spans) here on exit")
	return fs
}

// parse reads a command line and, before any file is opened, refuses a
// flag its mode does not read or a value outside its flag's range.
func parse(args []string, stderr io.Writer) (*config, error) {
	c := new(config)
	fs := c.flagSet(stderr)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q: every input is named by a flag", fs.Arg(0))
	}
	m := c.mode()
	if c.npd == "" && m != modeFleet {
		fs.Usage()
		return nil, fmt.Errorf("-npd (or -fleet) is required")
	}
	return c, checkFlags(fs, m)
}

// A mode is one way klotski runs: plan (the default), resume (-resume),
// audit (-audit) or fleet (-fleet). modeCampaign joins plan or resume when
// -chaos > 0, and only then are the campaign's own flags read.
type mode uint8

const (
	modePlan mode = 1 << iota
	modeResume
	modeAudit
	modeFleet
	modeCampaign

	planning = modePlan | modeResume
	anyMode  = planning | modeAudit | modeFleet
)

var modeNames = map[mode]string{modePlan: "plan mode", modeResume: "resume mode (-resume)", modeAudit: "audit mode (-audit)", modeFleet: "fleet mode (-fleet)"}

// mode is the mode the command line chose.
func (c *config) mode() mode {
	m := modePlan
	switch {
	case c.fleet != "":
		return modeFleet
	case c.audit != "":
		return modeAudit
	case c.resume != "":
		m = modeResume
	}
	if c.chaos > 0 {
		m |= modeCampaign
	}
	return m
}

// span is a numeric flag's range: the values x with x rel min (">=" or ">").
type span struct {
	rel string
	min float64
}

// flagTable has one row for every flag: the modes that read it and, for a
// number that has one, its range.
var flagTable = map[string]struct {
	modes mode
	rng   *span
}{
	"npd":                  {planning | modeAudit, nil},
	"o":                    {planning | modeFleet, nil},
	"planner":              {planning | modeAudit, nil},
	"theta":                {anyMode, nil},
	"alpha":                {anyMode, nil},
	"growth":               {planning | modeAudit, &span{">=", 0}},
	"maxrun":               {anyMode, nil},
	"workers":              {anyMode, nil}, // deprecated and ignored; bench/ passes -workers 1
	"timeout":              {planning | modeFleet, &span{">=", 0}},
	"v":                    {planning, nil},
	"gap":                  {planning, nil},
	"gap-max":              {planning, &span{">=", 0}},
	"resume":               {modeResume, nil},
	"executed":             {modeResume, &span{">=", 0}},
	"simulate":             {modePlan, &span{">=", 0}},
	"audit":                {modeAudit, nil},
	"checkpoint":           {planning, nil},
	"chaos":                {planning, &span{">=", 0}},
	"chaos-faults":         {modeCampaign, &span{">=", 1}},
	"chaos-seed":           {modeCampaign, nil},
	"drift-threshold":      {modeCampaign, &span{">=", 0}},
	"gap-skip":             {modeCampaign, &span{">=", 0}},
	"demand-margin":        {modeCampaign, &span{">", 1}},
	"fleet":                {modeFleet, nil},
	"fleet-workers":        {modeFleet, &span{">=", 0}},
	"fleet-checkpoint-dir": {modeFleet, nil},
	"stats-out":            {anyMode, nil},
}

// checkFlags refuses every flag set on the command line that mode m does
// not read, and every value outside its flag's range.
func checkFlags(fs *flag.FlagSet, m mode) error {
	name := modeNames[m&^modeCampaign]
	var errs []error
	fs.Visit(func(f *flag.Flag) {
		row := flagTable[f.Name]
		switch {
		case row.modes == modeCampaign && m&planning != 0 && m&modeCampaign == 0:
			errs = append(errs, fmt.Errorf("%s reads -%s only with -chaos > 0", name, f.Name))
		case row.modes&m == 0:
			errs = append(errs, fmt.Errorf("%s does not read -%s", name, f.Name))
		case row.rng != nil && !row.rng.holds(f.Value):
			errs = append(errs, fmt.Errorf("-%s %s is out of range in %s: it must be %s %g", f.Name, f.Value, name, row.rng.rel, row.rng.min))
		}
	})
	return errors.Join(errs...)
}

// holds reports whether a flag's value lies in s.
func (s *span) holds(v flag.Value) bool {
	var x float64
	switch g := v.(flag.Getter).Get().(type) {
	case int:
		x = float64(g)
	case float64:
		x = g
	case time.Duration:
		x = g.Seconds()
	}
	return x > s.min || x == s.min && s.rel == ">="
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

// runFleet builds every manifest member's task within the pool's worker
// budget, plans the fleet under that pool, prints the one-line summary to
// stderr and writes the JSON fleet report to -o (default stdout), failing
// after it if any member failed. An interrupted fleet still writes the
// report, after sealing every interrupted member's checkpoint into ckptDir.
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

	out := fleetOut{Completed: rep.Completed, Failed: rep.Failed, Admitted: rep.Admitted,
		Preemptions: rep.Preemptions, TotalCost: rep.TotalCost, MakespanMS: rep.Makespan.Milliseconds()}
	for _, m := range rep.Members {
		row := fleetMemberOut{Name: m.Name, Preemptions: m.Preemptions,
			WaitMS: m.Wait.Milliseconds(), ElapsedMS: m.Elapsed.Milliseconds()}
		if m.Err != nil {
			row.Error = m.Err.Error()
		} else if m.Plan != nil {
			row.Completed, row.Actions, row.Cost, row.Gap = true, len(m.Plan.Sequence), m.Plan.Cost, m.Plan.Metrics.OptimalityGap
		}
		out.Members = append(out.Members, row)
	}

	err = writeOutput(outPath, stdout, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	})
	if err != nil {
		return err
	}
	if fleetErr != nil {
		return fleetErr
	}
	if rep.Failed > 0 {
		return fmt.Errorf("fleet: %d of %d members failed", rep.Failed, len(rep.Members))
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
				task, name, err := loadTask(manifest[i].NPD)
				members[i], errs[i] = klotski.FleetMember{Name: cmp.Or(manifest[i].Name, name), Task: task}, err
			}
		}()
	}
	wg.Wait()
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return members, nil
}

// loadTask decodes the NPD document at path and builds its task; name is
// the document's own.
func loadTask(path string) (task *klotski.Task, name string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	doc, err := klotski.LoadNPD(f)
	f.Close()
	if err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	if task, _, err = doc.Task(); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	return task, doc.Name, nil
}

// checkpointFleetMembers seals the best safe partial sequence of every
// interrupted fleet member into dir as <member>.ckpt.json, the document
// -checkpoint writes. A write failure is reported to stderr and does not
// mask the interruption: the fleet report is the record.
func checkpointFleetMembers(rep *klotski.FleetReport, dir string, stderr io.Writer) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "klotski: creating -fleet-checkpoint-dir:", err)
		return
	}
	for i, m := range rep.Members {
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
	}
}

// fleetMemberLabel names fleet member i in checkpoint files and messages:
// its name, or member-<i> when it has none.
func fleetMemberLabel(i int, name string) string {
	return cmp.Or(name, fmt.Sprintf("member-%d", i))
}

// fleetCheckpointName maps a manifest member name to its checkpoint file
// name, flattening path separators so a creative member name cannot
// escape the checkpoint directory.
func fleetCheckpointName(name string) string {
	return strings.NewReplacer("/", "_", `\`, "_").Replace(name) + ".ckpt.json"
}

// writeOutput calls write on the file it creates at path, or on stdout
// when path is empty.
func writeOutput(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "" {
		return write(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
	opts.Theta = cmp.Or(opts.Theta, prev.Theta)
	opts.Alpha = cmp.Or(opts.Alpha, prev.Alpha)
	audit := klotski.AuditPlan
	if len(executed)+len(seq) < task.NumActions() {
		audit = klotski.AuditPartialPlan
	}
	rep, err := audit(task, seq, opts, cfg.Planner.FreeOrder())
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
