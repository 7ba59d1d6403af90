// Command klotskid is the planning-as-a-service daemon: the paper's §5
// production pipeline (EDP-Lite) runs the planner as a long-lived
// service that operators submit migration requests to, and klotskid is
// that service for this codebase.
//
//	klotskid -dir /var/lib/klotskid -addr localhost:8080 [-ops-addr localhost:6060]
//	         [-pool-workers N] [-leg-states N] [-admit-wait 2s]
//	         [-theta 0.75] [-alpha 0.1] [-maxrun N]
//
// The HTTP/JSON API (see internal/serve):
//
//	POST   /v1/jobs              submit {npd, planner, theta, priority, …} → job ID
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         poll status (state, legs, incumbent, gap)
//	GET    /v1/jobs/{id}/stream  NDJSON anytime stream as the plan improves
//	GET    /v1/jobs/{id}/plan    the audited final plan document
//	GET    /v1/jobs/{id}/checkpoint  latest sealed checkpoint envelope
//	POST   /v1/jobs/{id}/cancel  cancel
//	GET    /healthz              ok / draining
//
// Jobs plan on a shared worker pool with per-job priority and worker
// shares; a submission that cannot be admitted within -admit-wait
// degrades to serial planning rather than being rejected. Every job
// transition is journaled (write-ahead, checksummed, fsynced) in -dir,
// so the daemon can be SIGKILLed at any instant and a restart recovers
// every job: finished plans are served from the journal, in-flight jobs
// replan deterministically to byte-identical plans. SIGTERM/SIGINT
// drains gracefully: every running job checkpoints (sealed envelope +
// journal record), then the process exits cleanly.
//
// A default no job could plan with — a -theta, -alpha or -maxrun that
// core.Options.Validate rejects, a negative -pool-workers or -leg-states —
// stops the daemon before it listens, as do a negative -leg-pause and a
// positional argument; a request is held to the same rule and answered 400.
//
// -ops-addr serves the operational surface: /debug/vars (expvar),
// /debug/pprof/*, and /debug/stats — the same JSON document the CLI's
// -stats-out writes, with the serve.* job counters included.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"klotski/internal/core"
	"klotski/internal/obs"
	"klotski/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "klotskid:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("klotskid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "localhost:8080", "HTTP API listen address")
		opsAddr = fs.String("ops-addr", "", "operational surface listen address (expvar, pprof, /debug/stats); empty disables")
		dir     = fs.String("dir", "", "state directory for job journals and checkpoints (required)")

		poolWorkers = fs.Int("pool-workers", 0, "shared planning pool size (0 = GOMAXPROCS)")
		legStates   = fs.Int("leg-states", 0, "per-leg state budget between checkpoints (0 = 50000)")
		admitWait   = fs.Duration("admit-wait", 2*time.Second, "max wait for pool admission before a job degrades to serial planning (0 = 2s; negative waits forever and never degrades)")
		legPause    = fs.Duration("leg-pause", 0, "pause between planning legs — throttles background planning so anytime progress is observable (mainly for tests and demos)")

		theta  = fs.Float64("theta", 0, "default utilization bound for jobs that do not set one (0 = 0.75)")
		alpha  = fs.Float64("alpha", 0, "default within-run marginal cost α")
		maxRun = fs.Int("maxrun", 0, "default maintenance-window cap: max same-type actions per run (0 = unlimited)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: every input is named by a flag", fs.Arg(0))
	}
	if *dir == "" {
		fs.Usage()
		return errors.New("-dir is required")
	}
	if *legPause < 0 {
		return fmt.Errorf("-leg-pause %v is negative: it must be 0 (no pause) or more", *legPause)
	}

	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg)
	cfg := serve.Config{
		Dir:         *dir,
		PoolWorkers: *poolWorkers,
		LegStates:   *legStates,
		AdmitWait:   *admitWait,
		Options: core.Options{
			Theta:        *theta,
			Alpha:        *alpha,
			MaxRunLength: *maxRun,
		},
		Recorder: rec,
	}
	if *legPause > 0 {
		cfg.LegHook = func(string, int) error {
			time.Sleep(*legPause)
			return nil
		}
	}

	m, err := serve.Open(cfg)
	if err != nil {
		return err
	}
	defer m.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	api := serve.NewHTTPServer(serve.NewHandler(m))
	fmt.Fprintf(stderr, "klotskid listening on http://%s (state dir %s)\n", ln.Addr(), *dir)
	go api.Serve(ln)

	var ops *http.Server
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			ln.Close()
			return err
		}
		serve.PublishExpvar(reg, "klotskid")
		ops = serve.NewHTTPServer(serve.DebugHandler(reg))
		fmt.Fprintf(stderr, "klotskid ops on http://%s (expvar /debug/vars, pprof /debug/pprof/, stats /debug/stats)\n", opsLn.Addr())
		go ops.Serve(opsLn)
	}

	<-ctx.Done()
	fmt.Fprintln(stderr, "klotskid: draining — checkpointing all jobs")
	m.Drain()
	api.Close()
	if ops != nil {
		ops.Close()
	}
	fmt.Fprintln(stderr, "klotskid: drained cleanly")
	return nil
}
