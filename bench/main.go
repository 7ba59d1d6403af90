// Command bench is the repository's benchmark: it drives the real klotski
// and klotskid binaries over four named workloads, checks every output and
// prints every metric by name and unit. See README.md in this directory.
//
//	go run -C bench . -workload plan-large [-seed N] [-seconds S] [-trace 0|1] [-ops N]
//	go run -C bench .                      # all four workloads
//	go run -C bench . -record              # all four, appended to history.jsonl
//	go run -C bench . selfcheck            # three sets back to back, compared
//	go run -C bench . compare parent.json change.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "selfcheck":
			if len(args) > 1 {
				return fmt.Errorf("selfcheck takes no arguments")
			}
			return selfcheck(ctx, stdout)
		case "compare":
			return compare(args[1:], stdout)
		}
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run (default: all four, one after another)")
		seed    = fs.Int64("seed", defaultSeed, "workload seed: orders chaos seeds, fleet members and daemon jobs; never changes a fabric")
		seconds = fs.Int("seconds", 0, "target length of the measured phase; scales the fixed op counts (default: run_seconds of BENCHMARK.json)")
		trace   = fs.Int("trace", 0, "1 replays the op in-process with spans and prints the per-layer metrics instead")
		ops     = fs.Int("ops", 0, "override the workload's op count")
		record  = fs.Bool("record", false, "run all four workloads and append one line to bench/history.jsonl")
		jsonOut = fs.String("json", "", "also append the results of this invocation to the JSON array in this file (input of compare)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	if *record && (*name != "" || *trace != 0) {
		return fmt.Errorf("-record runs all four workloads untraced; drop -workload and -trace")
	}

	e, err := newEnv(ctx)
	if err != nil {
		return err
	}
	defer e.close()
	if *seconds <= 0 {
		*seconds = e.spec.RunSeconds
	}

	var results []*result
	incorrect := 0
	for _, w := range selected {
		var res *result
		if *trace != 0 {
			res, err = runTraced(ctx, e, w, *seed, *seconds)
		} else {
			res, err = runEndToEnd(ctx, e, w, *seed, *seconds, *ops)
		}
		if err != nil {
			return err
		}
		res.print(stdout, e)
		// The driver reads the last line of a single-workload run.
		fmt.Fprintln(stdout, res.resultLine())
		if !res.Correct {
			incorrect++
		}
		results = append(results, res)
	}
	if *jsonOut != "" {
		if err := appendResults(*jsonOut, results); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workload(s) failed an output check", incorrect)
	}
	if *record {
		return appendHistory(ctx, e, *seed, results)
	}
	return nil
}
