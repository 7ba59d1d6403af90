// Command benchguard turns `go test -bench` output into a committed
// performance baseline and fails when the current run regresses past a
// tolerance. It reads benchmark output on stdin:
//
//	go test -run '^$' -bench BenchmarkPlannerGuard -benchtime 10x . |
//	    benchguard -baseline BENCH_planner.json
//
// Each benchmark line is parsed into its metric pairs (ns/op, states/op,
// hit-rate, B/op, ...). If the baseline file does not exist, benchguard
// bootstraps it from the current run and exits zero — so the first CI run
// on a new branch self-initializes instead of failing. Otherwise every
// guarded metric is compared against the baseline and the run fails if
// any grows by more than -max-slowdown (default 0.30, chosen to clear
// shared-runner noise while catching algorithmic regressions; states/op
// is deterministic, so even small growth there trips the wall-clock
// tolerance only when real).
//
// Beyond the absolute baseline, RELATIONAL invariants are enforced on the
// large guard fixture (BenchmarkPlannerGuardLarge) and the fleet fixture
// (BenchmarkFleetGuard) whenever their entries appear in the run,
// comparing entries of the same run against each other — immune to
// machine speed, sensitive only to the ratios the design promises:
//
//   - The audited defaults (AStar/DP) must not exceed their NoAudit twins
//     by more than -max-audit-overhead: the serial safety replay must stay
//     a small fraction of planning.
//   - The fleet guard fixture's pooled entry (FleetGuard/Fleet) must not
//     exceed the same run's sequential and naive-concurrent entries by more
//     than -max-fleet-excess: admitting serial plans through the shared
//     admission pool has to beat planning the fleet one at a time AND
//     starting every plan at once (on a single CPU all three shapes resolve
//     to near-serial execution and tie).
//   - With -min-prune-ratio r > 0, the bound-pruned entries
//     (AStarBounded/DPBounded) must come in at least r below their
//     unpruned twins in states/op — the lower-bound engine must actually
//     prune. The Bounded entries share one warm engine across iterations,
//     so this rule needs -benchtime well above 1x (the first, cold
//     iteration learns the cuts the rest exploit; at 1x the ratio is 1).
//
// Relational violations also block -update, so a baseline that breaks the
// invariants cannot be committed by accident.
//
// Regenerate the baseline deliberately with -update after an accepted
// performance change.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result holds the parsed metrics of one benchmark, keyed by unit
// ("ns/op", "states/op", ...).
type Result map[string]float64

// Baseline is the on-disk format: benchmark name (GOMAXPROCS suffix
// stripped) → metrics.
type Baseline struct {
	Benchmarks map[string]Result `json:"benchmarks"`
}

// guardedUnits are the metrics compared against the baseline. Growth
// beyond the tolerance in any of them fails the guard; other reported
// units (B/op, hit-rate) are recorded for inspection but not enforced —
// hit-rate in particular regresses by *shrinking*, which a slowdown
// threshold cannot express, and it already shows up as states/op growth.
var guardedUnits = []string{"ns/op", "states/op"}

// cpuSuffix strips the trailing -N GOMAXPROCS marker go test appends to
// benchmark names, so baselines transfer across machines.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

func parseBench(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := cpuSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), "")
		res := make(Result)
		// fields[1] is the iteration count; the rest are value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchguard: bad value %q in line %q", fields[i], line)
			}
			res[fields[i+1]] = v
		}
		out[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchguard: reading input: %w", err)
	}
	return out, nil
}

func writeBaseline(path string, b Baseline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(stdin io.Reader, stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("benchguard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH_planner.json", "baseline file to compare against")
	maxSlowdown := fs.Float64("max-slowdown", 0.30, "maximum tolerated fractional growth per guarded metric")
	maxAuditOverhead := fs.Float64("max-audit-overhead", 0.15, "maximum tolerated ns/op excess of the large fixture's audited entries over their NoAudit twins (what the serial audit may cost)")
	maxFleetExcess := fs.Float64("max-fleet-excess", 0.10, "maximum tolerated ns/op excess of the fleet fixture's admission-pool entry over the sequential and naive-concurrent entries")
	minPruneRatio := fs.Float64("min-prune-ratio", 0, "minimum required fractional states/op reduction of the large fixture's Bounded entries vs their unpruned twins (0 = off; needs a warm engine, i.e. -benchtime well above 1x)")
	update := fs.Bool("update", false, "rewrite the baseline from the current run instead of comparing")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	current, err := parseBench(stdin)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(current) == 0 {
		fmt.Fprintln(stderr, "benchguard: no benchmark lines on stdin (did the bench run fail?)")
		return 2
	}

	relFailures := checkRelational(current, *maxAuditOverhead, *minPruneRatio, *maxFleetExcess, stdout)

	base, err := readBaseline(*baselinePath)
	if os.IsNotExist(err) && !*update {
		fmt.Fprintf(stderr, "benchguard: no baseline at %s; bootstrapping from current run\n", *baselinePath)
		*update = true
	} else if err != nil && !*update {
		fmt.Fprintf(stderr, "benchguard: %v\n", err)
		return 2
	}
	if *update {
		if relFailures > 0 {
			fmt.Fprintf(stderr, "benchguard: refusing to write baseline: %d relational invariant(s) violated (rerun, or raise -max-audit-overhead/-max-fleet-excess deliberately)\n", relFailures)
			return 1
		}
		if err := writeBaseline(*baselinePath, Baseline{Benchmarks: current}); err != nil {
			fmt.Fprintf(stderr, "benchguard: writing baseline: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "benchguard: wrote baseline %s (%d benchmarks)\n", *baselinePath, len(current))
		return 0
	}

	failures := relFailures
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := current[name]
		if !ok {
			fmt.Fprintf(stderr, "FAIL %s: benchmark missing from current run\n", name)
			failures++
			continue
		}
		for _, unit := range guardedUnits {
			bv, inBase := want[unit]
			gv, inCur := got[unit]
			if !inBase || bv <= 0 {
				continue
			}
			if !inCur {
				fmt.Fprintf(stderr, "FAIL %s: metric %s missing from current run\n", name, unit)
				failures++
				continue
			}
			growth := gv/bv - 1
			status := "ok  "
			if growth > *maxSlowdown {
				status = "FAIL"
				failures++
			}
			fmt.Fprintf(stdout, "%s %s %s: baseline %.4g, current %.4g (%+.1f%%, limit +%.0f%%)\n",
				status, name, unit, bv, gv, growth*100, *maxSlowdown*100)
		}
	}
	for name := range current {
		if _, ok := base.Benchmarks[name]; !ok {
			fmt.Fprintf(stdout, "note %s: not in baseline (run with -update to add)\n", name)
		}
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "benchguard: %d regression(s) beyond +%.0f%%\n", failures, *maxSlowdown*100)
		return 1
	}
	return 0
}

// checkRelational enforces the same-run ratio invariants: audited vs
// NoAudit ns/op, fleet vs sequential and naive ns/op, and — when
// -min-prune-ratio is set — bound-pruned vs unpruned states/op. Rules
// whose entries are absent from the run are skipped silently — other
// bench selections (the micro guard, the evaluator benches) carry no
// relational contract. A rule with a negative limit is a floor in
// disguise: the numerator must come in at least |limit| BELOW the
// denominator, which is how the prune-ratio rule demands a minimum
// states/op reduction instead of tolerating a maximum excess.
func checkRelational(current map[string]Result, maxAuditOverhead, minPruneRatio, maxFleetExcess float64, stdout io.Writer) int {
	type rule struct {
		what     string
		num, den string
		unit     string
		limit    float64
	}
	rules := []rule{
		{"audit-overhead", "PlannerGuardLarge/AStar", "PlannerGuardLarge/AStarNoAudit", "ns/op", maxAuditOverhead},
		{"audit-overhead", "PlannerGuardLarge/DP", "PlannerGuardLarge/DPNoAudit", "ns/op", maxAuditOverhead},
		{"fleet-vs-sequential", "FleetGuard/Fleet", "FleetGuard/Sequential", "ns/op", maxFleetExcess},
		{"fleet-vs-naive", "FleetGuard/Fleet", "FleetGuard/Naive", "ns/op", maxFleetExcess},
	}
	if minPruneRatio > 0 {
		rules = append(rules,
			rule{"prune-ratio", "PlannerGuardLarge/AStarBounded", "PlannerGuardLarge/AStar", "states/op", -minPruneRatio},
			rule{"prune-ratio", "PlannerGuardLarge/DPBounded", "PlannerGuardLarge/DP", "states/op", -minPruneRatio},
		)
	}
	failures := 0
	for _, r := range rules {
		num, okN := current[r.num][r.unit]
		den, okD := current[r.den][r.unit]
		if !okN || !okD || den <= 0 {
			continue
		}
		excess := num/den - 1
		status := "ok  "
		if excess > r.limit {
			status = "FAIL"
			failures++
		}
		fmt.Fprintf(stdout, "%s %s: %s %.4g %s vs %s %.4g %s (%+.1f%%, limit %+.0f%%)\n",
			status, r.what, r.num, num, r.unit, r.den, den, r.unit, excess*100, r.limit*100)
	}
	return failures
}

func readBaseline(path string) (Baseline, error) {
	var b Baseline
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("benchguard: parsing baseline %s: %w", path, err)
	}
	return b, nil
}

func main() {
	os.Exit(run(os.Stdin, os.Stdout, os.Stderr, os.Args[1:]))
}
