package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// exactLayerCounts are the per-layer metrics that are counts of work done
// by deterministic code: selfcheck requires them to repeat exactly.
var exactLayerCounts = []string{
	"core.checks", "core.states_expanded", "core.states_created", "audit.steps_checked",
	"serve.journal_records_per_job", "serve.journal_bytes_per_job", "serve.files_per_job",
}

// selfcheckSets is how many sets of runs selfcheck compares.
const selfcheckSets = 3

// selfcheck runs every workload selfcheckSets times back to back on the same
// binaries, untraced and traced, at the default seed and run length, and
// fails if the sets disagree by more than the benchmark's own bounds or in
// an exact layer count: a benchmark that cannot agree with itself cannot
// judge a change.
func selfcheck(ctx context.Context, stdout io.Writer) error {
	e, err := newEnv(ctx)
	if err != nil {
		return err
	}
	defer e.close()
	failures := 0
	fmt.Fprintf(stdout, "| workload | metric | %s | largest pairwise difference | bound | verdict |\n", setHeader(selfcheckSets))
	fmt.Fprintf(stdout, "|---|---|%s---|---|---|\n", strings.Repeat("---|", selfcheckSets))
	for _, w := range workloads {
		var runs, layers []*result
		for s := 1; s <= selfcheckSets; s++ {
			res, err := runEndToEnd(ctx, e, w, defaultSeed, e.spec.RunSeconds, 0)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s set %d failed an output check: %v", w.name, s, res.Problems)
			}
			runs = append(runs, res)
			res, err = runTraced(ctx, e, w, defaultSeed, e.spec.RunSeconds)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s traced set %d failed a check: %v", w.name, s, res.Problems)
			}
			layers = append(layers, res)
		}
		for _, m := range e.spec.EndToEnd {
			diff := pairwiseDiff(valuesOf(runs, m.Name))
			verdict := "ok"
			if diff > m.Bound {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(stdout, "| %s | %s (%s) | %s | %.3f | %.2f | %s |\n", w.name, m.Name, m.Unit, cells(valuesOf(runs, m.Name)), diff, m.Bound, verdict)
		}
		for _, name := range exactLayerCounts {
			xs := valuesOf(layers, name)
			verdict := "ok"
			if pairwiseDiff(xs) != 0 {
				verdict = "FAIL"
				failures++
			}
			fmt.Fprintf(stdout, "| %s | %s | %s | %.3f | exact | %s |\n", w.name, name, cells(xs), pairwiseDiff(xs), verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) differ between sets by more than their bound", failures)
	}
	return nil
}

func setHeader(n int) string {
	cols := make([]string, n)
	for i := range cols {
		cols[i] = fmt.Sprintf("set %d", i+1)
	}
	return strings.Join(cols, " | ")
}

func valuesOf(rs []*result, metric string) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Metrics[metric].Value
	}
	return xs
}

func cells(xs []float64) string {
	cols := make([]string, len(xs))
	for i, x := range xs {
		cols[i] = fmt.Sprintf("%.5g", x)
	}
	return strings.Join(cols, " | ")
}

// pairwiseDiff is the largest relative difference between any two of xs:
// (max − min) / min. Zero when all are equal, including all zero.
func pairwiseDiff(xs []float64) float64 {
	lo, hi := floor(xs), peak(xs)
	if hi == lo {
		return 0
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return (hi - lo) / lo
}

// appendResults adds this invocation's results to the JSON array in path,
// creating it if needed: compare reads two such files.
func appendResults(path string, rs []*result) error {
	var all []*result
	if err := readJSON(path, &all); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	all = append(all, rs...)
	return os.WriteFile(path, append(marshalIndent(all), '\n'), 0o644)
}

// compare applies the pairing rule to two result files written with -json,
// one from the parent commit and one from the change, runs alternated: the
// i-th run of a workload in one file is paired with the i-th in the other.
func compare(args []string, stdout io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare parent.json change.json")
	}
	var parent, change []*result
	if err := readJSON(args[0], &parent); err != nil {
		return err
	}
	if err := readJSON(args[1], &change); err != nil {
		return err
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	var sp spec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &sp); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "| workload | metric | pairs | change wins | parent median [q1, q3] | change median [q1, q3] | verdict |")
	fmt.Fprintln(stdout, "|---|---|---|---|---|---|---|")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			p := metricRuns(parent, w.Name, m.Name)
			c := metricRuns(change, w.Name, m.Name)
			v := judge(p, c, m)
			fmt.Fprintf(stdout, "| %s | %s (%s) | %d | %d | %s | %s | %s |\n", w.Name, m.Name, m.Unit, v.pairs, v.wins, quartileCell(p), quartileCell(c), v.verdict)
		}
	}
	return nil
}

func metricRuns(rs []*result, workload, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Correct {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

func quartileCell(xs []float64) string {
	if len(xs) < 2 {
		return "n/a"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", q2, q1, q3)
}

type judgement struct {
	pairs, wins, losses int
	verdict             string
}

// minPairs is the fewest parent/change pairs a verdict may rest on.
const minPairs = 10

// judge decides one workload × metric:
//
//   - regressed: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - improved: the change wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ by more than the
//     distance between the parent's own quartiles;
//   - unresolved: fewer than ten pairs, or the parent's own spread is wider
//     than the bound and not every run of the change beats every run of the
//     parent;
//   - unchanged otherwise.
func judge(parent, change []float64, m specMetric) judgement {
	n := min(len(parent), len(change))
	j := judgement{pairs: n}
	if n < minPairs {
		j.verdict = fmt.Sprintf("unresolved (%d pairs, need %d)", n, minPairs)
		return j
	}
	parent, change = parent[:n], change[:n]
	// sign turns every metric into lower-is-better.
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	for i := 0; i < n; i++ {
		switch d := sign * (change[i] - parent[i]); {
		case d < 0:
			j.wins++
		case d > 0:
			j.losses++
		}
	}
	q1, pm, q3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	gap := sign * (cm - pm) // negative when the change is better
	iqr := q3 - q1
	allBetter := peak(scaled(change, sign)) < floor(scaled(parent, sign))
	switch {
	case gap > m.Bound*math.Abs(pm):
		j.verdict = "regressed"
	case float64(j.wins) >= 0.9*float64(n) && -gap > iqr:
		j.verdict = "improved"
	case iqr > m.Bound*math.Abs(pm) && !allBetter:
		j.verdict = "unresolved (parent spread wider than bound)"
	default:
		j.verdict = "unchanged"
	}
	return j
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// appendHistory adds one line to bench/history.jsonl: the file is a
// trajectory across commits, never rewritten.
func appendHistory(ctx context.Context, e *env, seed int64, rs []*result) error {
	commit := "unknown"
	git := exec.CommandContext(ctx, "git", "rev-parse", "--short", "HEAD")
	git.Dir = e.root
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	type entry struct {
		Metrics map[string]value `json:"metrics"`
		Info    map[string]value `json:"info"`
	}
	line := struct {
		Commit    string           `json:"commit"`
		Date      string           `json:"date"`
		NProc     int              `json:"nproc"`
		Seed      int64            `json:"seed"`
		Workloads map[string]entry `json:"workloads"`
	}{commit, time.Now().UTC().Format("2006-01-02"), runtime.NumCPU(), seed, map[string]entry{}}
	for _, r := range rs {
		line.Workloads[r.Workload] = entry{r.Metrics, r.Info}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(e.root, "bench", "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
