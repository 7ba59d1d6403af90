package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

const (
	// setupRepeats complete set-ups are timed per run, spread evenly over
	// the measured phase. A set-up is a few process starts, 10 to 30 ms in
	// all, and the host slows down in bursts of seconds: timed back to back
	// before the first op, the set-ups would all sit in one burst or beside
	// it, and the run's references, which are spread, would not match them.
	setupRepeats = 25
	// warmupOps ops run, checked but untimed, before the measured phase.
	warmupOps = 5
	// baseSeconds is the run length baseOps is sized for.
	baseSeconds = 25
)

// value is one metric as printed: a number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`        // the declared metrics
	Info      map[string]value `json:"info,omitempty"` // printed, not gated
	Problems  []string         `json:"problems,omitempty"`
	// Samples, Refs and Setups are the raw per-op measurements, the CPU
	// times of the reference processes and the set-up times of an untraced
	// run, kept in the -json output for noise studies; compare does not
	// read them.
	Samples []sample  `json:"samples,omitempty"`
	Refs    []float64 `json:"refs_s,omitempty"`
	Setups  []float64 `json:"setups_s,omitempty"`
}

// sample is one successful op as measured.
type sample struct {
	Variant int     `json:"variant"`
	Wall    float64 `json:"wall_s"`
	CPU     float64 `json:"cpu_s"` // negative: this op closed no CPU sample
	RSSMB   float64 `json:"rss_mb,omitempty"`
}

// opsFor scales a workload's fixed op count to the requested run length,
// keeping every variant equally represented.
func opsFor(w workload, seconds, override int) int {
	ops := override
	if ops <= 0 {
		ops = int(math.Round(float64(w.baseOps) * float64(seconds) / baseSeconds))
	}
	if rem := ops % w.variants; rem != 0 {
		ops += w.variants - rem
	}
	if ops < w.variants {
		ops = w.variants
	}
	return ops
}

func (r *result) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 5 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// runEndToEnd measures one workload with tracing off: set-up several
// times, warm up, run the fixed number of ops one after another, check
// every output, and reduce the samples to the declared metrics.
func runEndToEnd(ctx context.Context, e *env, w workload, seed int64, seconds, opsOverride int) (*result, error) {
	ops := opsFor(w, seconds, opsOverride)
	res := &result{Workload: w.name, Seed: seed, Correct: true, Metrics: map[string]value{}, Info: map[string]value{}}

	dir, err := e.workDir(w.name)
	if err != nil {
		return nil, err
	}
	// The set-up the ops run on is not timed; the timed ones go to a
	// directory of their own and are torn down at once.
	run, err := w.setup(ctx, e, dir, seed, ops)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer run.close()
	setupDir, err := e.workDir(w.name + "-setup")
	if err != nil {
		return nil, err
	}
	setupEvery := max(1, ops/setupRepeats)

	for i := -warmupOps; i < 0; i++ {
		if _, err := e.reference(dir); err != nil {
			return nil, fmt.Errorf("reference process: %w", err)
		}
		if _, err := run.op(ctx, i); err != nil {
			res.problem("warm-up op: %v", err)
		}
	}

	wall := make([][]float64, w.variants)
	cpu := make([][]float64, w.variants)
	rss := make([][]float64, w.variants) // MB
	var allWall, allCPU []float64
	var inOps time.Duration // the measured phase minus references and set-ups
	// The op count is fixed; the deadline only keeps a badly slowed
	// program inside the driver's time limit of 180 s a run (the guest's
	// disk has stalled a daemon-burst run to 2.5 times its usual length,
	// which must still finish). A run it cuts short did less work than the
	// metrics assume (fewer retained jobs, for one), so it does not count
	// as correct.
	deadline := 5 * time.Duration(seconds) * time.Second
	phase := time.Now()
	for i := 0; i < ops; i++ {
		if ctx.Err() != nil {
			break
		}
		if time.Since(phase) > deadline {
			res.problem("run cut short after %d of %d ops: the measured phase passed %s", i, ops, deadline)
			break
		}
		ref, err := e.reference(dir)
		if err != nil {
			return nil, fmt.Errorf("reference process: %w", err)
		}
		res.Refs = append(res.Refs, ref)
		if i%setupEvery == 0 {
			start := time.Now()
			extra, err := w.setup(ctx, e, setupDir, seed, ops)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			res.Setups = append(res.Setups, time.Since(start).Seconds())
			extra.close()
		}
		res.Attempted++
		opStart := time.Now()
		st, err := run.op(ctx, i)
		inOps += time.Since(opStart)
		if err != nil {
			res.Failed++
			res.problem("op %d: %v", i, err)
			continue
		}
		res.Samples = append(res.Samples, sample{st.variant, st.wall, st.cpu, float64(st.rssKB) / 1024})
		wall[st.variant] = append(wall[st.variant], st.wall)
		allWall = append(allWall, st.wall)
		if st.cpu >= 0 {
			cpu[st.variant] = append(cpu[st.variant], st.cpu)
			allCPU = append(allCPU, st.cpu)
		}
		if st.rssKB > 0 {
			rss[st.variant] = append(rss[st.variant], float64(st.rssKB)/1024)
		}
	}
	measured := time.Since(phase).Seconds()

	endRSS, err := run.finish(ctx)
	if err != nil {
		res.problem("end-of-run check: %v", err)
	}
	if endRSS > 0 {
		rss[0] = append(rss[0], float64(endRSS)/1024)
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if len(allWall) == 0 || len(allCPU) == 0 {
		return nil, fmt.Errorf("%s: no op succeeded: %v", w.name, res.Problems)
	}

	// Timings are divided by how much slower than nominal the host ran
	// during this run (ref.go). Within a run the gated statistic is the
	// lower quartile, per kind of op: the fastest op of a run is an extreme
	// value that repeats worse than the quartile does, the median and the
	// tail carry the interference.
	host := hostFactor(res.Refs)
	res.Metrics["setup_s"] = value{lowerQuartile(res.Setups) / host, "s"}
	res.Metrics["op_s_q1"] = value{meanOf(wall, lowerQuartile) / host, "s"}
	res.Metrics["op_cpu_s_q1"] = value{meanOf(cpu, lowerQuartile) / host, "s"}
	// Peak RSS of a garbage-collected process depends on when its
	// collector happens to run. The largest of the run's processes (per
	// kind of op, like the timings) shows a blow-up in any one op but
	// repeats worse than the median process, which only moves when most
	// ops grow: both are gated.
	res.Metrics["peak_rss_mb"] = value{meanOf(rss, peak), "MB"}
	res.Metrics["op_rss_mb_p50"] = value{meanOf(rss, median), "MB"}

	res.Info["host_factor"] = value{host, "ratio"}
	res.Info["ref_cpu_q1_ms"] = value{lowerQuartile(res.Refs) * 1e3, "ms"}
	res.Info["setup_s_raw"] = value{lowerQuartile(res.Setups), "s"}
	res.Info["op_s_q1_raw"] = value{meanOf(wall, lowerQuartile), "s"}
	res.Info["op_cpu_s_q1_raw"] = value{meanOf(cpu, lowerQuartile), "s"}
	res.Info["op_s_min"] = value{meanOf(wall, floor), "s"}
	res.Info["op_cpu_s_min"] = value{meanOf(cpu, floor), "s"}
	res.Info["op_s_p50"] = value{median(allWall), "s"}
	res.Info["op_s_p90"] = value{percentile(allWall, 0.9), "s"}
	res.Info["ops_per_s"] = value{float64(len(allWall)) / inOps.Seconds(), "1/s"}
	res.Info["op_cpu_s_mean"] = value{mean(allCPU), "s"}
	res.Info["samples"] = value{float64(len(allWall)), "count"}
	res.Info["cpu_samples"] = value{float64(len(allCPU)), "count"}
	res.Info["measured_s"] = value{measured, "s"}
	// The least peak_rss_mb can show for a cold process (package spawn).
	// 0 when unreadable: the figure is informational.
	spawnerKB, _ := procHWM(e.sp.Pid())
	res.Info["spawner_hwm_mb"] = value{float64(spawnerKB) / 1024, "MB"}
	return res, nil
}

// print writes the run as a table, every metric by name with its unit.
func (r *result) print(w io.Writer, e *env) {
	fmt.Fprintf(w, "workload %s  seed %d  %d ops attempted, %d failed  correct=%v\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	for _, name := range sortedKeys(r.Metrics) {
		v := r.Metrics[name]
		note := ""
		if m, ok := e.endToEnd(name); ok {
			note = fmt.Sprintf("  (%s is better, bound %.2f)", m.Better, m.Bound)
		}
		if raw, ok := r.Info[name+"_raw"]; ok {
			note += fmt.Sprintf("  uncorrected %.6g %s", raw.Value, raw.Unit)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s%s\n", name, v.Value, v.Unit, note)
	}
	if len(r.Info) > 0 {
		fmt.Fprintln(w, "  info (printed, not gated):")
		for _, name := range sortedKeys(r.Info) {
			v := r.Info[name]
			fmt.Fprintf(w, "    %-30s %14.6g %s\n", name, v.Value, v.Unit)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}

// resultLine is the one-line JSON object the driver reads last.
func (r *result) resultLine() string {
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		// Only a NaN or infinite metric can fail to encode.
		panic(err)
	}
	return string(b)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
