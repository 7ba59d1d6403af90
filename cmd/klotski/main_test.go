package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"klotski"
	"klotski/internal/durable"
	"klotski/internal/npd"
	"klotski/internal/serve"
)

const testNPD = `{
	"version": 1,
	"name": "cmd-test",
	"fabric": [{"dc": 0, "pods": 2, "rswPerPod": 2, "planes": 4, "sswPerPlane": 2, "fswUplinks": 1}],
	"hgrid": {"grids": 4, "faduPerGrid": 2, "fauuPerGrid": 1, "sswDownlinks": 1},
	"eb": {"count": 2, "linkTbps": 40},
	"dr": {"count": 1, "linkTbps": 80},
	"bb": {"ebbs": 1},
	"migration": {"kind": "hgrid-v1-v2"}
}`

func writeNPD(t *testing.T) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "region.json")
	if err := os.WriteFile(p, []byte(testNPD), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunPlansDocument(t *testing.T) {
	npdPath := writeNPD(t)
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-v"}, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if doc["task"] != "cmd-test" {
		t.Errorf("plan document task = %v", doc["task"])
	}
	if !strings.Contains(errBuf.String(), "planned in") {
		t.Errorf("verbose output missing: %s", errBuf.String())
	}
}

func TestRunWritesOutputFile(t *testing.T) {
	npdPath := writeNPD(t)
	outPath := filepath.Join(t.TempDir(), "plan.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", outPath}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"phases"`) {
		t.Error("plan file missing phases")
	}
	if out.Len() != 0 {
		t.Error("stdout should be empty when -o is set")
	}
}

func TestRunResume(t *testing.T) {
	npdPath := writeNPD(t)
	planPath := filepath.Join(t.TempDir(), "plan.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", planPath}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), []string{"-npd", npdPath, "-resume", planPath, "-executed", "2"}, &out, &errBuf); err != nil {
		t.Fatalf("resume: %v", err)
	}
	var doc struct {
		Actions int `json:"actions"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Actions != 6 { // 8 total actions, 2 executed
		t.Errorf("resumed plan has %d actions, want 6", doc.Actions)
	}
}

func TestRunResumeTooManyExecuted(t *testing.T) {
	npdPath := writeNPD(t)
	planPath := filepath.Join(t.TempDir(), "plan.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", planPath}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), []string{"-npd", npdPath, "-resume", planPath, "-executed", "99"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("want exceeds error, got %v", err)
	}
}

// TestRunResumeRejectsSimulate: -simulate replays a whole plan, so asking
// for it on a -resume is an error naming both flags, not a run that prints
// no campaign line and exits 0.
func TestRunResumeRejectsSimulate(t *testing.T) {
	npdPath := writeNPD(t)
	planPath := filepath.Join(t.TempDir(), "plan.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", planPath}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := run(context.Background(), []string{"-npd", npdPath, "-resume", planPath, "-executed", "2", "-simulate", "4"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "-simulate") || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("-resume with -simulate: %v, want an error naming both flags", err)
	}
	if out.Len() != 0 {
		t.Errorf("a refused run wrote a plan: %s", out.String())
	}
}

// TestRunAuditRejectsIgnoredModes: -audit verifies a document and exits,
// so -simulate, -chaos and -resume beside it are errors naming -audit and
// the flag, not runs that print only the audit line and exit 0.
func TestRunAuditRejectsIgnoredModes(t *testing.T) {
	npdPath := writeNPD(t)
	planPath := filepath.Join(t.TempDir(), "plan.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", planPath}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-simulate", "4"},
		{"-chaos", "2"},
		{"-resume", planPath, "-executed", "2"},
		{"-simulate", "4", "-chaos", "2"},
	} {
		errBuf.Reset()
		args := append([]string{"-npd", npdPath, "-audit", planPath}, extra...)
		err := run(context.Background(), args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "-audit") || !strings.Contains(err.Error(), extra[0]) {
			t.Errorf("%v: %v, want an error naming -audit and %s", args, err, extra[0])
		}
		if strings.Contains(errBuf.String(), "audit passed") {
			t.Errorf("%v: a refused run audited: %s", args, errBuf.String())
		}
	}
	// -audit alone still verifies the document.
	errBuf.Reset()
	if err := run(context.Background(), []string{"-npd", npdPath, "-audit", planPath}, &out, &errBuf); err != nil ||
		!strings.Contains(errBuf.String(), "audit passed") {
		t.Fatalf("-audit: %v, stderr %q", err, errBuf.String())
	}
}

// TestRunCheckpointOnTimeout: an expired planning budget must leave a
// checkpoint document that the -resume/-executed flow accepts.
func TestRunCheckpointOnTimeout(t *testing.T) {
	npdPath := writeNPD(t)
	ckptPath := filepath.Join(t.TempDir(), "ckpt.json")
	var out, errBuf bytes.Buffer
	err := run(context.Background(), []string{"-npd", npdPath, "-timeout", "1ns", "-checkpoint", ckptPath}, &out, &errBuf)
	if err == nil {
		t.Fatal("1ns budget should interrupt planning")
	}
	if !strings.Contains(errBuf.String(), "checkpointed to") {
		t.Fatalf("stderr missing checkpoint notice: %s", errBuf.String())
	}
	data, rerr := os.ReadFile(ckptPath)
	if rerr != nil {
		t.Fatalf("checkpoint file not written: %v", rerr)
	}
	if !durable.IsSealed(data) {
		t.Fatalf("checkpoint is not in the sealed envelope: %s", data)
	}
	payload, serr := durable.OpenSealed("klotski/plan", data)
	if serr != nil {
		t.Fatalf("checkpoint envelope does not verify: %v", serr)
	}
	var doc struct {
		Version    int `json:"version"`
		Actions    int `json:"actions"`
		Checkpoint struct {
			Planner string `json:"planner"`
			Reason  string `json:"reason"`
		} `json:"checkpoint"`
	}
	if jerr := json.Unmarshal(payload, &doc); jerr != nil {
		t.Fatalf("checkpoint payload is not JSON: %v", jerr)
	}
	if doc.Version != 1 || doc.Checkpoint.Planner != "astar" || doc.Checkpoint.Reason == "" {
		t.Errorf("checkpoint fields: %+v", doc)
	}
	// The checkpoint must be consumable by -resume with its own action count.
	out.Reset()
	if err := run(context.Background(), []string{"-npd", npdPath, "-resume", ckptPath, "-executed", fmt.Sprint(doc.Actions)}, &out, &errBuf); err != nil {
		t.Fatalf("resume from checkpoint: %v", err)
	}
	// And its partial sequence must pass the offline audit.
	errBuf.Reset()
	if err := run(context.Background(), []string{"-npd", npdPath, "-audit", ckptPath}, &out, &errBuf); err != nil {
		t.Fatalf("-audit on checkpoint: %v (stderr: %s)", err, errBuf.String())
	}
}

// TestRunExecutedNeedsResume: -executed counts actions of the -resume
// document, so a negative count, or a count without -resume, is refused
// up front naming the flag, not a panic or a plan that ignores it.
func TestRunExecutedNeedsResume(t *testing.T) {
	npdPath := writeNPD(t)
	planPath := filepath.Join(t.TempDir(), "plan.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", planPath}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-npd", npdPath, "-resume", planPath, "-executed", "-1"},
		{"-npd", npdPath, "-executed", "3"},
	} {
		out.Reset()
		err := run(context.Background(), args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), "-executed") {
			t.Errorf("%v: %v, want an error naming -executed", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a refused run wrote a plan", args)
		}
	}
}

// TestRunRefusesOutOfRange: a count, a growth rate or a budget out of its
// range is refused up front naming the flag, not read as another value (a
// negative -chaos or -simulate as none, -chaos-faults below 1 as 3, a
// negative -growth as 0, a negative -timeout as no limit). The values the
// benchmark passes stay accepted.
func TestRunRefusesOutOfRange(t *testing.T) {
	npdPath := writeNPD(t)
	for _, row := range []struct {
		args []string
		flag string // "" when the run must succeed
	}{
		{[]string{"-chaos", "-3"}, "-chaos"},
		{[]string{"-simulate", "-2"}, "-simulate"},
		{[]string{"-growth", "-0.5"}, "-growth"},
		{[]string{"-timeout", "-1s"}, "-timeout"},
		{[]string{"-chaos", "2", "-chaos-faults", "0"}, "-chaos-faults"},
		{[]string{"-chaos-faults", "-4"}, "-chaos-faults"},
		{[]string{"-chaos", "4", "-chaos-faults", "4"}, ""},
		{[]string{"-workers", "1"}, ""},
	} {
		var out, errBuf bytes.Buffer
		err := run(context.Background(), append([]string{"-npd", npdPath}, row.args...), &out, &errBuf)
		if row.flag == "" {
			if err != nil {
				t.Errorf("%v: %v, want it accepted", row.args, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), row.flag+" ") {
			t.Errorf("%v: %v, want an error naming %s", row.args, err, row.flag)
		}
		if out.Len() != 0 {
			t.Errorf("%v: a refused run wrote a plan", row.args)
		}
	}
}

// readDoc reads the plan or checkpoint document at path.
func readDoc(t *testing.T, path string) *npd.PlanDocument {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := npd.ReadPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// docBlocks lists a document's executed blocks and its phases' blocks.
func docBlocks(doc *npd.PlanDocument) (executed, blocks []string) {
	for _, ph := range doc.Phases {
		blocks = append(blocks, ph.Blocks...)
	}
	return doc.Executed, blocks
}

// hintRE reads the -resume hint an interrupted run prints.
var hintRE = regexp.MustCompile(`continue with: -resume (\S+) -executed (\d+)`)

// TestRunCheckpointAfterResume: a checkpoint written while replanning after
// k executed actions starts after them. It audits, and resuming it — with
// the printed hint, or after none of its own actions — continues after the
// k blocks rather than replanning from the first block.
func TestRunCheckpointAfterResume(t *testing.T) {
	npdPath := writeNPD(t)
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	ckptPath := filepath.Join(dir, "ckpt.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", planPath}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	_, planned := docBlocks(readDoc(t, planPath))
	const k = 3
	err := run(context.Background(), []string{"-npd", npdPath, "-resume", planPath, "-executed", fmt.Sprint(k),
		"-timeout", "1ns", "-checkpoint", ckptPath}, &out, &errBuf)
	hint := hintRE.FindStringSubmatch(errBuf.String())
	if err == nil || hint == nil || hint[1] != ckptPath {
		t.Fatalf("interrupted resume: %v, stderr %q, want a checkpoint and its hint", err, errBuf.String())
	}
	ck := readDoc(t, ckptPath)
	if executed, _ := docBlocks(ck); !slices.Equal(executed, planned[:k]) || fmt.Sprint(ck.Actions) != hint[2] {
		t.Fatalf("checkpoint starts after %v with %d actions (hint %s), want after %v", executed, ck.Actions, hint[2], planned[:k])
	}
	errBuf.Reset()
	if err := run(context.Background(), []string{"-npd", npdPath, "-audit", ckptPath}, &out, &errBuf); err != nil {
		t.Fatalf("-audit on the checkpoint: %v (stderr: %s)", err, errBuf.String())
	}
	for _, n := range []string{hint[2], "0"} {
		resumedPath := filepath.Join(dir, "resumed-"+n+".json")
		if err := run(context.Background(), []string{"-npd", npdPath, "-resume", ckptPath, "-executed", n, "-o", resumedPath}, &out, &errBuf); err != nil {
			t.Fatalf("-resume the checkpoint -executed %s: %v", n, err)
		}
		executed, blocks := docBlocks(readDoc(t, resumedPath))
		if !slices.Equal(executed[:k], planned[:k]) || len(executed)+len(blocks) != len(planned) {
			t.Errorf("-executed %s: resumed plan starts after %v with %d actions, want after %v with %d in all",
				n, executed, len(blocks), planned[:k], len(planned)-len(executed))
		}
		if err := run(context.Background(), []string{"-npd", npdPath, "-audit", resumedPath}, &out, &errBuf); err != nil {
			t.Errorf("-audit on the plan resumed from the checkpoint -executed %s: %v", n, err)
		}
	}
}

// TestRunResumedPlanResumes: a resumed plan document says which blocks came
// before its first phase, so it can itself be audited and resumed.
func TestRunResumedPlanResumes(t *testing.T) {
	npdPath := writeNPD(t)
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "plan.json"), filepath.Join(dir, "r1.json"), filepath.Join(dir, "r2.json")}
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", paths[0]}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	_, planned := docBlocks(readDoc(t, paths[0]))
	var done []string
	for i := 1; i < len(paths); i++ {
		if err := run(context.Background(), []string{"-npd", npdPath, "-resume", paths[i-1], "-executed", "2", "-o", paths[i]}, &out, &errBuf); err != nil {
			t.Fatalf("-resume %s -executed 2: %v", paths[i-1], err)
		}
		executed, blocks := docBlocks(readDoc(t, paths[i]))
		_, prev := docBlocks(readDoc(t, paths[i-1]))
		done = append(done, prev[:2]...)
		if !slices.Equal(executed, done) || len(blocks) != len(planned)-len(done) {
			t.Errorf("%s starts after %v with %d actions, want after %v", paths[i], executed, len(blocks), done)
		}
		if err := run(context.Background(), []string{"-npd", npdPath, "-audit", paths[i]}, &out, &errBuf); err != nil {
			t.Errorf("-audit %s: %v", paths[i], err)
		}
	}
}

// TestRunReadsDaemonCheckpoint: the checkpoint klotskid serves for a job
// sliced into small legs is the CLI's document: -audit verifies it and
// -resume continues after its actions.
func TestRunReadsDaemonCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var ckpt []byte
	var srv *httptest.Server
	m, err := serve.Open(serve.Config{
		Dir: filepath.Join(dir, "state"), PoolWorkers: 1,
		LegHook: func(id string, leg int) error {
			if leg == 1 {
				resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/checkpoint")
				if err != nil {
					return err
				}
				defer resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					ckpt, err = io.ReadAll(resp.Body)
				}
				return err
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv = httptest.NewServer(serve.NewHandler(m))
	defer m.Close()
	defer srv.Close()
	j, err := m.Submit(serve.Request{NPD: json.RawMessage(testNPD), LegStates: 8})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := j.Subscribe()
	for range done { // closed once the job is terminal
	}
	if st := j.Status(); st.State != serve.StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Detail)
	}
	if ckpt == nil {
		t.Fatal("the job served no checkpoint after its first leg")
	}
	npdPath := writeNPD(t)
	ckptPath := filepath.Join(dir, "job.ckpt")
	if err := os.WriteFile(ckptPath, ckpt, 0o644); err != nil {
		t.Fatal(err)
	}
	ck := readDoc(t, ckptPath)
	if ck.Checkpoint == nil || ck.Checkpoint.Planner != "astar" {
		t.Fatalf("served checkpoint document: %+v", ck)
	}
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-audit", ckptPath}, &out, &errBuf); err != nil {
		t.Fatalf("-audit on the served checkpoint: %v (stderr: %s)", err, errBuf.String())
	}
	if err := run(context.Background(), []string{"-npd", npdPath, "-resume", ckptPath, "-executed", fmt.Sprint(ck.Actions)}, &out, &errBuf); err != nil {
		t.Fatalf("-resume the served checkpoint: %v", err)
	}
}

// TestRunCancelledContext: SIGINT surfaces as a cancelled context; run must
// stop with the context error rather than plan on.
func TestRunCancelledContext(t *testing.T) {
	npdPath := writeNPD(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errBuf bytes.Buffer
	err := run(ctx, []string{"-npd", npdPath}, &out, &errBuf)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRunChaosCampaign: -chaos N drives the plan through the control loop
// and prints a campaign summary.
func TestRunChaosCampaign(t *testing.T) {
	npdPath := writeNPD(t)
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-chaos", "2", "-chaos-faults", "2", "-chaos-seed", "5"}, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "chaos campaign over 2 seeds") {
		t.Errorf("missing chaos campaign report: %s", errBuf.String())
	}
}

// TestChaosCampaignLinesPinned pins the campaign lines of the four chaos
// seeds the replan-chaos benchmark uses, with its flags, on
// testdata/E-SSW.json (topogen -suite E-SSW -scale 0.25). The lines were
// taken when every run still planned the untouched task for itself; every
// run now starts from the printed plan, and the lines must not move. The
// stats snapshot shows the mechanism: one search for the printed plan and
// one per replan, none per run.
func TestChaosCampaignLinesPinned(t *testing.T) {
	pinned := map[string]string{
		"3":  "chaos campaign over 4 seeds: 100% completed, 3 retries, 10 replans, 0 boundary violations, peak util 0.497 (worst seed 3); drift: 0 drift replans, 0 gap skips, 5 telemetry faults, 0 degraded runs",
		"5":  "chaos campaign over 4 seeds: 100% completed, 3 retries, 8 replans, 0 boundary violations, peak util 0.497 (worst seed 5); drift: 0 drift replans, 0 gap skips, 6 telemetry faults, 1 degraded runs",
		"7":  "chaos campaign over 4 seeds: 100% completed, 5 retries, 5 replans, 0 boundary violations, peak util 0.511 (worst seed 9); drift: 0 drift replans, 0 gap skips, 4 telemetry faults, 1 degraded runs",
		"13": "chaos campaign over 4 seeds: 100% completed, 4 retries, 9 replans, 0 boundary violations, peak util 0.497 (worst seed 13); drift: 0 drift replans, 0 gap skips, 4 telemetry faults, 1 degraded runs",
	}
	replans := regexp.MustCompile(`, (\d+) replans,`)
	// -stats-out records into the process-wide registry, which every run
	// in this process adds to: count the searches of one run as a delta.
	searches := func() int64 {
		return klotski.DefaultObsRegistry().Snapshot().Spans["planner.astar.run"].Count
	}
	for seed, want := range pinned {
		dir := t.TempDir()
		var out, errBuf bytes.Buffer
		args := []string{"-npd", filepath.Join("testdata", "E-SSW.json"), "-workers", "1",
			"-chaos", "4", "-chaos-faults", "4", "-chaos-seed", seed, "-drift-threshold", "0.05",
			"-o", filepath.Join(dir, "plan.json"), "-stats-out", filepath.Join(dir, "stats.json")}
		before := searches()
		if err := run(context.Background(), args, &out, &errBuf); err != nil {
			t.Fatalf("seed %s: %v (stderr: %s)", seed, err, errBuf.String())
		}
		if !strings.Contains(errBuf.String(), want+"\n") {
			t.Errorf("seed %s: stderr\n%s\nlacks the pinned line\n%s", seed, errBuf.String(), want)
			continue
		}
		n, err := strconv.ParseInt(replans.FindStringSubmatch(want)[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := searches() - before; got != 1+n {
			t.Errorf("seed %s: %d searches, want 1 for the printed plan and %d for the replans", seed, got, n)
		}
	}
}

// TestRunStatsOut: -stats-out must leave a JSON snapshot with nonzero
// planner effort — states expanded, check-latency buckets, and cache
// hit/miss counts (the acceptance criteria of the observability layer).
func TestRunStatsOut(t *testing.T) {
	npdPath := writeNPD(t)
	statsPath := filepath.Join(t.TempDir(), "stats.json")
	var out, errBuf bytes.Buffer
	// The DP planner revisits boundary states across last-action types, so
	// even this small topology exercises both cache hits and misses.
	if err := run(context.Background(), []string{"-npd", npdPath, "-planner", "dp", "-stats-out", statsPath}, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("stats file not written: %v", err)
	}
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count   int64 `json:"count"`
			Buckets []struct {
				LE    float64 `json:"le"`
				Count int64   `json:"count"`
			} `json:"buckets"`
		} `json:"histograms"`
		Derived map[string]float64 `json:"derived"`
		Spans   map[string]any     `json:"spans"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("stats file is not JSON: %v", err)
	}
	if snap.Counters["planner.states_expanded"] == 0 {
		t.Errorf("states_expanded = 0; counters: %v", snap.Counters)
	}
	if snap.Counters["planner.cache_hits"] == 0 || snap.Counters["planner.cache_misses"] == 0 {
		t.Errorf("cache counters missing: %v", snap.Counters)
	}
	if _, ok := snap.Derived["planner.cache_hit_rate"]; !ok {
		t.Errorf("derived cache_hit_rate missing: %v", snap.Derived)
	}
	lat := snap.Histograms["planner.check_latency_seconds"]
	if lat.Count == 0 || len(lat.Buckets) == 0 {
		t.Errorf("check-latency histogram empty: %+v", lat)
	}
	if _, ok := snap.Spans["planner.dp.sweep"]; !ok {
		t.Errorf("dp.sweep span missing: %v", snap.Spans)
	}
	if _, ok := snap.Spans["planner.pipeline.plan"]; !ok {
		t.Errorf("pipeline.plan span missing: %v", snap.Spans)
	}
	// Defense-in-depth instruments: the automatic post-planning audit must
	// have replayed boundary states and recorded no failures.
	if snap.Counters["audit.steps_checked"] == 0 {
		t.Errorf("audit.steps_checked = 0; the post-planning audit did not run: %v", snap.Counters)
	}
	if snap.Counters["audit.failures"] != 0 {
		t.Errorf("audit.failures = %d on a healthy run", snap.Counters["audit.failures"])
	}
	if _, ok := snap.Spans["planner.audit.verify"]; !ok {
		t.Errorf("audit.verify span missing: %v", snap.Spans)
	}
}

// TestRunAuditMode: -audit independently verifies an emitted plan
// document, and rejects a tampered one with the offending step.
func TestRunAuditMode(t *testing.T) {
	npdPath := writeNPD(t)
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", planPath}, &out, &errBuf); err != nil {
		t.Fatalf("planning: %v (stderr: %s)", err, errBuf.String())
	}

	errBuf.Reset()
	if err := run(context.Background(), []string{"-npd", npdPath, "-audit", planPath}, &out, &errBuf); err != nil {
		t.Fatalf("-audit on a valid plan: %v (stderr: %s)", err, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "audit passed") {
		t.Errorf("missing audit verdict: %s", errBuf.String())
	}

	// Tamper: re-inject an already-executed block into the final phase.
	data, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc klotski.PlanDocument
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Phases) == 0 || len(doc.Phases[0].Blocks) == 0 {
		t.Fatal("plan document has no phases to tamper with")
	}
	lastPh := &doc.Phases[len(doc.Phases)-1]
	lastPh.Blocks = append(lastPh.Blocks, doc.Phases[0].Blocks[0])
	tamperedPath := filepath.Join(dir, "tampered.json")
	tampered, err := json.Marshal(&doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tamperedPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	errBuf.Reset()
	err = run(context.Background(), []string{"-npd", npdPath, "-audit", tamperedPath}, &out, &errBuf)
	if err == nil {
		t.Fatal("-audit accepted a tampered plan")
	}
	if !strings.Contains(err.Error(), "failed at step") {
		t.Errorf("tamper verdict should name the step: %v", err)
	}
}

// TestRunAuditHonoursGrowth: -audit checks the plan against the -growth
// forecast, as planning does. A plan made without growth is unsafe once
// demand grows 1% a step; a plan made under that growth passes its audit.
func TestRunAuditHonoursGrowth(t *testing.T) {
	npdPath := writeNPD(t)
	dir := t.TempDir()
	flat := filepath.Join(dir, "flat.json")
	grown := filepath.Join(dir, "grown.json")
	var out, errBuf bytes.Buffer
	for _, args := range [][]string{
		{"-npd", npdPath, "-o", flat},
		{"-npd", npdPath, "-growth", "0.01", "-o", grown},
		{"-npd", npdPath, "-audit", flat},
		{"-npd", npdPath, "-growth", "0.01", "-audit", grown},
	} {
		errBuf.Reset()
		if err := run(context.Background(), args, &out, &errBuf); err != nil {
			t.Fatalf("%v: %v (stderr: %s)", args, err, errBuf.String())
		}
	}
	errBuf.Reset()
	err := run(context.Background(), []string{"-npd", npdPath, "-growth", "0.01", "-audit", flat}, &out, &errBuf)
	if err == nil {
		t.Fatalf("-growth 0.01 -audit accepted a plan made without growth (stderr: %s)", errBuf.String())
	}
	if !strings.Contains(err.Error(), "failed at step 6") {
		t.Errorf("growth verdict should name step 6: %v", err)
	}
}

// TestRunSimulateFollowsGrowth: -simulate replays the plan at the demand
// the -growth forecast gives each state, as planning and -audit check it.
// At 0.5% a step the plan made under growth, replayed at base demand, peaks
// exactly where the flat plan does; only the grown demand lifts its peak.
func TestRunSimulateFollowsGrowth(t *testing.T) {
	npdPath := writeNPD(t)
	peak := regexp.MustCompile(`campaign over 4 seeds: peak util [0-9.]+–([0-9.]+) `)
	peaks := make([]float64, 2)
	for i, growth := range []string{"0", "0.005"} {
		var out, errBuf bytes.Buffer
		if err := run(context.Background(), []string{"-npd", npdPath, "-simulate", "4", "-growth", growth}, &out, &errBuf); err != nil {
			t.Fatalf("-growth %s: %v (stderr: %s)", growth, err, errBuf.String())
		}
		m := peak.FindStringSubmatch(errBuf.String())
		if m == nil {
			t.Fatalf("-growth %s: no campaign line in %s", growth, errBuf.String())
		}
		var err error
		if peaks[i], err = strconv.ParseFloat(m[1], 64); err != nil {
			t.Fatal(err)
		}
	}
	if peaks[1] <= peaks[0] {
		t.Errorf("-simulate under -growth 0.005 peaks at %v, not above the flat replay's %v", peaks[1], peaks[0])
	}
}

// TestRunAuditRejectsCorruptSealedFile: a sealed document whose payload
// was altered after sealing must be refused by checksum, not misparsed.
func TestRunAuditRejectsCorruptSealedFile(t *testing.T) {
	npdPath := writeNPD(t)
	dir := t.TempDir()
	planPath := filepath.Join(dir, "plan.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", planPath}, &out, &errBuf); err != nil {
		t.Fatalf("planning: %v", err)
	}
	plain, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := durable.Seal("klotski/plan", plain)
	if err != nil {
		t.Fatal(err)
	}
	sealedPath := filepath.Join(dir, "sealed.json")
	if err := os.WriteFile(sealedPath, sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	// The intact sealed document audits like the plain one.
	if err := run(context.Background(), []string{"-npd", npdPath, "-audit", sealedPath}, &out, &errBuf); err != nil {
		t.Fatalf("-audit on sealed plan: %v", err)
	}
	// Corrupt one payload byte inside the envelope.
	corrupt := bytes.Replace(sealed, []byte(`\"cost\"`), []byte(`\"c0st\"`), 1)
	if bytes.Equal(corrupt, sealed) {
		// Payload is embedded as raw JSON, not escaped; try unescaped form.
		corrupt = bytes.Replace(sealed, []byte(`"cost"`), []byte(`"c0st"`), 1)
	}
	if bytes.Equal(corrupt, sealed) {
		t.Fatal("corruption target not found in sealed envelope")
	}
	corruptPath := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corruptPath, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"-npd", npdPath, "-audit", corruptPath}, &out, &errBuf)
	if err == nil {
		t.Fatal("corrupt sealed document accepted")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corruption should be refused by checksum: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), nil, &out, &errBuf); err == nil {
		t.Error("missing -npd should error")
	}
	if err := run(context.Background(), []string{"-npd", "/does/not/exist.json"}, &out, &errBuf); err == nil {
		t.Error("missing file should error")
	}
	npdPath := writeNPD(t)
	if err := run(context.Background(), []string{"-npd", npdPath, "-planner", "bogus"}, &out, &errBuf); err == nil {
		t.Error("unknown planner should error")
	}
}

func TestRunPlannerVariants(t *testing.T) {
	npdPath := writeNPD(t)
	for _, planner := range []string{"astar", "dp", "mrc", "janus"} {
		var out, errBuf bytes.Buffer
		if err := run(context.Background(), []string{"-npd", npdPath, "-planner", planner}, &out, &errBuf); err != nil {
			t.Errorf("planner %s: %v", planner, err)
		}
	}
}

func TestRunMaxRun(t *testing.T) {
	npdPath := writeNPD(t)
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-maxrun", "1"}, &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Phases []struct {
			Blocks []string `json:"blocks"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for i, ph := range doc.Phases {
		if len(ph.Blocks) > 1 {
			t.Errorf("phase %d has %d blocks despite -maxrun 1", i, len(ph.Blocks))
		}
	}
}

func writeFleetManifest(t *testing.T, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	npdPath := filepath.Join(dir, "region.json")
	if err := os.WriteFile(npdPath, []byte(testNPD), 0o644); err != nil {
		t.Fatal(err)
	}
	var members []fleetManifestMember
	for _, name := range names {
		members = append(members, fleetManifestMember{Name: name, NPD: npdPath})
	}
	return writeManifest(t, dir, members)
}

// writeManifest writes a fleet manifest of the given members into dir.
func writeManifest(t *testing.T, dir string, members []fleetManifestMember) string {
	t.Helper()
	data, err := json.Marshal(fleetManifest{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// writeSuiteNPD writes suite × 0.25 into dir as an NPD document, the way
// topogen -suite does, and returns its path.
func writeSuiteNPD(t *testing.T, dir, suite string) string {
	t.Helper()
	s, err := klotski.Suite(suite, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	doc := npd.FromRegionParams(s.Name, s.Region.Params)
	doc.Migration = &npd.MigrationPart{Kind: npd.MigrationHGRID}
	if suite == "E-SSW" {
		doc.Migration = &npd.MigrationPart{Kind: npd.MigrationForklift}
	}
	p := filepath.Join(dir, suite+".json")
	f, err := os.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := doc.Encode(f); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunFleet(t *testing.T) {
	manifest := writeFleetManifest(t, "east", "west")
	outPath := filepath.Join(t.TempDir(), "report.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-fleet", manifest, "-o", outPath}, &out, &errBuf); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errBuf.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep fleetOut
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("fleet report is not JSON: %v", err)
	}
	if rep.Completed != 2 || rep.Failed != 0 || len(rep.Members) != 2 {
		t.Fatalf("fleet report: %+v", rep)
	}
	for _, m := range rep.Members {
		if !m.Completed || m.Actions == 0 {
			t.Errorf("member %q did not complete: %+v", m.Name, m)
		}
	}

	// Member builds run on min(members, pool workers) goroutines, and the
	// pool's budget defaults to GOMAXPROCS: at 1 they build one after
	// another, at 2 concurrently, and the report must not tell them apart.
	dir := t.TempDir()
	mixed := writeManifest(t, dir, []fleetManifestMember{
		{Name: "A", NPD: writeSuiteNPD(t, dir, "A"), Planner: "astar"},
		{Name: "B", NPD: writeSuiteNPD(t, dir, "B"), Planner: "dp"},
		{NPD: writeSuiteNPD(t, dir, "C"), Planner: "astar"},
		{Name: "D", NPD: writeSuiteNPD(t, dir, "D"), Planner: "dp"},
		{Name: "E-SSW", NPD: writeSuiteNPD(t, dir, "E-SSW"), Planner: "dp"},
	})
	reports := make(map[int]fleetOut)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		outPath := filepath.Join(dir, fmt.Sprintf("report-%d.json", procs))
		err := run(context.Background(), []string{"-fleet", mixed, "-o", outPath}, &out, &errBuf)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v (stderr: %s)", procs, err, errBuf.String())
		}
		data, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		var rep fleetOut
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		rep.MakespanMS = 0
		for i := range rep.Members {
			rep.Members[i].WaitMS, rep.Members[i].ElapsedMS = 0, 0
		}
		reports[procs] = rep
	}
	if rep := reports[1]; rep.Completed != 5 || rep.Members[2].Name != "C" {
		t.Fatalf("fleet report at GOMAXPROCS 1: %+v", rep)
	}
	if !reflect.DeepEqual(reports[1], reports[2]) {
		t.Errorf("fleet report at GOMAXPROCS 2 differs from GOMAXPROCS 1:\n%+v\n%+v", reports[2], reports[1])
	}
}

// TestRunFleetBuildErrorIsLowestMember: when several members fail to
// build, the fleet returns the first failing member's error, as a serial
// build loop would have, and plans and reports nothing.
func TestRunFleetBuildErrorIsLowestMember(t *testing.T) {
	dir := t.TempDir()
	good := writeSuiteNPD(t, dir, "A")
	missing := filepath.Join(dir, "missing.json")
	malformed := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(malformed, []byte(`{"version": 1, "name": `), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := writeManifest(t, dir, []fleetManifestMember{
		{Name: "m0", NPD: good}, {Name: "m1", NPD: missing},
		{Name: "m2", NPD: good}, {Name: "m3", NPD: malformed},
	})
	_, want := os.Open(missing)
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		outPath := filepath.Join(dir, "report.json")
		var out, errBuf bytes.Buffer
		err := run(context.Background(), []string{"-fleet", manifest, "-o", outPath}, &out, &errBuf)
		runtime.GOMAXPROCS(prev)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("GOMAXPROCS %d: error %v, want member 1's %v", procs, err, want)
		}
		if _, err := os.Stat(outPath); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("GOMAXPROCS %d: a fleet that failed to build wrote a report (%v)", procs, err)
		}
	}
}

// TestRunFleetRejectsCollidingNames: two members that would seal to the
// same <name>.ckpt.json are rejected before anything is planned, whether
// their names are equal, differ only in a flattened path separator, or
// both default to one document's name.
func TestRunFleetRejectsCollidingNames(t *testing.T) {
	for _, names := range [][]string{
		{"a/b", "a_b"},
		{"east", "east"},
		{"", ""},
		{"cmd-test", "west", ""},
	} {
		manifest := writeFleetManifest(t, names...)
		outPath := filepath.Join(t.TempDir(), "report.json")
		var out, errBuf bytes.Buffer
		err := run(context.Background(), []string{"-fleet", manifest, "-o", outPath}, &out, &errBuf)
		last := len(names) - 1
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("members 0 and %d", last)) {
			t.Errorf("names %q: error %v, want members 0 and %d rejected", names, err, last)
		}
		if _, err := os.Stat(outPath); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("names %q: a rejected fleet wrote a report (%v)", names, err)
		}
	}
}

// TestRunFleetRejectsUnresumablePlanner: a manifest planner that cannot
// checkpoint is refused by name before any member's document is read (the
// documents here do not exist) and before anything is admitted.
func TestRunFleetRejectsUnresumablePlanner(t *testing.T) {
	for _, planner := range []string{"mrc", "janus", "DP", "a*"} {
		dir := t.TempDir()
		missing := filepath.Join(dir, "missing.json")
		manifest := writeManifest(t, dir, []fleetManifestMember{
			{Name: "east", NPD: missing, Planner: "dp"},
			{Name: "west", NPD: missing, Planner: planner},
		})
		outPath := filepath.Join(dir, "report.json")
		var out, errBuf bytes.Buffer
		err := run(context.Background(), []string{"-fleet", manifest, "-o", outPath}, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf(`member 1 ("west") has planner %q`, planner)) {
			t.Errorf("planner %q: error %v, want member 1 named", planner, err)
		}
		if _, err := os.Stat(outPath); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("planner %q: a rejected fleet wrote a report (%v)", planner, err)
		}
	}
}

// TestRunFleetCancelledCheckpointsAllMembers: SIGTERM/SIGINT surface as a
// cancelled context; a fleet run must stop every member at a planner
// checkpoint, seal ALL of them into -fleet-checkpoint-dir (not just one
// plan's, which is all the single-plan -checkpoint flow covers), still
// write the fleet report, and exit nonzero.
func TestRunFleetCancelledCheckpointsAllMembers(t *testing.T) {
	manifest := writeFleetManifest(t, "east", "west")
	dir := t.TempDir()
	ckptDir := filepath.Join(dir, "ckpts")
	outPath := filepath.Join(dir, "report.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out, errBuf bytes.Buffer
	err := run(ctx, []string{
		"-fleet", manifest, "-fleet-checkpoint-dir", ckptDir, "-o", outPath,
	}, &out, &errBuf)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v (stderr: %s)", err, errBuf.String())
	}

	// Every member's checkpoint is sealed under the expected name and
	// opens as a klotski/plan envelope carrying the interruption details.
	for _, name := range []string{"east", "west"} {
		path := filepath.Join(ckptDir, name+".ckpt.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("member %q checkpoint: %v (stderr: %s)", name, err, errBuf.String())
		}
		payload, err := durable.OpenSealed(npd.PlanFormat, data)
		if err != nil {
			t.Fatalf("member %q checkpoint envelope: %v", name, err)
		}
		var doc struct {
			Task       string `json:"task"`
			Checkpoint struct {
				Planner string `json:"planner"`
				Reason  string `json:"reason"`
			} `json:"checkpoint"`
		}
		if err := json.Unmarshal(payload, &doc); err != nil {
			t.Fatalf("member %q checkpoint payload: %v", name, err)
		}
		if doc.Task != "cmd-test" || doc.Checkpoint.Planner == "" {
			t.Errorf("member %q checkpoint document: %+v", name, doc)
		}
		if !strings.Contains(doc.Checkpoint.Reason, "context canceled") {
			t.Errorf("member %q checkpoint reason %q, want context cancellation", name, doc.Checkpoint.Reason)
		}
	}
	if got := strings.Count(errBuf.String(), "checkpointed to"); got != 2 {
		t.Errorf("stderr reports %d member checkpoints, want 2:\n%s", got, errBuf.String())
	}

	// The fleet report is still written on the interrupted path.
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("fleet report after cancellation: %v", err)
	}
	var rep fleetOut
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("fleet report is not JSON: %v", err)
	}
	if len(rep.Members) != 2 || rep.Completed != 0 {
		t.Errorf("interrupted fleet report: %+v", rep)
	}
}

// TestFleetCheckpointName: member names cannot escape the checkpoint dir.
func TestFleetCheckpointName(t *testing.T) {
	if got := fleetCheckpointName("../../etc/passwd"); strings.Contains(got, "/") || strings.Contains(got, "\\") {
		t.Errorf("fleetCheckpointName left separators in %q", got)
	}
	if got := fleetCheckpointName("east"); got != "east.ckpt.json" {
		t.Errorf("fleetCheckpointName(east) = %q", got)
	}
}

// TestRunBlockFactorAuditAndResume plans suite C × 0.25 re-blocked by a
// factor of 2 and requires -audit and -resume to rebuild the same
// re-blocked task: the audit passes, and resuming after two executed
// actions plans exactly the plan's other blocks.
func TestRunBlockFactorAuditAndResume(t *testing.T) {
	s, err := klotski.Suite("C", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	doc := npd.FromRegionParams(s.Name, s.Region.Params)
	doc.Migration = &npd.MigrationPart{Kind: npd.MigrationHGRID, BlockFactor: 2}
	dir := t.TempDir()
	npdPath := filepath.Join(dir, "Cbf.json")
	f, err := os.Create(npdPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.Encode(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	planPath := filepath.Join(dir, "plan.json")
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), []string{"-npd", npdPath, "-o", planPath}, &out, &errBuf); err != nil {
		t.Fatalf("planning: %v (stderr: %s)", err, errBuf.String())
	}
	if err := run(context.Background(), []string{"-npd", npdPath, "-audit", planPath}, &out, &errBuf); err != nil {
		t.Fatalf("-audit: %v (stderr: %s)", err, errBuf.String())
	}
	if err := run(context.Background(), []string{"-npd", npdPath, "-resume", planPath, "-executed", "2"}, &out, &errBuf); err != nil {
		t.Fatalf("-resume: %v (stderr: %s)", err, errBuf.String())
	}

	blocks := func(data []byte) []string {
		t.Helper()
		var pd klotski.PlanDocument
		if err := json.Unmarshal(data, &pd); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, ph := range pd.Phases {
			names = append(names, ph.Blocks...)
		}
		if len(names) != pd.Actions {
			t.Fatalf("plan document lists %d blocks for %d actions", len(names), pd.Actions)
		}
		return names
	}
	data, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	planned, resumed := blocks(data), blocks(out.Bytes())
	if len(planned) <= 8 {
		t.Fatalf("%d blocks planned; a block factor of 2 should split suite C's 8", len(planned))
	}
	left := make(map[string]bool)
	for _, b := range planned[2:] {
		left[b] = true
	}
	for _, b := range resumed {
		if !left[b] {
			t.Errorf("resumed plan operates block %q, not one of the %d the plan left after two actions", b, len(planned)-2)
		}
		delete(left, b)
	}
	if len(left) != 0 || len(resumed) != len(planned)-2 {
		t.Errorf("resumed plan has %d actions, want the plan's last %d", len(resumed), len(planned)-2)
	}
}
