package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

const testNPD = `{
	"version": 1,
	"name": "klotskid-test",
	"fabric": [{"dc": 0, "pods": 2, "rswPerPod": 2, "planes": 4, "sswPerPlane": 2, "fswUplinks": 1}],
	"hgrid": {"grids": 4, "faduPerGrid": 2, "fauuPerGrid": 1, "sswDownlinks": 1},
	"eb": {"count": 2, "linkTbps": 40},
	"dr": {"count": 1, "linkTbps": 80},
	"bb": {"ebbs": 1},
	"migration": {"kind": "hgrid-v1-v2"}
}`

// TestHelperProcess is not a test: it is the daemon main re-entered in a
// child process, so the e2e tests below can SIGKILL and SIGTERM a real
// klotskid and restart it over the same state directory.
func TestHelperProcess(t *testing.T) {
	if os.Getenv("KLOTSKID_HELPER") != "1" {
		t.Skip("not a helper invocation")
	}
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i+1:]
			break
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, args, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "klotskid:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// daemon is one running klotskid child process.
type daemon struct {
	cmd    *exec.Cmd
	url    string // API base URL
	opsURL string // ops base URL ("" unless -ops-addr was passed)
	stderr *lockedBuffer
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var (
	listenRe = regexp.MustCompile(`klotskid listening on (http://[^ ]+)`)
	opsRe    = regexp.MustCompile(`klotskid ops on (http://[^ ]+)`)
)

// startDaemon launches klotskid as a child process over dir and waits
// for its listen line(s). exec copies the child's stderr into d.stderr and
// cmd.Wait returns only once that copy has reached EOF, so after Wait the
// buffer holds every line the child wrote.
func startDaemon(t *testing.T, dir string, extra ...string) *daemon {
	t.Helper()
	args := []string{"-test.run=TestHelperProcess", "--", "-addr", "127.0.0.1:0", "-dir", dir}
	args = append(args, extra...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "KLOTSKID_HELPER=1")
	d := &daemon{cmd: cmd, stderr: &lockedBuffer{}}
	cmd.Stderr = d.stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	wantOps := false
	for _, a := range extra {
		if a == "-ops-addr" {
			wantOps = true
		}
	}
	waitFor(t, "the daemon's listen lines", 30*time.Second, func() bool {
		out := d.stderr.String()
		if m := listenRe.FindStringSubmatch(out); m != nil {
			d.url = m[1]
		}
		if m := opsRe.FindStringSubmatch(out); m != nil {
			d.opsURL = m[1]
		}
		return d.url != "" && (!wantOps || d.opsURL != "")
	})
	return d
}

// submitJob posts a request with a small leg budget and returns the job ID.
func submitJob(t *testing.T, baseURL string) string {
	t.Helper()
	body := fmt.Sprintf(`{"npd": %s, "leg_states": 8}`, testNPD)
	resp, err := http.Post(baseURL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

type jobStatus struct {
	ID        string  `json:"id"`
	State     string  `json:"state"`
	Detail    string  `json:"detail"`
	Legs      int     `json:"legs"`
	Gap       float64 `json:"gap"`
	Cost      float64 `json:"cost"`
	Actions   int     `json:"actions"`
	Recovered bool    `json:"recovered"`
}

func getStatus(t *testing.T, baseURL, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getPlan(t *testing.T, baseURL, id string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/jobs/" + id + "/plan")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan %s: %d %s", id, resp.StatusCode, data)
	}
	return data
}

// referencePlans runs two jobs on an undisturbed daemon and returns
// their plans and gaps — the bytes every crash scenario must reproduce.
func referencePlans(t *testing.T) (plans [][]byte, gaps []float64) {
	t.Helper()
	d := startDaemon(t, t.TempDir())
	ids := []string{submitJob(t, d.url), submitJob(t, d.url)}
	for _, id := range ids {
		id := id
		waitFor(t, "reference "+id, 2*time.Minute, func() bool {
			return getStatus(t, d.url, id).State == "DONE"
		})
		st := getStatus(t, d.url, id)
		plans = append(plans, getPlan(t, d.url, id))
		gaps = append(gaps, st.Gap)
	}
	return plans, gaps
}

// TestSIGKILLMidPlanningRecovers is the cross-process robustness e2e:
// two jobs are submitted, the daemon is SIGKILLed mid-planning, a fresh
// process restarts over the same state directory, and both jobs must
// recover and finish audited with plans byte-identical to an undisturbed
// daemon's.
func TestSIGKILLMidPlanningRecovers(t *testing.T) {
	wantPlans, wantGaps := referencePlans(t)

	dir := t.TempDir()
	d1 := startDaemon(t, dir, "-leg-pause", "40ms")
	ids := []string{submitJob(t, d1.url), submitJob(t, d1.url)}
	// Let both jobs journal at least one checkpoint leg, so the kill
	// lands mid-planning with real search state on disk.
	for _, id := range ids {
		id := id
		waitFor(t, id+" mid-planning", time.Minute, func() bool {
			st := getStatus(t, d1.url, id)
			return st.Legs >= 1 && st.State == "PLANNING"
		})
	}
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d1.cmd.Wait()

	d2 := startDaemon(t, dir)
	for i, id := range ids {
		id := id
		waitFor(t, id+" recovery", 2*time.Minute, func() bool {
			return getStatus(t, d2.url, id).State == "DONE"
		})
		st := getStatus(t, d2.url, id)
		if !st.Recovered {
			t.Errorf("job %s not flagged recovered", id)
		}
		if st.Gap != wantGaps[i] {
			t.Errorf("job %s gap %v, undisturbed %v", id, st.Gap, wantGaps[i])
		}
		if got := getPlan(t, d2.url, id); !bytes.Equal(got, wantPlans[i]) {
			t.Errorf("job %s plan differs from undisturbed run after SIGKILL recovery", id)
		}
	}
}

// TestSIGTERMDrainsGracefully sends SIGTERM mid-planning: the daemon
// must checkpoint the job, exit 0, and a restart must finish the job
// with the undisturbed plan.
func TestSIGTERMDrainsGracefully(t *testing.T) {
	wantPlans, _ := referencePlans(t)

	dir := t.TempDir()
	d1 := startDaemon(t, dir, "-leg-pause", "40ms")
	id := submitJob(t, d1.url)
	waitFor(t, id+" mid-planning", time.Minute, func() bool {
		st := getStatus(t, d1.url, id)
		return st.Legs >= 1 && st.State == "PLANNING"
	})
	if err := d1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d1.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v; stderr:\n%s", err, d1.stderr.String())
	}
	if !strings.Contains(d1.stderr.String(), "drained cleanly") {
		t.Errorf("no clean drain message; stderr:\n%s", d1.stderr.String())
	}

	d2 := startDaemon(t, dir)
	waitFor(t, id+" after drain", 2*time.Minute, func() bool {
		return getStatus(t, d2.url, id).State == "DONE"
	})
	if got := getPlan(t, d2.url, id); !bytes.Equal(got, wantPlans[0]) {
		t.Errorf("plan differs from undisturbed run after drain/restart")
	}
}

// TestOpsStatsEndpoint checks the -stats-out-compatible /debug/stats
// surface on the ops port.
func TestOpsStatsEndpoint(t *testing.T) {
	d := startDaemon(t, t.TempDir(), "-ops-addr", "127.0.0.1:0")
	id := submitJob(t, d.url)
	waitFor(t, id+" done", 2*time.Minute, func() bool {
		return getStatus(t, d.url, id).State == "DONE"
	})
	resp, err := http.Get(d.opsURL + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]struct {
			Value int64 `json:"value"`
			Max   int64 `json:"max"`
		} `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/debug/stats is not a stats snapshot: %v", err)
	}
	if snap.Counters["serve.jobs_submitted"] != 1 {
		t.Errorf("serve.jobs_submitted = %d, want 1", snap.Counters["serve.jobs_submitted"])
	}
	if _, ok := snap.Gauges["serve.jobs_active"]; !ok {
		t.Errorf("serve.jobs_active gauge missing from /debug/stats")
	}
	// expvar surface serves too.
	vr, err := http.Get(d.opsURL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vr.Body.Close()
	if vr.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars: %d", vr.StatusCode)
	}
}

func TestRunRequiresDir(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "-dir is required") {
		t.Fatalf("run without -dir: %v", err)
	}
}

// TestRunRefusesBadDefaults: a default no job could plan with stops the
// daemon at start, before it listens, instead of answering 202 for jobs
// that then fail. -theta 2 is run as a real process, which must exit
// non-zero; a negative -pool-workers or -leg-states, which would be read as
// GOMAXPROCS or 50 000, is refused the same way.
func TestRunRefusesBadDefaults(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=TestHelperProcess", "--",
		"-addr", "127.0.0.1:0", "-dir", t.TempDir(), "-theta", "2")
	cmd.Env = append(os.Environ(), "KLOTSKID_HELPER=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() == 0 {
		t.Fatalf("klotskid -theta 2: %v, want a non-zero exit (stderr: %s)", err, stderr.String())
	}
	if strings.Contains(stderr.String(), "listening") || !strings.Contains(stderr.String(), "Theta 2") {
		t.Errorf("klotskid -theta 2 stderr %q: want the refusal naming Theta 2 and no listen line", stderr.String())
	}
	for _, flag := range []string{"-pool-workers", "-leg-states"} {
		var out, errBuf bytes.Buffer
		err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-dir", t.TempDir(), flag, "-1"}, &out, &errBuf)
		if err == nil || strings.Contains(errBuf.String(), "listening") {
			t.Errorf("klotskid %s -1: %v (stderr %q), want a refusal before listening", flag, err, errBuf.String())
		}
	}
}

// TestRunRefusesDroppedInput: input the daemon would drop, a positional
// argument or a negative -leg-pause, stops it before it listens, naming
// what is refused; the benchmark's command line still starts. The context
// is cancelled up front, so a daemon that starts drains at once and run
// returns nil.
func TestRunRefusesDroppedInput(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, r := range []struct {
		args []string
		want string
	}{
		{[]string{"stray-arg"}, `"stray-arg"`},
		{[]string{"-leg-pause", "-1s"}, "-leg-pause"},
		{[]string{"-leg-pause", "-1s", "stray-arg"}, `"stray-arg"`},
	} {
		var out, errBuf bytes.Buffer
		args := append([]string{"-dir", t.TempDir(), "-addr", "127.0.0.1:0"}, r.args...)
		err := run(ctx, args, &out, &errBuf)
		if err == nil || !strings.Contains(err.Error(), r.want) || strings.Contains(errBuf.String(), "listening") {
			t.Errorf("klotskid %v: %v (stderr %q), want a refusal naming %s before listening", args, err, errBuf.String(), r.want)
		}
	}
	var out, errBuf bytes.Buffer
	args := []string{"-addr", "127.0.0.1:0", "-dir", t.TempDir(), "-pool-workers", "2"}
	if err := run(ctx, args, &out, &errBuf); err != nil || !strings.Contains(errBuf.String(), "listening") {
		t.Errorf("klotskid %v: %v (stderr %q), want it to start", args, err, errBuf.String())
	}
}
