package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// daemonClients is the number of closed-loop client goroutines; each
	// has at most one job in flight.
	daemonClients = 2
	// cpuWindow is how many consecutive ops share one CPU sample: the
	// daemon's CPU clock ticks at 10 ms, so one op is too short to read.
	// Windows slide by one op, so a run of n ops yields n-cpuWindow+1.
	cpuWindow = 10
)

// daemon is a running klotskid child.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *tailBuffer
	client *http.Client
}

// tailBuffer keeps the last few KiB written to it, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 4096; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// newClient returns an HTTP client that keeps one connection per request a
// client goroutine can have open (the status stream and the next request).
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * daemonClients}}
}

// startDaemon starts klotskid on a fresh state directory and returns once
// /healthz answers. The listen port is chosen by the kernel and read from
// the daemon's first line of standard error.
func startDaemon(ctx context.Context, bin, stateDir string) (*daemon, error) {
	if err := os.RemoveAll(stateDir); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-dir", stateDir, "-pool-workers", "2")
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stderr: &tailBuffer{}, client: newClient()}
	rd := bufio.NewReader(pipe)
	line, err := rd.ReadString('\n')
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("klotskid exited before listening: %w", err)
	}
	// "klotskid listening on http://127.0.0.1:PORT (state dir …)"
	_, rest, ok := strings.Cut(line, "listening on ")
	if !ok {
		d.stop()
		return nil, fmt.Errorf("unexpected first line from klotskid: %q", line)
	}
	d.base, _, _ = strings.Cut(rest, " ")
	// Keep draining so the daemon never blocks on a full pipe. The
	// goroutine ends when the daemon exits and the pipe closes.
	go io.Copy(d.stderr, rd)

	resp, err := d.get(ctx, "/healthz")
	if err != nil {
		d.stop()
		return nil, err
	}
	if !bytes.Contains(resp, []byte(`"ok"`)) {
		d.stop()
		return nil, fmt.Errorf("klotskid /healthz answered %s", resp)
	}
	return d, nil
}

// stop asks the daemon to drain, waits for it to exit, and kills it if it
// does not within ten seconds.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only when already reaped
	done := make(chan struct{})
	go func() {
		_ = d.cmd.Wait() // exit status of a stopped daemon carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
	}
}

func (d *daemon) do(ctx context.Context, method, path string, body []byte, want int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	resp, err := d.do(ctx, http.MethodGet, path, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// jobStatus is the part of the service's status document the checks read.
type jobStatus struct {
	ID      string  `json:"id"`
	State   string  `json:"state"`
	Detail  string  `json:"detail"`
	Gap     float64 `json:"gap"`
	Actions int     `json:"actions"`
	Cost    float64 `json:"cost"`
}

func (s jobStatus) terminal() bool {
	return s.State == "DONE" || s.State == "CANCELLED" || s.State == "FAILED"
}

// runJob is one closed-loop request: submit, follow the status stream to a
// terminal state, fetch the plan. It returns the plan document of a job
// that ended DONE. Each of the three requests is a span under a root span
// named "op" when tr is not nil.
func (d *daemon) runJob(ctx context.Context, tr *tracer, op int, body []byte) (jobStatus, []byte, error) {
	root := tr.start("op", -1, op)
	defer tr.end(root)

	id := tr.start("http.submit", root, op)
	st, err := d.submit(ctx, body)
	tr.end(id)
	if err != nil {
		return st, nil, err
	}
	id = tr.start("http.stream", root, op)
	st, err = d.follow(ctx, st)
	tr.end(id)
	if err != nil {
		return st, nil, err
	}
	if st.State != "DONE" {
		return st, nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Detail)
	}
	id = tr.start("http.plan", root, op)
	plan, err := d.get(ctx, "/v1/jobs/"+st.ID+"/plan")
	tr.end(id)
	return st, plan, err
}

func (d *daemon) submit(ctx context.Context, body []byte) (jobStatus, error) {
	var st jobStatus
	resp, err := d.do(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("submit reply: %w", err)
	}
	return st, nil
}

// follow reads the job's status stream until a terminal state.
func (d *daemon) follow(ctx context.Context, st jobStatus) (jobStatus, error) {
	resp, err := d.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/stream", nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for !st.terminal() {
		if err := dec.Decode(&st); err != nil {
			return st, fmt.Errorf("job %s: stream ended in state %s: %w", st.ID, st.State, err)
		}
	}
	// Read to the end so the connection goes back to the pool.
	_, _ = io.Copy(io.Discard, resp.Body)
	return st, nil
}

// daemon-burst

type daemonBurst struct {
	e     *env
	dir   string
	d     *daemon
	jobs  []daemonJob
	docs  map[string][]byte    // NPD document per fabric
	body  map[daemonJob][]byte // request body per kind of job
	want  map[daemonJob]expectedPlan
	refMu sync.Mutex
	ref   map[daemonJob][]byte // first plan document per kind of job

	cpuAfter []float64 // daemon CPU seconds at the boundaries of the measured ops since the last failed one

	tr *tracer // nil except in the traced replay
}

func setupDaemonBurst(ctx context.Context, e *env, dir string, seed int64, _ int) (runner, error) {
	b, err := newDaemonBurst(ctx, e, dir, seed)
	if err != nil {
		return nil, err
	}
	// The state directory stays inside the checkout, so the journal's
	// fsyncs hit whatever disk the checkout is on.
	b.d, err = startDaemon(ctx, e.klotskid, filepath.Join(dir, "state"))
	if err != nil {
		return nil, err
	}
	return b, nil
}

// newDaemonBurst generates the fabrics and request bodies; the service to
// submit them to is attached by the caller.
func newDaemonBurst(ctx context.Context, e *env, dir string, seed int64) (*daemonBurst, error) {
	b := &daemonBurst{
		e: e, dir: dir, jobs: daemonBatch(seed), docs: make(map[string][]byte),
		body: make(map[daemonJob][]byte), want: make(map[daemonJob]expectedPlan), ref: make(map[daemonJob][]byte),
	}
	for _, f := range daemonFabrics {
		if err := e.topogenInto(dir, f); err != nil {
			return nil, err
		}
		doc, err := os.ReadFile(filepath.Join(dir, f+".json"))
		if err != nil {
			return nil, err
		}
		b.docs[f] = doc
		for _, planner := range []string{"astar", "dp"} {
			k := daemonJob{Fabric: f, Planner: planner}
			want, err := e.pinned(f, planner)
			if err != nil {
				return nil, err
			}
			b.want[k] = want
			b.body[k], err = json.Marshal(struct {
				Name    string          `json:"name"`
				NPD     json.RawMessage `json:"npd"`
				Planner string          `json:"planner"`
			}{f + "-" + planner, doc, planner})
			if err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// op submits one batch and, once enough ops have passed, closes a CPU
// sample over the last cpuWindow of them.
func (b *daemonBurst) op(ctx context.Context, i int) (opStat, error) {
	pid := b.d.cmd.Process.Pid
	if i >= 0 && len(b.cpuAfter) == 0 {
		cpu, err := procCPU(pid)
		if err != nil {
			return opStat{}, err
		}
		b.cpuAfter = append(b.cpuAfter, cpu)
	}
	wall, err := b.batch(ctx, i)
	if err != nil {
		// A failed batch did an unknown part of its work: no CPU window
		// may span it, so the next op starts the windows afresh.
		b.cpuAfter = b.cpuAfter[:0]
		return opStat{}, fmt.Errorf("%w\nklotskid stderr: %s", err, b.d.stderr)
	}
	st := opStat{wall: wall, cpu: -1}
	if i >= 0 {
		cpu, err := procCPU(pid)
		if err != nil {
			return opStat{}, err
		}
		b.cpuAfter = append(b.cpuAfter, cpu)
		if n := len(b.cpuAfter); n > cpuWindow {
			st.cpu = (cpu - b.cpuAfter[n-1-cpuWindow]) / cpuWindow
		}
	}
	return st, nil
}

// batch is the op proper: the clients draw jobs from a shared queue until
// it is empty, so the batch ends when the last job does. It returns the
// batch's wall time in seconds.
func (b *daemonBurst) batch(ctx context.Context, i int) (float64, error) {
	queue := make(chan int, len(b.jobs))
	for k := range b.jobs {
		queue <- k
	}
	close(queue)
	errs := make([]error, daemonClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range queue {
				if err := b.job(ctx, b.jobs[k], i*len(b.jobs)+k); err != nil {
					errs[c] = errors.Join(errs[c], err)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start).Seconds(), errors.Join(errs...)
}

func (b *daemonBurst) job(ctx context.Context, j daemonJob, op int) error {
	st, plan, err := b.d.runJob(ctx, b.tr, op, b.body[j])
	if err != nil {
		return err
	}
	want := b.want[j]
	if st.Cost != want.Cost || st.Actions != want.Actions || st.Gap != want.Gap {
		return fmt.Errorf("job %s (%s/%s): cost %g, %d actions, gap %g; pinned %+v", st.ID, j.Fabric, j.Planner, st.Cost, st.Actions, st.Gap, want)
	}
	b.refMu.Lock()
	ref, seen := b.ref[j]
	if !seen {
		b.ref[j] = plan
	}
	b.refMu.Unlock()
	if !seen {
		_, err := checkPlanDoc(plan, want)
		return err
	}
	if !bytes.Equal(plan, ref) {
		return fmt.Errorf("job %s (%s/%s): plan document differs from the first of its kind", st.ID, j.Fabric, j.Planner)
	}
	return nil
}

// finish reads the daemon's peak RSS: it retains every job of the run, so
// this is a retention metric.
func (b *daemonBurst) finish(context.Context) (int64, error) {
	return procHWM(b.d.cmd.Process.Pid)
}

func (b *daemonBurst) close() { b.d.stop() }
