package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"klotski/internal/durable"
)

func newTestServer(t *testing.T, mutate func(*Config)) (*Manager, *httptest.Server) {
	t.Helper()
	m := newManager(t, t.TempDir(), mutate)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("GET %s: %v in %q", url, err, data)
		}
	}
	return resp.StatusCode
}

func TestHTTPSubmitPollPlan(t *testing.T) {
	m, srv := newTestServer(t, nil)

	resp, body := postJSON(t, srv.URL+"/v1/jobs", testRequest())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatalf("submit returned no job ID: %s", body)
	}

	// Poll until DONE.
	deadline := time.Now().Add(time.Minute)
	for st.State != StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID, &st); code != http.StatusOK {
			t.Fatalf("status: %d", code)
		}
	}
	if st.Gap != 0 {
		t.Errorf("done job gap %v", st.Gap)
	}

	// The plan endpoint serves the audited document.
	var pd struct {
		Task   string `json:"task"`
		Phases []any  `json:"phases"`
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/plan", &pd); code != http.StatusOK {
		t.Fatalf("plan: %d", code)
	}
	if pd.Task != "serve-test" || len(pd.Phases) == 0 {
		t.Errorf("plan document: %+v", pd)
	}

	// The checkpoint endpoint serves a sealed envelope.
	var env struct {
		SealVersion int    `json:"sealVersion"`
		Format      string `json:"format"`
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/checkpoint", &env); code != http.StatusOK {
		t.Fatalf("checkpoint: %d", code)
	}
	if env.Format != "klotski/plan" {
		t.Errorf("checkpoint format %q", env.Format)
	}
	// An envelope under the retired klotski/job-checkpoint tag is refused
	// by its tag, never misparsed.
	retired, err := durable.SealValue("klotski/job-checkpoint", map[string]any{"job": st.ID, "partial": []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	_, ckptPath := m.jobPaths(st.ID)
	if err := os.WriteFile(ckptPath, retired, 0o644); err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/checkpoint", &apiErr); code != http.StatusNotFound ||
		!strings.Contains(apiErr.Error, "no valid checkpoint") || !strings.Contains(apiErr.Error, "klotski/job-checkpoint") {
		t.Errorf("retired checkpoint envelope: %d %q, want 404 no valid checkpoint naming the tag", code, apiErr.Error)
	}

	// The list endpoint includes the job.
	var list []Status
	if code := getJSON(t, srv.URL+"/v1/jobs", &list); code != http.StatusOK || len(list) != 1 {
		t.Errorf("list: %d, %d jobs", code, len(list))
	}
}

func TestHTTPErrors(t *testing.T) {
	m, srv := newTestServer(t, func(c *Config) {
		c.LegHook = func(string, int) error { time.Sleep(10 * time.Millisecond); return nil }
	})

	if code := getJSON(t, srv.URL+"/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", code)
	}
	resp, _ := postJSON(t, srv.URL+"/v1/jobs/job-999999/cancel", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job cancel: %d, want 404", resp.StatusCode)
	}
	resp, body := postJSON(t, srv.URL+"/v1/jobs", Request{Planner: "mrc"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad submit: %d %s, want 400", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/jobs", "not a request")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-object submit: %d, want 400", resp.StatusCode)
	}
	// Options no planner accepts (core.Options.Validate) are the request's
	// fault: 400 at submit, not a job that fails later.
	for _, bad := range []func(*Request){
		func(rq *Request) { rq.Theta = 2 },
		func(rq *Request) { rq.Theta = -0.5 },
		func(rq *Request) { rq.Alpha = 1.5 },
		func(rq *Request) { rq.MaxRun = -1 },
	} {
		rq := testRequest()
		bad(&rq)
		if resp, body := postJSON(t, srv.URL+"/v1/jobs", rq); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit theta %v alpha %v max_run %d: %d %s, want 400", rq.Theta, rq.Alpha, rq.MaxRun, resp.StatusCode, body)
		}
	}

	// A valid request the daemon cannot journal (a directory squats on
	// the next job's journal) is the daemon's failure: 500, and the retry,
	// under the next job ID, is accepted. That job, without a plan yet,
	// answers 409 on /plan.
	if err := os.Mkdir(filepath.Join(m.cfg.Dir, "job-000000.journal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", testRequest()); resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("unjournaled submit: %d %s, want 500", resp.StatusCode, body)
	}
	if resp, body = postJSON(t, srv.URL+"/v1/jobs", testRequest()); resp.StatusCode != http.StatusAccepted {
		t.Errorf("retried submit: %d %s, want 202", resp.StatusCode, body)
	}
	var st Status
	json.Unmarshal(body, &st)
	if code := getJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/plan", nil); code != http.StatusConflict {
		t.Errorf("plan before audit: %d, want 409", code)
	}

	var health map[string]string
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("health: %d %v", code, health)
	}
}

// TestHTTPSubmitRefusesUnknownFields: a misspelled request field ("maxrun"
// for "max_run") is answered 400 naming the field, not dropped so that the
// job plans uncapped.
func TestHTTPSubmitRefusesUnknownFields(t *testing.T) {
	m, srv := newTestServer(t, nil)
	body := `{"npd": ` + testNPD + `, "maxrun": 2}`
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr apiError
	json.NewDecoder(resp.Body).Decode(&apiErr)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, `"maxrun"`) {
		t.Errorf("submit with \"maxrun\": %d %q, want 400 naming the field", resp.StatusCode, apiErr.Error)
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Errorf("a refused request made %d jobs", len(jobs))
	}
}

// TestHTTPStream reads the NDJSON stream to the end: it must deliver
// monotonic progress and finish with the terminal snapshot.
func TestHTTPStream(t *testing.T) {
	// Slow the legs down so the stream attaches before the job finishes.
	_, srv := newTestServer(t, func(c *Config) {
		c.LegHook = func(string, int) error { time.Sleep(10 * time.Millisecond); return nil }
	})
	_, body := postJSON(t, srv.URL+"/v1/jobs", testRequest())
	var submitted Status
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + submitted.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var last Status
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var st Status
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			t.Fatalf("stream line %d: %v in %q", lines, err, sc.Text())
		}
		if st.ID != submitted.ID {
			t.Fatalf("stream line for %s, want %s", st.ID, submitted.ID)
		}
		last = st
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if lines < 2 {
		t.Errorf("stream delivered %d snapshots, want at least initial + terminal", lines)
	}
	if last.State != StateDone {
		t.Errorf("stream ended on %s, want DONE", last.State)
	}
}

// TestHTTPStreamClientDrop drops the streaming connection mid-plan; the
// job must be unaffected and finish DONE for other clients.
func TestHTTPStreamClientDrop(t *testing.T) {
	m, srv := newTestServer(t, func(c *Config) {
		c.LegHook = func(string, int) error { time.Sleep(5 * time.Millisecond); return nil }
	})
	_, body := postJSON(t, srv.URL+"/v1/jobs", testRequest())
	var submitted Status
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}

	// Open several streams and kill them after the first snapshot.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + submitted.ID + "/stream")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		resp.Body.Read(buf) // partial read, then slam the connection shut
		resp.Body.Close()
	}

	j, err := m.Job(submitted.ID)
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s) after client drops, want DONE", st.State, st.Detail)
	}
	// A fresh stream on the finished job yields exactly the terminal state.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + submitted.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var final Status
	if err := json.Unmarshal(bytes.TrimSpace(data), &final); err != nil {
		t.Fatalf("terminal stream: %v in %q", err, data)
	}
	if final.State != StateDone {
		t.Errorf("terminal stream state %s", final.State)
	}
}

func TestHTTPCancel(t *testing.T) {
	blocked := make(chan struct{})
	m, srv := newTestServer(t, func(c *Config) {
		c.LegHook = func(id string, leg int) error {
			if leg == 1 {
				select {
				case <-blocked:
				default:
					close(blocked)
				}
				time.Sleep(10 * time.Millisecond)
			}
			return nil
		}
	})
	_, body := postJSON(t, srv.URL+"/v1/jobs", testRequest())
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	<-blocked
	resp, _ := postJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/cancel", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	j, err := m.Job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, j); got.State != StateCancelled {
		t.Fatalf("job finished %s, want CANCELLED", got.State)
	}
	// Cancelling again conflicts.
	resp, _ = postJSON(t, srv.URL+"/v1/jobs/"+st.ID+"/cancel", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel terminal job: %d, want 409", resp.StatusCode)
	}
}

// TestHTTPSubmitBodyLimit posts a valid request exactly maxRequestBytes
// long, which is accepted, and a body one byte longer, which must be
// refused with 413 and a JSON error without creating a job.
func TestHTTPSubmitBodyLimit(t *testing.T) {
	m, srv := newTestServer(t, nil)

	rq := testRequest()
	base, err := json.Marshal(rq)
	if err != nil {
		t.Fatal(err)
	}
	rq.Name = strings.Repeat("x", maxRequestBytes-len(base)-len(`,"name":""`))
	atLimit, err := json.Marshal(rq)
	if err != nil {
		t.Fatal(err)
	}
	if len(atLimit) != maxRequestBytes {
		t.Fatalf("test body is %d bytes, want %d", len(atLimit), maxRequestBytes)
	}
	if resp, body := postRaw(t, srv.URL+"/v1/jobs", atLimit); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("request of exactly %d bytes: %d %s", maxRequestBytes, resp.StatusCode, body)
	}

	over := append(bytes.TrimSuffix(atLimit, []byte("}")), []byte(` }`)...)
	resp, body := postRaw(t, srv.URL+"/v1/jobs", over)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("request of %d bytes: %d %s, want 413", len(over), resp.StatusCode, body)
	}
	var e apiError
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("413 body is not a JSON error: %q (%v)", body, err)
	}
	if got := len(m.Jobs()); got != 1 {
		t.Errorf("%d jobs after one accepted and one oversized submission, want 1", got)
	}
}

func postRaw(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, out
}

// TestHTTPServerReadHeaderTimeout checks that NewHTTPServer bounds header
// reads, then drives one with the bound shortened: a client that never
// finishes its headers is disconnected, while a complete request on
// another connection is served.
func TestHTTPServerReadHeaderTimeout(t *testing.T) {
	m := newManager(t, t.TempDir(), nil)
	defer m.Close()
	srv := NewHTTPServer(NewHandler(m))
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// The server's header deadline may start at accept, before Dial
	// returns, so the clock starts before the dial.
	start := time.Now()
	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if _, err := io.WriteString(slow, "GET /healthz HTTP/1.1\r\nHost: klotskid\r\n"); err != nil {
		t.Fatal(err)
	}
	slow.SetReadDeadline(time.Now().Add(10 * time.Second))
	if n, err := slow.Read(make([]byte, 512)); err != io.EOF {
		t.Fatalf("half-sent headers: read %d bytes, %v; want the server to close the connection", n, err)
	}
	if waited := time.Since(start); waited < srv.ReadHeaderTimeout {
		t.Errorf("connection closed after %v, before the %v header timeout", waited, srv.ReadHeaderTimeout)
	}

	var health map[string]string
	if code := getJSON(t, "http://"+ln.Addr().String()+"/healthz", &health); code != http.StatusOK {
		t.Errorf("complete request: %d", code)
	}
}

// TestHTTPDrainRejectsSubmit verifies the health and submit behavior of
// a draining daemon.
func TestHTTPDrainRejectsSubmit(t *testing.T) {
	m, srv := newTestServer(t, nil)
	m.Drain()
	var health map[string]string
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "draining" {
		t.Errorf("health while draining: %d %v", code, health)
	}
	resp, _ := postJSON(t, srv.URL+"/v1/jobs", testRequest())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", resp.StatusCode)
	}
}
