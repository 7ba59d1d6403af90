package serve

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"klotski/internal/obs"
)

func TestDebugHandler(t *testing.T) {
	reg := obs.NewRegistry()
	obs.NewRecorder(reg).Add(obs.StatesCreated, 1)
	PublishExpvar(reg, "klotski-test")
	PublishExpvar(reg, "klotski-test") // duplicate publish must not panic

	srv := httptest.NewServer(DebugHandler(reg))
	defer srv.Close()

	for path, want := range map[string]string{
		"/debug/vars":   "klotski-test",
		"/debug/stats":  obs.MetricStatesCreated,
		"/":             obs.MetricStatesCreated,
		"/debug/pprof/": "goroutine",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if !strings.Contains(body.String(), want) {
			t.Errorf("GET %s: body missing %q", path, want)
		}
	}
}
