package serve

import (
	"expvar"
	"net/http"
	"net/http/pprof"
	"sync"

	"klotski/internal/obs"
)

var (
	publishMu sync.Mutex
	published = make(map[string]bool)
)

// PublishExpvar exposes r's live snapshot as the named expvar variable
// (shown under /debug/vars). expvar panics on duplicate names, so
// republishing the same name is a guarded no-op; the variable re-snapshots
// the registry on every read, so one publish suffices for the process
// lifetime.
func PublishExpvar(r *obs.Registry, name string) {
	if r == nil {
		return
	}
	publishMu.Lock()
	defer publishMu.Unlock()
	if published[name] {
		return
	}
	published[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// DebugHandler returns an HTTP mux serving the standard debug surface:
// /debug/vars (expvar, including anything published via PublishExpvar),
// /debug/pprof/* (profiles, traces, symbol lookup), and /debug/stats —
// the exact JSON document the CLI's -stats-out flag writes, so tooling
// built on those snapshots reads a live daemon unchanged. The root path
// serves the same snapshot for tools that want stats without a path.
func DebugHandler(r *obs.Registry) http.Handler {
	stats := func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w)
	}
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/stats", stats)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		stats(w, req)
	})
	return mux
}
