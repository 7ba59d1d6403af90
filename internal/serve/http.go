package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// NewHandler mounts the planning-as-a-service API on a mux:
//
//	POST   /v1/jobs              submit a Request  → 202 {id, state}; 400 invalid,
//	                             413 over maxRequestBytes, 503 draining, 500 not journaled
//	GET    /v1/jobs              list job statuses
//	GET    /v1/jobs/{id}         one job's status
//	GET    /v1/jobs/{id}/plan    the audited final plan document
//	GET    /v1/jobs/{id}/checkpoint  latest sealed checkpoint envelope
//	GET    /v1/jobs/{id}/stream  NDJSON status stream until terminal
//	POST   /v1/jobs/{id}/cancel  request cancellation
//	DELETE /v1/jobs/{id}         request cancellation
//	GET    /healthz              {"status": "ok" | "draining"}
func NewHandler(m *Manager) http.Handler {
	s := &server{m: m}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("GET /v1/jobs", s.list)
	mux.HandleFunc("GET /v1/jobs/{id}", s.status)
	mux.HandleFunc("GET /v1/jobs/{id}/plan", s.plan)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.checkpoint)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.stream)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.cancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.cancel)
	mux.HandleFunc("GET /healthz", s.health)
	return mux
}

// maxRequestBytes caps a submission's body at four times the paper-sized
// suite E NPD (`topogen -suite E -scale 1`, 1 668 bytes indented; an NPD
// is parametric, so every suite document is 0.6–1.7 KB). That leaves room
// for the request's own fields and for larger regions, and refuses
// anything else before it is buffered.
const maxRequestBytes = 4 * 1668

// readHeaderTimeout bounds how long a client may take to send a request's
// headers, so connections that trickle them cannot pile up.
const readHeaderTimeout = 10 * time.Second

// NewHTTPServer returns the http.Server klotskid serves h with: one whose
// clients must send their headers within readHeaderTimeout.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

type server struct {
	m *Manager
}

// apiError is the JSON error body every failing endpoint returns.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInvalidRequest):
		code = http.StatusBadRequest
	case errors.Is(err, ErrUnknownJob):
		code = http.StatusNotFound
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrTerminal), errors.Is(err, ErrNoPlan):
		code = http.StatusConflict
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *server) submit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, apiError{Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decoding request body: " + err.Error()})
		return
	}
	j, err := s.m.Submit(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *server) list(w http.ResponseWriter, r *http.Request) {
	jobs := s.m.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.m.Job(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return nil, false
	}
	return j, true
}

func (s *server) status(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *server) plan(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	doc, err := j.Plan()
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

func (s *server) checkpoint(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.job(w, r); !ok {
		return
	}
	data, err := s.m.CheckpointEnvelope(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no valid checkpoint: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// stream writes newline-delimited Status snapshots — the current one
// immediately, then one per transition or checkpoint — until the job
// reaches a terminal state or the client goes away. A dropped or corrupt
// client connection only ends this response; the job plans on.
func (s *server) stream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	ch, cur := j.Subscribe()
	defer j.Unsubscribe(ch)
	if err := enc.Encode(cur); err != nil {
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
	if cur.State.Terminal() {
		return
	}
	for {
		select {
		case st, chOpen := <-ch:
			if !chOpen {
				// Terminal transition closed the channel; emit the final
				// snapshot so every stream ends with the terminal state.
				enc.Encode(j.Status())
				if flusher != nil {
					flusher.Flush()
				}
				return
			}
			if err := enc.Encode(st); err != nil {
				return // client connection gone
			}
			if flusher != nil {
				flusher.Flush()
			}
			if st.State.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *server) cancel(w http.ResponseWriter, r *http.Request) {
	if err := s.m.Cancel(r.PathValue("id")); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": r.PathValue("id"), "cancel": "requested"})
}

func (s *server) health(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.m.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": status})
}
