package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"fftgrad/internal/buildinfo"
	"fftgrad/internal/telemetry"
)

// Routes mounts the job API onto mux. The caller owns the mux, so the
// service composes with the trainer's existing telemetry endpoints
// (/metrics for the process registry, /trace, pprof) on one listener.
//
//	POST   /jobs               submit (202; 400 bad spec; 429 queue full; 503 draining)
//	GET    /jobs               list all jobs
//	GET    /jobs/{id}          one job's state and progress
//	POST   /jobs/{id}/cancel   cancel (idempotent); DELETE /jobs/{id} is an alias
//	GET    /jobs/{id}/events   SSE progress stream (?since=N resumes the feed)
//	GET    /jobs/{id}/metrics  the job's registry, Prometheus text format
//	GET    /jobs/{id}/metrics.json  same, flat JSON
//	GET    /jobs/{id}/trace    the job's timeline, Chrome trace_event JSON
//	GET    /jobs/{id}/profile  the job's iteration profile: critical paths, blame ledger, anomalies
//	GET    /jobs/{id}/profile/trace  clock-aligned merged multi-process timeline (Perfetto)
//	GET    /jobs/metrics       every job's registry merged, job="<id>" labels
//	GET    /healthz            liveness (always 200 while the process serves)
//	GET    /readyz             readiness (503 once a drain has begun)
//	GET    /debug/status       compact operator status: build, slots, jobs
func (s *Server) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/metrics", s.handleMergedMetrics)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/metrics", s.jobView(promText, func(j *job, w io.Writer) error {
		return j.reg.WritePrometheus(w)
	}))
	mux.HandleFunc("GET /jobs/{id}/metrics.json", s.jobView(jsonType, func(j *job, w io.Writer) error {
		return j.reg.WriteJSON(w)
	}))
	mux.HandleFunc("GET /jobs/{id}/trace", s.jobView(jsonType, func(j *job, w io.Writer) error {
		return j.tracer.WriteJSON(w)
	}))
	mux.HandleFunc("GET /jobs/{id}/profile", s.jobView(jsonType, (*job).writeProfile))
	mux.HandleFunc("GET /jobs/{id}/profile/trace", s.jobView(jsonType, func(j *job, w io.Writer) error {
		return j.tracer.WriteMergedJSON(w, j.prof.Offsets())
	}))
	telemetry.Probes(mux, s.Ready)
	mux.HandleFunc("GET /debug/status", s.handleDebugStatus)
}

// Handler returns a standalone mux with just the job API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Routes(mux)
	return mux
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", jsonType)
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	default:
		// Spec validation problems are the caller's fault.
		code = http.StatusBadRequest
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

// decodeSpec reads one job description. A key the Spec does not have is an
// error naming it: a typo, or a field a later version removed, would
// otherwise silently run a different job.
func decodeSpec(r io.Reader) (Spec, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad JSON: " + err.Error()})
		return
	}
	info, err := s.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+info.ID)
	writeJSON(w, http.StatusAccepted, info)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleEvents streams a job's progress feed as server-sent events:
// one `data:` line per Event, starting after ?since= (default 0, i.e.
// the full history), ending when the job reaches a terminal state or
// the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeErr(w, ErrNotFound)
		return
	}
	seq := 0
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "bad since parameter"})
			return
		}
		seq = n
	}
	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	for {
		events, more := j.wait(seq)
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
				return
			}
			seq = ev.Seq + 1
		}
		if len(events) > 0 && fl != nil {
			fl.Flush()
		}
		if more == nil {
			return // terminal state, feed fully delivered
		}
		select {
		case <-more:
		case <-r.Context().Done():
			return
		}
	}
}

// Content types of the documents the API serves.
const (
	promText = "text/plain; version=0.0.4; charset=utf-8"
	jsonType = "application/json"
)

// jobView serves one per-job document: the {id} lookup and its 404,
// then the content type and write's output for the job found.
func (s *Server) jobView(contentType string, write func(*job, io.Writer) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		j, ok := s.lookup(r.PathValue("id"))
		if !ok {
			writeErr(w, ErrNotFound)
			return
		}
		w.Header().Set("Content-Type", contentType)
		_ = write(j, w)
	}
}

// writeProfile writes the job's iteration-profile document: build
// identity, clock offsets, the critical-path decomposition, the blame
// ledger with rolling percentiles, and any anomaly captures. A terminal
// job gets a final profile (the ledger folds its ragged tail).
func (j *job) writeProfile(w io.Writer) error {
	j.mu.Lock()
	final := j.state.terminal()
	j.mu.Unlock()
	return j.prof.WriteProfileJSON(w, final)
}

// debugStatus is the compact operator view served at /debug/status.
type debugStatus struct {
	Version string `json:"version"`
	Go      string `json:"go"`
	Ready   bool   `json:"ready"`

	WorkerSlots int `json:"worker_slots"`
	FreeSlots   int `json:"free_slots"`
	Queued      int `json:"queued"`

	Jobs map[State]int `json:"jobs"`
}

func (s *Server) handleDebugStatus(w http.ResponseWriter, _ *http.Request) {
	st := debugStatus{
		Version:     buildinfo.Version(),
		Go:          buildinfo.GoVersion(),
		WorkerSlots: s.cfg.WorkerSlots,
		Jobs:        map[State]int{},
	}
	s.mu.Lock()
	st.Ready = !s.draining
	st.FreeSlots = s.free
	st.Queued = len(s.queue)
	order := append([]*job(nil), s.order...)
	s.mu.Unlock()
	for _, j := range order {
		j.mu.Lock()
		st.Jobs[j.state]++
		j.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, st)
}

// handleMergedMetrics renders every job's registry on one page, each
// sample relabeled with job="<id>" — the single-scrape multi-tenant
// view.
func (s *Server) handleMergedMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	order := append([]*job(nil), s.order...)
	s.mu.Unlock()
	w.Header().Set("Content-Type", promText)
	for _, j := range order {
		if err := j.reg.WritePrometheusLabeled(w, fmt.Sprintf("job=%q", j.id)); err != nil {
			return
		}
		_, _ = io.WriteString(w, "\n")
	}
}
