package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"llbp/internal/follow"
	"llbp/internal/telemetry"
)

// Handler returns the service's HTTP API (see the package comment for
// the endpoint table). It is safe to install on any mux or server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/results", s.handleResults)
	mux.HandleFunc("GET /metrics", s.handleMetricsProm)
	mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		follow.WriteError(w, http.StatusBadRequest, "decoding job request: %v", err)
		return
	}
	st, created, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQuota):
		w.Header().Set("Retry-After", strconv.Itoa(s.opt.RetryAfterSeconds))
		follow.WriteError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrDraining):
		follow.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		follow.WriteError(w, http.StatusBadRequest, "%v", err)
	case created:
		follow.WriteJSON(w, http.StatusAccepted, st)
	default:
		follow.WriteJSON(w, http.StatusOK, st)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	follow.WriteJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Job(id)
	if !ok {
		follow.WriteError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	follow.WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.Cancel(id)
	if !ok {
		follow.WriteError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	follow.WriteJSON(w, http.StatusOK, st)
}

// handleResults streams the job's events as JSON lines (follow.Follower):
// persisted "cell" and "done" events, interleaved with live "progress"
// snapshots under ?follow=1. A client too slow for StreamWriteTimeout is
// dropped; its job keeps running and it resumes with ?from=N.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	jb, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		follow.WriteError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	s.results.Serve(w, r, "job "+id, jb.snapshot)
}

// handleMetricsProm serves the telemetry registry in Prometheus text
// exposition format — the scrape surface. The JSON snapshot lives at
// /metrics.json.
func (s *Server) handleMetricsProm(w http.ResponseWriter, r *http.Request) {
	if s.opt.Registry == nil {
		follow.WriteError(w, http.StatusNotFound, "telemetry disabled (no registry configured)")
		return
	}
	w.Header().Set("Content-Type", telemetry.PromContentType)
	w.WriteHeader(http.StatusOK)
	_ = telemetry.WritePrometheus(w, s.opt.Registry.Snapshot())
}

// handleMetricsJSON serves the telemetry registry as an llbp-metrics/1
// document (one run named after the daemon), the same format
// cmd/telemetrycheck validates in CI.
func (s *Server) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	if s.opt.Registry == nil {
		follow.WriteError(w, http.StatusNotFound, "telemetry disabled (no registry configured)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = telemetry.WriteMetricsFile(w, []telemetry.RunSnapshot{
		{Predictor: "llbpd", Metrics: s.opt.Registry.Snapshot()},
	})
}

// handleDebugJobs dumps every job's runtime diagnostics (lease owner,
// epoch, expiry) — the operator's view behind llbpctl top.
func (s *Server) handleDebugJobs(w http.ResponseWriter, r *http.Request) {
	follow.WriteJSON(w, http.StatusOK, s.DebugJobs())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	code := http.StatusOK
	if h.Draining {
		code = http.StatusServiceUnavailable
	}
	follow.WriteJSON(w, code, h)
}
