package service

// Observability surface of the server: structured lifecycle events
// (llbp-events/1 via Options.Events), job/cell spans on the tracer's
// PidService track, and the read-only Health/DebugJobs views behind
// /healthz and /debug/jobs. Everything here is nil-safe against a
// disabled registry, event log and tracer, and none of it runs on the
// per-branch simulation path — the service hot path (CellProgress)
// stays instrument-free.

import (
	"time"

	"llbp/internal/telemetry"
)

// event emits one lifecycle record. All fields beyond typ/id/tenant are
// optional; zero values are omitted from the NDJSON line.
func (s *Server) event(typ, id, tenant, worker string, epoch uint64, detail string) {
	s.opt.Events.Emit(telemetry.Event{
		Type: typ, Job: id, Tenant: tenant, Worker: worker, Epoch: epoch, Detail: detail,
	})
}

// durMS converts a duration to the milliseconds the histograms and
// events carry (clamped at zero: fake clocks may run "backwards" across
// a resume).
func durMS(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond)
}

// span emits a completed lifecycle span on the service track. t0 is the
// tracer timestamp captured at the start (Tracer.Since); tid is the
// worker index + 1.
func (s *Server) span(tid int, name string, t0 float64, args map[string]any) {
	if s.opt.Tracer == nil {
		return
	}
	s.opt.Tracer.Span(telemetry.PidService, tid, name, "service", t0, s.opt.Tracer.Since()-t0, args)
}

// HealthStatus is the /healthz response: readiness plus the worker
// liveness the status field is derived from. A running job whose lease
// has expired means its worker is wedged or dead and the supervisor has
// not yet recovered it — the daemon reports "degraded" until the reap.
type HealthStatus struct {
	// Status is "ok", "degraded" (expired leases outstanding) or
	// "draining".
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	Jobs     int    `json:"jobs"`
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	// Workers is the configured worker-pool size.
	Workers int `json:"workers"`
	// ExpiredLeases counts running jobs whose lease deadline has passed
	// (worker liveness signal: 0 means every running job has a live
	// owner).
	ExpiredLeases int `json:"expired_leases"`
}

// Health reports the server's readiness, derived from drain state and
// lease liveness.
func (s *Server) Health() HealthStatus {
	now := s.now()
	h := HealthStatus{Status: "ok", Draining: s.Draining(), Workers: s.opt.Workers}
	jobs := s.allJobs()
	h.Jobs = len(jobs)
	for _, jb := range jobs {
		state, l, _ := jb.view()
		switch state {
		case StateQueued:
			h.Queued++
		case StateRunning:
			h.Running++
			if l.Expired(now) {
				h.ExpiredLeases++
			}
		}
	}
	switch {
	case h.Draining:
		h.Status = "draining"
	case h.ExpiredLeases > 0:
		h.Status = "degraded"
	}
	return h
}

// DebugJob is one /debug/jobs entry: the wire status plus the lease
// diagnostics operators need to see which worker owns what and for how
// much longer.
type DebugJob struct {
	JobStatus
	// Worker is the lease owner ("" when unowned).
	Worker string `json:"worker,omitempty"`
	// Epoch is the job's current dispatch generation.
	Epoch uint64 `json:"epoch"`
	// LeaseExpiresUnixMS is the lease deadline (0 when unowned).
	LeaseExpiresUnixMS int64 `json:"lease_expires_unix_ms,omitempty"`
	// LeaseRemainingMS is the time until expiry (negative once expired).
	LeaseRemainingMS int64 `json:"lease_remaining_ms,omitempty"`
	// LeaseExpired reports an owned lease past its deadline.
	LeaseExpired bool `json:"lease_expired,omitempty"`
	// Events is the persisted stream-event count.
	Events int `json:"events"`
}

// DebugJobs snapshots every job's runtime diagnostics, sorted by ID.
func (s *Server) DebugJobs() []DebugJob {
	now := s.now()
	jobs := s.allJobs()
	out := make([]DebugJob, 0, len(jobs))
	for _, jb := range jobs {
		_, l, events := jb.view()
		d := DebugJob{JobStatus: jb.status(), Worker: l.Owner(), Epoch: l.Epoch(), Events: events}
		if l.Held() {
			d.LeaseExpiresUnixMS = l.Deadline().UnixMilli()
			d.LeaseRemainingMS = l.Deadline().Sub(now).Milliseconds()
			d.LeaseExpired = l.Expired(now)
		}
		out = append(out, d)
	}
	return out
}
