// Package service is the simulation-as-a-service subsystem: a
// long-running daemon (cmd/llbpd) that accepts batches of simulation
// cells as jobs, schedules them on a bounded worker pool through the
// fault-tolerant harness runner, streams per-cell results and periodic
// progress snapshots as JSON lines, and survives kills by journaling both
// job state and completed cells for exactly-once resume.
//
// The wire contract (schema "llbp-job/1"):
//
//	POST   /v1/jobs              submit a JobRequest; 202 JobStatus,
//	                             200 when the identical job already exists,
//	                             429 + Retry-After when the queue is full
//	GET    /v1/jobs              list job statuses
//	GET    /v1/jobs/{id}         one job's status
//	DELETE /v1/jobs/{id}         cancel a job
//	GET    /v1/jobs/{id}/results stream JSON-lines StreamEvents
//	                             (?follow=1 waits for new events)
//	GET    /metrics              Prometheus text exposition of the registry
//	GET    /metrics.json         llbp-metrics/1 registry snapshot
//	GET    /debug/jobs           per-job lease/epoch diagnostics
//	GET    /healthz              readiness: ok / degraded (expired leases) /
//	                             draining (503)
//
// Job identity is deterministic: the ID is a hash of the canonical cell
// keys, so resubmitting the same sweep — from any client, before or
// after a daemon restart — converges on one job.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"llbp/internal/experiments"
)

// JobSchema identifies the request/response/stream wire format.
const JobSchema = "llbp-job/1"

// Job priorities. High-priority jobs are drawn from their admission lane
// before normal ones (best-effort: workers prefer, not preempt).
const (
	PriorityNormal = "normal"
	PriorityHigh   = "high"
)

// JobRequest is the submission payload: a batch of simulation cells run
// as one unit. Cells execute in order (subject to the worker's harness
// parallelism) and results stream per cell as they complete.
type JobRequest struct {
	// Schema must be JobSchema.
	Schema string `json:"schema"`
	// Tenant optionally names the submitting tenant for per-tenant
	// admission quotas ("" is the anonymous tenant). Job identity stays
	// content-addressed on the cells alone, so identical sweeps from two
	// tenants still converge on one job (owned by the first submitter).
	Tenant string `json:"tenant,omitempty"`
	// Priority selects the admission lane: "high" or "normal"/"" (the
	// default).
	Priority string `json:"priority,omitempty"`
	// Cells are the simulation cells, each canonically identified.
	Cells []experiments.CellSpec `json:"cells"`
}

// Validate checks the schema tag, priority and every cell, rejecting
// duplicates (they would violate the one-event-per-cell stream contract).
func (r *JobRequest) Validate() error {
	if r.Schema != JobSchema {
		return fmt.Errorf("service: job schema %q, want %q", r.Schema, JobSchema)
	}
	if r.Priority != "" && r.Priority != PriorityNormal && r.Priority != PriorityHigh {
		return fmt.Errorf("service: unknown priority %q (want %q or %q)", r.Priority, PriorityNormal, PriorityHigh)
	}
	if len(r.Cells) == 0 {
		return fmt.Errorf("service: job has no cells")
	}
	seen := make(map[string]bool, len(r.Cells))
	for _, c := range r.Cells {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("service: %w", err)
		}
		key := c.Key()
		if seen[key] {
			return fmt.Errorf("service: duplicate cell %s", key)
		}
		seen[key] = true
	}
	return nil
}

// JobID derives the deterministic job ID from the canonical cell specs:
// sha256 over the newline-joined cell keys, truncated. Identical sweeps
// submitted anywhere get identical IDs.
func JobID(cells []experiments.CellSpec) string {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = c.Key()
	}
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	return "job-" + hex.EncodeToString(sum[:8])
}

// State is a job's lifecycle state.
type State string

// Job lifecycle: Queued → Running → one of the terminal states
// (Done, Failed, Cancelled). A daemon restart moves non-terminal jobs
// back to Queued.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobStatus is the status document returned by submit/status/list.
type JobStatus struct {
	Schema string `json:"schema"`
	ID     string `json:"id"`
	State  State  `json:"state"`
	// Tenant and Priority echo the admitted request.
	Tenant   string `json:"tenant,omitempty"`
	Priority string `json:"priority,omitempty"`
	// Cells is the job's total cell count; Completed counts cells that
	// finished successfully, Failed those that errored.
	Cells     int `json:"cells"`
	Completed int `json:"completed"`
	Failed    int `json:"failed"`
}

// StreamEvent is one JSON line of a results stream.
//
// Types:
//   - "cell": a completed cell. Key/Index identify it; Value is the
//     cell's result exactly as the harness journals it (byte-identical
//     to a local cmd/experiments run of the same cell), or Error is set.
//   - "progress": a periodic interval snapshot of the cell currently
//     simulating (Processed of Total branches). Ephemeral: only streamed
//     live, never replayed.
//   - "done": the final line; State is the job's terminal state.
type StreamEvent struct {
	Type string `json:"type"`
	// Seq is the persisted event's 1-based position in the job's event
	// log ("cell" and "done" events only; ephemeral progress snapshots
	// carry no Seq). A results stream interrupted after seq N resumes
	// with ?from=N, replaying only events with Seq > N.
	Seq uint64 `json:"seq,omitempty"`
	// Key and Index identify the cell for "cell" and "progress" events.
	Key   string `json:"key,omitempty"`
	Index int    `json:"index,omitempty"`
	// Value is the marshaled experiments.RunOutput of a completed cell.
	Value json.RawMessage `json:"value,omitempty"`
	// Error is the cell's failure, when it failed.
	Error string `json:"error,omitempty"`
	// Processed/Total carry "progress" branch counts.
	Processed uint64 `json:"processed,omitempty"`
	Total     uint64 `json:"total,omitempty"`
	// State, Completed and Failed summarize the job on "done".
	State     State `json:"state,omitempty"`
	Completed int   `json:"completed,omitempty"`
	Failed    int   `json:"failed,omitempty"`
}

// WithSeq returns ev numbered as persisted event seq (follow.Entry).
func (ev StreamEvent) WithSeq(seq uint64) StreamEvent {
	ev.Seq = seq
	return ev
}
