package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"llbp/internal/follow"
	"llbp/internal/lease"
)

// job is the in-memory runtime of one submitted job: its request, its
// lifecycle state, the lease that fences which worker dispatch owns it,
// and its output log: persisted "cell" and "done" events replayed to
// every results reader, and progress snapshots as the ephemeral latest.
//
// Each dispatch to a worker claims the lease and runs under its context.
// Every mutation a worker makes carries the dispatch's epoch and is
// dropped once that epoch no longer holds the lease (the supervisor
// reclaimed it), so a wedged-then-revived worker can never double-emit
// an event or finalize a job it no longer owns.
//
//llbplint:leased -- job state is owned by the current dispatch; worker-reachable writes must be fenced on the claim epoch
type job struct {
	id     string
	req    JobRequest
	ctx    context.Context
	cancel context.CancelFunc
	// userCancelled distinguishes a client DELETE from a server
	// shutdown: both cancel ctx, but only the former is a terminal
	// cancellation (shutdown leaves the job resumable).
	userCancelled atomic.Bool
	// tenantReleased latches the one-time return of the job's tenant
	// quota slot on reaching a terminal state.
	tenantReleased atomic.Bool

	mu    sync.Mutex
	state State
	lease lease.Lease // the current dispatch's ownership
	// submittedAt, the admission time (resume time for restarted jobs),
	// feeds the claim-latency and job-duration histograms.
	submittedAt time.Time
	log         follow.Log[StreamEvent]
	doneCells   map[int]bool // cell indices already evented (dedup across re-dispatch)
	completed   int
	failed      int
	// lastProgressEmit throttles progress snapshots per cell key.
	lastProgressEmit map[string]uint64
}

func newJob(base context.Context, id string, req JobRequest) *job {
	ctx, cancel := context.WithCancel(base)
	return &job{
		id:               id,
		req:              req,
		ctx:              ctx,
		cancel:           cancel,
		state:            StateQueued,
		log:              follow.NewLog[StreamEvent](),
		doneCells:        make(map[int]bool),
		lastProgressEmit: make(map[string]uint64),
	}
}

// status snapshots the job as a wire JobStatus.
func (jb *job) status() JobStatus {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return JobStatus{
		Schema:    JobSchema,
		ID:        jb.id,
		State:     jb.state,
		Tenant:    jb.req.Tenant,
		Priority:  jb.req.Priority,
		Cells:     len(jb.req.Cells),
		Completed: jb.completed,
		Failed:    jb.failed,
	}
}

// claim takes the job's lease until now+ttl for one dispatch, returning
// its epoch and run context (the job context's child, cancelled when the
// lease is lost). It fails when the job is already terminal (cancelled
// while queued) or still owned by a live lease (a racing dispatch).
func (jb *job) claim(owner string, now time.Time, ttl time.Duration) (uint64, context.Context, bool) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.state.Terminal() {
		return 0, nil, false
	}
	epoch, runCtx, ok := jb.lease.Claim(jb.ctx, owner, now, ttl)
	if !ok {
		return 0, nil, false
	}
	jb.state = StateRunning
	return epoch, runCtx, true
}

// markSubmitted stamps the admission time (feeds claim latency and job
// duration).
//
//llbplint:fence -- admission stamp, not dispatch-owned state: written only while the job is unowned (pre-claim submit/resume, or supervisor re-queue after the lease was already revoked)
func (jb *job) markSubmitted(now time.Time) {
	jb.mu.Lock()
	jb.submittedAt = now
	jb.mu.Unlock()
}

// submitted returns the admission time.
func (jb *job) submitted() time.Time {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.submittedAt
}

// heartbeat extends the lease when epoch still owns the job, reporting
// whether the renewal applied.
func (jb *job) heartbeat(epoch uint64, now time.Time, ttl time.Duration) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.lease.Renew(epoch, now, ttl)
}

// revokeIfExpired revokes an expired lease of a running job, cancelling
// the dispatch's run context, and requeues the job. The fence closes the
// instant ownership is withdrawn: a wedged worker reviving before the
// re-dispatch is already superseded. It returns the revoked owner and
// true when a revocation happened.
func (jb *job) revokeIfExpired(now time.Time) (string, bool) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.state != StateRunning || !jb.lease.Expired(now) {
		return "", false
	}
	owner, _ := jb.lease.Revoke()
	jb.state = StateQueued
	return owner, true
}

// release drops the lease when epoch still owns it (the worker's clean
// handback on shutdown-interrupted jobs).
func (jb *job) release(epoch uint64) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	jb.lease.Release(epoch)
}

// view snapshots the job's state, lease and persisted event count for
// diagnostics.
func (jb *job) view() (State, lease.Lease, int) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.state, jb.lease, len(jb.log.Entries())
}

// hasCell reports whether cell index already has a persisted event — the
// dedup a re-dispatched job uses to skip work that already streamed.
func (jb *job) hasCell(index int) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.doneCells[index]
}

// addCell records a completed cell's result event when epoch still owns
// the job and the cell has not already been evented; it reports whether
// the event was appended.
func (jb *job) addCell(epoch uint64, index int, key string, value []byte) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if !jb.lease.Holds(epoch) || jb.state.Terminal() || jb.doneCells[index] {
		return false
	}
	jb.doneCells[index] = true
	jb.completed++
	jb.log.Append(StreamEvent{Type: "cell", Key: key, Index: index, Value: value})
	return true
}

// addCellError records a failed cell's event under the same fencing as
// addCell.
func (jb *job) addCellError(epoch uint64, index int, key string, err error) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if !jb.lease.Holds(epoch) || jb.state.Terminal() || jb.doneCells[index] {
		return false
	}
	jb.doneCells[index] = true
	jb.failed++
	jb.log.Append(StreamEvent{Type: "cell", Key: key, Index: index, Error: err.Error()})
	return true
}

// setProgress publishes an ephemeral progress snapshot, throttled to
// roughly one snapshot per progressStride branches per cell (plus the
// final tick). It is fenced on the epoch of the dispatch running the
// cell: a superseded dispatch's harness callback must not clobber the
// progress stream of the dispatch that now owns the job. Reports whether
// the snapshot was published.
func (jb *job) setProgress(epoch uint64, key string, index int, processed, total uint64) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if !jb.lease.Holds(epoch) {
		return false
	}
	last := jb.lastProgressEmit[key]
	if processed < total && processed-last < progressStride {
		return false
	}
	jb.lastProgressEmit[key] = processed
	jb.log.SetLatest(StreamEvent{Type: "progress", Key: key, Index: index, Processed: processed, Total: total})
	jb.log.Wake()
	return true
}

// progressStride is the minimum branch distance between streamed
// progress snapshots of one cell.
const progressStride = 65_536

// finish moves the job to a terminal state and appends the "done" event.
// Restart replay (New) and queued-job cancellation use it directly;
// workers go through finishEpoch so a superseded dispatch cannot
// finalize.
func (jb *job) finish(final State) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	jb.lease.Revoke()
	jb.finishLocked(final)
}

// finishEpoch is finish fenced on lease ownership; it reports whether
// the finalization applied.
func (jb *job) finishEpoch(epoch uint64, final State) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if !jb.lease.Holds(epoch) || jb.state.Terminal() {
		return false
	}
	jb.finishLocked(final)
	jb.lease.Release(epoch)
	return true
}

func (jb *job) finishLocked(final State) {
	jb.state = final
	jb.log.Finish(StreamEvent{Type: "done", State: final, Completed: jb.completed, Failed: jb.failed})
}

// terminal reports whether the job reached a final state.
func (jb *job) terminal() bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.state.Terminal()
}

// snapshot reads the job's output log from pos on under the job lock:
// one results follower iteration (follow.ReadFunc).
func (jb *job) snapshot(pos int) ([]StreamEvent, StreamEvent, uint64, bool, <-chan struct{}) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.log.Read(pos)
}
