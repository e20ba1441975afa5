package service

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// job is the in-memory runtime of one submitted job: its request, its
// lifecycle state, the lease that fences which worker dispatch owns it,
// the persisted event log replayed to results readers, and the pulse
// channel that wakes streaming subscribers. "cell" and "done" events are
// persisted (late readers get a full replay); progress snapshots are
// ephemeral — only the latest is kept and only live followers see them.
//
// Ownership is lease-based: each dispatch of the job to a worker bumps
// the epoch and derives a per-dispatch run context. Every mutation a
// worker makes carries its epoch and is dropped when the epoch has been
// superseded (the supervisor reclaimed an expired lease and re-dispatched
// the job), so a wedged-then-revived worker can never double-emit an
// event or finalize a job it no longer owns.
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
	epoch uint64 // dispatch generation; bumped by every claim
	lease lease  // current owner, zero when unowned
	// submittedAt and claimedAt feed the claim-latency and job-duration
	// histograms (submittedAt is the admission time — resume time for
	// restarted jobs; claimedAt is the latest dispatch's claim time).
	submittedAt time.Time
	claimedAt   time.Time
	events      []StreamEvent // persisted "cell" + "done" events; Seq = index+1
	doneCells   map[int]bool  // cell indices already evented (dedup across re-dispatch)
	completed   int
	failed      int
	progress    StreamEvent
	progSeq     uint64
	// lastProgressEmit throttles progress snapshots per cell key.
	lastProgressEmit map[string]uint64
	pulse            chan struct{} // closed and replaced on every publish
}

// lease records which worker owns the job's current dispatch and until
// when. A worker keeps the lease alive by heartbeating (on claim, on
// every cell completion, and on every streamed progress tick); the
// supervisor revokes leases whose deadline has passed.
type lease struct {
	owner   string
	expires time.Time
	// runCancel aborts this dispatch's run context — revoking the lease
	// cancels the (possibly wedged) worker's in-flight simulation.
	runCancel context.CancelFunc
}

func newJob(base context.Context, id string, req JobRequest) *job {
	ctx, cancel := context.WithCancel(base)
	return &job{
		id:               id,
		req:              req,
		ctx:              ctx,
		cancel:           cancel,
		state:            StateQueued,
		doneCells:        make(map[int]bool),
		lastProgressEmit: make(map[string]uint64),
		pulse:            make(chan struct{}),
	}
}

// wake closes the current pulse channel so every waiting subscriber
// re-reads the job. Callers must hold mu.
func (jb *job) wake() {
	close(jb.pulse)
	jb.pulse = make(chan struct{})
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

// claim takes ownership of the job for one dispatch: it bumps the epoch,
// installs a lease expiring at now+ttl, and returns the new epoch plus a
// run context derived from the job context. It fails when the job is
// already terminal (cancelled while queued) or still owned by a live
// lease (a racing dispatch).
func (jb *job) claim(owner string, now time.Time, ttl time.Duration) (uint64, context.Context, bool) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.state.Terminal() {
		return 0, nil, false
	}
	if jb.lease.owner != "" && now.Before(jb.lease.expires) {
		return 0, nil, false
	}
	if jb.lease.runCancel != nil {
		jb.lease.runCancel() // sever any straggler from a stale dispatch
	}
	jb.epoch++
	runCtx, runCancel := context.WithCancel(jb.ctx)
	jb.lease = lease{owner: owner, expires: now.Add(ttl), runCancel: runCancel}
	jb.state = StateRunning
	jb.claimedAt = now
	jb.wake()
	return jb.epoch, runCtx, true
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

// times returns the admission and latest-claim timestamps.
func (jb *job) times() (submitted, claimed time.Time) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.submittedAt, jb.claimedAt
}

// eventsLen returns the persisted event count (the resume-gap metric's
// input).
func (jb *job) eventsLen() int {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return len(jb.events)
}

// heartbeat extends the lease when epoch still owns the job, reporting
// whether the renewal applied.
func (jb *job) heartbeat(epoch uint64, now time.Time, ttl time.Duration) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.epoch != epoch || jb.lease.owner == "" {
		return false
	}
	jb.lease.expires = now.Add(ttl)
	return true
}

// revokeIfExpired checks the lease against now and, when expired on a
// non-terminal running job, cancels the dispatch's run context, clears
// the lease, and moves the job back to queued for re-dispatch. The epoch
// is bumped immediately — not deferred to the next claim — so the fence
// closes the instant ownership is withdrawn: a wedged worker reviving
// between revocation and re-dispatch is already superseded. It returns
// the revoked owner and true when a revocation happened.
func (jb *job) revokeIfExpired(now time.Time) (string, bool) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.state != StateRunning || jb.lease.owner == "" || now.Before(jb.lease.expires) {
		return "", false
	}
	owner := jb.lease.owner
	if jb.lease.runCancel != nil {
		jb.lease.runCancel()
	}
	jb.lease = lease{}
	jb.epoch++
	jb.state = StateQueued
	jb.wake()
	return owner, true
}

// release drops the lease when epoch still owns it (the worker's clean
// handback on shutdown-interrupted jobs).
func (jb *job) release(epoch uint64) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.epoch == epoch && jb.lease.owner != "" {
		if jb.lease.runCancel != nil {
			jb.lease.runCancel()
		}
		jb.lease = lease{}
	}
}

// leaseInfo snapshots the lease for diagnostics.
func (jb *job) leaseInfo() (owner string, epoch uint64, expires time.Time) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.lease.owner, jb.epoch, jb.lease.expires
}

// setState transitions the lifecycle state (no event is emitted; use
// finish for terminal transitions).
func (jb *job) setState(s State) {
	jb.mu.Lock()
	jb.state = s
	jb.wake()
	jb.mu.Unlock()
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
	if jb.epoch != epoch || jb.state.Terminal() || jb.doneCells[index] {
		return false
	}
	jb.doneCells[index] = true
	jb.completed++
	jb.events = append(jb.events, StreamEvent{
		Type: "cell", Seq: uint64(len(jb.events) + 1), Key: key, Index: index, Value: value,
	})
	jb.wake()
	return true
}

// addCellError records a failed cell's event under the same fencing as
// addCell.
func (jb *job) addCellError(epoch uint64, index int, key string, err error) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.epoch != epoch || jb.state.Terminal() || jb.doneCells[index] {
		return false
	}
	jb.doneCells[index] = true
	jb.failed++
	jb.events = append(jb.events, StreamEvent{
		Type: "cell", Seq: uint64(len(jb.events) + 1), Key: key, Index: index, Error: err.Error(),
	})
	jb.wake()
	return true
}

// setProgress publishes an ephemeral progress snapshot, throttled to
// roughly one snapshot per progressStride branches per cell (plus the
// final tick). The write is fenced on the dispatch epoch: a superseded
// dispatch's harness callback (its lease was reclaimed mid-simulation)
// must not clobber the progress stream of the dispatch that now owns
// the job. Reports whether the snapshot was published.
func (jb *job) setProgress(epoch uint64, key string, index int, processed, total uint64) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.epoch != epoch {
		return false
	}
	last := jb.lastProgressEmit[key]
	if processed < total && processed-last < progressStride {
		return false
	}
	jb.lastProgressEmit[key] = processed
	jb.progress = StreamEvent{Type: "progress", Key: key, Index: index, Processed: processed, Total: total}
	jb.progSeq++
	jb.wake()
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
	jb.finishLocked(final)
}

// finishEpoch is finish fenced on lease ownership; it reports whether
// the finalization applied.
func (jb *job) finishEpoch(epoch uint64, final State) bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if jb.epoch != epoch || jb.state.Terminal() {
		return false
	}
	jb.finishLocked(final)
	return true
}

func (jb *job) finishLocked(final State) {
	jb.state = final
	if jb.lease.runCancel != nil {
		jb.lease.runCancel()
	}
	jb.lease = lease{}
	jb.events = append(jb.events, StreamEvent{
		Type:      "done",
		Seq:       uint64(len(jb.events) + 1),
		State:     final,
		Completed: jb.completed,
		Failed:    jb.failed,
	})
	jb.wake()
}

// terminal reports whether the job reached a final state.
func (jb *job) terminal() bool {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.state.Terminal()
}

// snapshot returns the persisted events from pos on, the latest progress
// snapshot with its sequence number, the terminal flag, and the pulse
// channel that signals the next change — everything a streaming reader
// needs for one iteration, under one lock acquisition.
func (jb *job) snapshot(pos int) (evs []StreamEvent, prog StreamEvent, progSeq uint64, terminal bool, pulse chan struct{}) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	if pos < len(jb.events) {
		evs = append(evs, jb.events[pos:]...)
	}
	return evs, jb.progress, jb.progSeq, jb.state.Terminal(), jb.pulse
}
