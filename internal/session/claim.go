package session

import (
	"context"
	"fmt"

	"llbp/internal/chaos"
	"llbp/internal/telemetry"
)

// ErrFenced is returned to a claim whose epoch has been superseded: the
// session was re-claimed (its lease expired or it drained) and the old
// connection must stop — it can never apply a batch or emit a frame for
// the session again.
var ErrFenced = fmt.Errorf("session: claim fenced (superseded by a newer epoch)")

// Claim is one push connection's ownership of a session: the epoch it
// claimed at plus the revoke channel closed when a newer claim
// supersedes it. All batch application goes through the claim so every
// write is epoch-fenced.
type Claim struct {
	m     *Manager
	s     *Session
	owner string
	epoch uint64
	// Revoke is closed when this claim loses the session. A connection
	// parked on a stalled client can select on it to exit early.
	Revoke <-chan struct{}
}

// Claim takes ownership of a session for a push connection. A live,
// unexpired claim by another owner is a conflict; an expired or drained
// lease is taken over, bumping the epoch and closing the previous
// claim's revoke channel — the drain-migration handshake.
func (m *Manager) Claim(ctx context.Context, id, owner string) (*Claim, error) {
	s, err := m.lookup(ctx, id)
	if err != nil {
		return nil, err
	}
	now := m.opt.Now()
	s.mu.Lock()
	if s.state == StateClosed {
		s.mu.Unlock()
		return nil, fmt.Errorf("session: %s is closed", id)
	}
	if s.lease.revoke != nil {
		if s.state != StateDraining && now.Before(s.lease.expires) {
			prev := s.lease.owner
			s.mu.Unlock()
			return nil, fmt.Errorf("session: %s is claimed by %s (lease live)", id, prev)
		}
		// Expired or draining: fence the previous claim.
		close(s.lease.revoke)
		detail := "lease expired"
		if s.state == StateDraining {
			detail = "drain"
		}
		m.tel.fenced.Inc()
		m.event(telemetry.Event{Type: telemetry.EventSessionFenced, Job: id,
			Worker: s.lease.owner, Epoch: s.epoch, Detail: detail})
	}
	if s.state == StateDraining {
		// The new claim resumes from the last checkpoint's fork, not the
		// drained claim's live instance — migration rides the same
		// copy-on-write machinery as checkpointing, and determinism makes
		// the continuation byte-identical either way.
		s.migrateLocked()
		s.state = StateOpen
	}
	s.epoch++
	s.lease = sessLease{owner: owner, expires: now.Add(m.opt.LeaseTTL), revoke: make(chan struct{})}
	c := &Claim{m: m, s: s, owner: owner, epoch: s.epoch, Revoke: s.lease.revoke}
	epoch := s.epoch
	s.mu.Unlock()

	m.event(telemetry.Event{Type: telemetry.EventSessionClaimed, Job: id,
		Worker: owner, Epoch: epoch})
	m.logf("session %s claimed by %s (epoch %d)", id, owner, epoch)
	return c, nil
}

// fencedLocked reports whether the claim has been superseded. Callers
// hold c.s.mu.
func (c *Claim) fencedLocked() bool {
	return c.s.epoch != c.epoch || c.s.lease.owner != c.owner
}

// heartbeatLocked renews the lease. Callers hold c.s.mu and have checked
// the fence.
func (c *Claim) heartbeatLocked() {
	c.s.lease.expires = c.m.opt.Now().Add(c.m.opt.LeaseTTL)
}

// Apply runs one branch-batch frame through the session. The batch is
// journaled before its predictions frame is emitted — the exactly-once
// edge: a batch whose predictions were streamed is always replayable,
// and a batch lost to a kill mid-journal was never answered. Re-sent
// sequence numbers (client resume overlap) are acknowledged idempotently
// without re-applying; a sequence gap is a protocol error.
func (c *Claim) Apply(f Frame) (OutFrame, error) {
	if err := ValidateFrame(f); err != nil {
		return OutFrame{}, err
	}
	if f.Type != FrameBranchBatch {
		return OutFrame{}, fmt.Errorf("session: Apply wants a branch-batch frame, got %q", f.Type)
	}
	s := c.s
	s.mu.Lock()
	if c.fencedLocked() {
		s.mu.Unlock()
		return OutFrame{}, ErrFenced
	}
	if s.state == StateClosed {
		s.mu.Unlock()
		return OutFrame{}, fmt.Errorf("session: %s is closed", s.id)
	}
	if f.Seq <= s.lastSeq {
		// Already applied (client replay after reconnect): return the
		// existing predictions frame for that batch if it is still in the
		// log, else a bare ack.
		c.heartbeatLocked()
		for i := len(s.out) - 1; i >= 0; i-- {
			if s.out[i].Type == FramePredictions && s.out[i].Batch == f.Seq {
				of := s.out[i]
				s.mu.Unlock()
				return of, nil
			}
		}
		of := OutFrame{Type: FramePredictions, Batch: f.Seq, Branches: s.branches}
		s.mu.Unlock()
		return of, nil
	}
	if f.Seq != s.lastSeq+1 {
		s.mu.Unlock()
		return OutFrame{}, fmt.Errorf("session: batch seq %d skips ahead of cursor %d", f.Seq, s.lastSeq)
	}
	// Journal under the session lock: the fence check and the journal
	// write must be atomic with respect to claim changes, or a claim
	// fenced mid-Apply could land a journal entry that replay would
	// prefer over the new owner's batch for the same sequence number.
	// The fsync this serializes is per-session — concurrent sessions
	// journal through the journal's own lock as before.
	jn := s.jn
	s.jn++
	if c.m.journal != nil {
		err := c.m.journal.Record(journalKeyEv(s.id, jn),
			journalEntry{Kind: "batch", Seq: f.Seq, Branches: f.Branches})
		if err != nil {
			s.mu.Unlock()
			return OutFrame{}, fmt.Errorf("session: journaling batch %d: %w", f.Seq, err)
		}
	}
	c.heartbeatLocked()
	of := s.applyLocked(f)
	s.tail = append(s.tail, f)
	of = s.appendLocked(of)
	var ckptFrame *OutFrame
	if s.branches >= s.nextCkpt {
		ck := s.takeCheckpointLocked()
		ckptFrame = &ck
	}
	s.updateTelemetryLocked()
	s.mu.Unlock()

	c.m.tel.batches.Inc()
	c.m.tel.branches.Add(uint64(of.N))
	c.m.tel.mispredicts.Add(of.Mispredicts)
	if ckptFrame != nil {
		c.m.tel.checkpoints.Inc()
		c.m.event(telemetry.Event{Type: telemetry.EventSessionCheckpoint, Job: s.id,
			Worker: c.owner, Epoch: c.epoch, Detail: fmt.Sprintf("auto at %d branches", ckptFrame.Branches)})
	}
	return of, nil
}

// Checkpoint takes an explicit checkpoint, journaled so replay
// regenerates the same checkpoint frame at the same position.
func (c *Claim) Checkpoint() (OutFrame, error) {
	s := c.s
	s.mu.Lock()
	if c.fencedLocked() {
		s.mu.Unlock()
		return OutFrame{}, ErrFenced
	}
	jn := s.jn
	s.jn++
	if c.m.journal != nil {
		if err := c.m.journal.Record(journalKeyEv(s.id, jn), journalEntry{Kind: "checkpoint"}); err != nil {
			s.mu.Unlock()
			return OutFrame{}, fmt.Errorf("session: journaling checkpoint: %w", err)
		}
	}
	c.heartbeatLocked()
	of := s.takeCheckpointLocked()
	s.mu.Unlock()
	c.m.tel.checkpoints.Inc()
	c.m.event(telemetry.Event{Type: telemetry.EventSessionCheckpoint, Job: s.id,
		Worker: c.owner, Epoch: c.epoch, Detail: "explicit"})
	return of, nil
}

// Drain hands the session off: a checkpoint is taken (the migration
// snapshot — journaled, so a restart replays the same checkpoint frame
// at the same position), the session is marked draining so the next
// Claim takes over immediately, and this claim is done. The draining
// claim keeps its revoke channel until the successor fences it.
func (c *Claim) Drain() (OutFrame, error) {
	of, err := c.Checkpoint()
	if err != nil {
		return OutFrame{}, err
	}
	s := c.s
	s.mu.Lock()
	if c.fencedLocked() {
		s.mu.Unlock()
		return OutFrame{}, ErrFenced
	}
	s.state = StateDraining
	s.mu.Unlock()
	c.m.event(telemetry.Event{Type: telemetry.EventSessionDrained, Job: s.id,
		Worker: c.owner, Epoch: c.epoch})
	c.m.logf("session %s draining (epoch %d handed off by %s)", s.id, c.epoch, c.owner)
	return of, nil
}

// Release ends the claim voluntarily (clean connection close). The
// session stays open and immediately claimable. Fenced claims release as
// a no-op.
func (c *Claim) Release() {
	s := c.s
	s.mu.Lock()
	if c.fencedLocked() {
		s.mu.Unlock()
		return
	}
	if s.lease.revoke != nil {
		close(s.lease.revoke)
	}
	s.lease = sessLease{}
	s.mu.Unlock()
}

// Tid is the session's tracer thread id — the lane its epoch spans
// render on. The push handler times each epoch locally (claim to
// connection end) so no wall-clock value is ever stored on the session.
func (c *Claim) Tid() int { return c.s.tid }

// Epoch is the claim's fencing epoch.
func (c *Claim) Epoch() uint64 { return c.epoch }

// Stall parks the claim until revoked or ctx ends — the worker.stall
// chaos site: a wedged connection holds its lease without progress until
// the TTL expires and a successor fences it.
func (c *Claim) Stall(ctx context.Context) {
	select {
	case <-c.Revoke:
	case <-ctx.Done():
	}
}

// maybeStall consults the chaos injector at the batch-apply site.
func (c *Claim) maybeStall(ctx context.Context) bool {
	if c.m.opt.Chaos.Fire(chaos.WorkerStall) {
		c.m.logf("chaos: session %s claim (epoch %d) stalling", c.s.id, c.epoch)
		c.Stall(ctx)
		return true
	}
	return false
}

// updateTelemetryLocked refreshes the ephemeral telemetry snapshot.
// Callers hold s.mu.
func (s *Session) updateTelemetryLocked() {
	s.telSeq++
	acc := 0.0
	if s.cond > 0 {
		acc = 1 - float64(s.mispredicts)/float64(s.cond)
	}
	mpki := 0.0
	if s.branches > 0 {
		// Branch-normalized proxy: real MPKI needs instruction counts,
		// which streamed records carry only optionally.
		mpki = float64(s.mispredicts) * 1000 / float64(s.branches)
	}
	s.telemetry = OutFrame{
		Type:        FrameTelemetry,
		Branches:    s.branches,
		Mispredicts: s.mispredicts,
		Accuracy:    acc,
		MPKIProxy:   mpki,
	}
}

// ExpireLeases revokes leases whose TTL has passed — the supervisor
// sweep, called from llbpd's housekeeping loop (and tests). Returns the
// number revoked.
//
//llbplint:fence -- the sweep IS the fencing authority: it closes revoke under s.mu before clearing the lease, so the evicted claim's next fencedLocked check fails before it can write
func (m *Manager) ExpireLeases() int {
	m.mu.Lock()
	sessions := make([]*Session, 0, len(m.sessions))
	for _, id := range m.order {
		sessions = append(sessions, m.sessions[id])
	}
	m.mu.Unlock()
	now := m.opt.Now()
	n := 0
	for _, s := range sessions {
		s.mu.Lock()
		// A lease is expired from its deadline on, as Claim judges it.
		if s.lease.revoke != nil && s.state != StateDraining && !now.Before(s.lease.expires) {
			close(s.lease.revoke)
			owner, epoch := s.lease.owner, s.epoch
			s.lease = sessLease{}
			s.mu.Unlock()
			n++
			m.tel.fenced.Inc()
			m.event(telemetry.Event{Type: telemetry.EventSessionFenced, Job: s.id,
				Worker: owner, Epoch: epoch, Detail: "lease expired (sweep)"})
			m.logf("session %s lease expired (owner %s, epoch %d)", s.id, owner, epoch)
			continue
		}
		s.mu.Unlock()
	}
	return n
}
