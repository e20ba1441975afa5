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
// claimed the session's lease at plus the revoke channel closed when the
// claim ends. All batch application goes through the claim so every
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
// lease is taken over, ending the previous claim and closing its revoke
// channel — the drain-migration handshake.
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
	draining := s.state == StateDraining
	prev, prevEpoch, takeover := s.lease.Owner(), s.lease.Epoch(), s.lease.Held()
	if draining {
		// A drained claim hands over before its deadline.
		s.lease.Revoke()
	}
	epoch, hold, ok := s.lease.Claim(context.Background(), owner, now, m.opt.LeaseTTL)
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("session: %s is claimed by %s (lease live)", id, prev)
	}
	if draining {
		// The new claim resumes from the last checkpoint's fork, not the
		// drained claim's live instance — migration rides the same
		// copy-on-write machinery as checkpointing, and determinism makes
		// the continuation byte-identical either way.
		s.migrateLocked()
		s.state = StateOpen
	}
	c := &Claim{m: m, s: s, owner: owner, epoch: epoch, Revoke: hold.Done()}
	s.mu.Unlock()

	if takeover {
		detail := "lease expired"
		if draining {
			detail = "drain"
		}
		m.tel.fenced.Inc()
		m.event(telemetry.Event{Type: telemetry.EventSessionFenced, Job: id,
			Worker: prev, Epoch: prevEpoch, Detail: detail})
	}
	m.event(telemetry.Event{Type: telemetry.EventSessionClaimed, Job: id,
		Worker: owner, Epoch: epoch})
	m.logf("session %s claimed by %s (epoch %d)", id, owner, epoch)
	return c, nil
}

// cursor reads the session's stream cursors: the highest applied batch
// sequence and the cumulative branch count.
func (c *Claim) cursor() (lastSeq, branches uint64) {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.lastSeq, c.s.branches
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
	if !s.lease.Holds(c.epoch) {
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
		s.lease.Renew(c.epoch, c.m.opt.Now(), c.m.opt.LeaseTTL)
		out := s.log.Entries()
		for i := len(out) - 1; i >= 0; i-- {
			if out[i].Type == FramePredictions && out[i].Batch == f.Seq {
				of := out[i]
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
	s.lease.Renew(c.epoch, c.m.opt.Now(), c.m.opt.LeaseTTL)
	of := s.log.Append(s.applyLocked(f))
	s.tail = append(s.tail, f)
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
	if !s.lease.Holds(c.epoch) {
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
	s.lease.Renew(c.epoch, c.m.opt.Now(), c.m.opt.LeaseTTL)
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
// claim keeps its lease until the successor fences it.
func (c *Claim) Drain() (OutFrame, error) {
	of, err := c.Checkpoint()
	if err != nil {
		return OutFrame{}, err
	}
	s := c.s
	s.mu.Lock()
	if !s.lease.Holds(c.epoch) {
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
	c.s.mu.Lock()
	c.s.lease.Release(c.epoch)
	c.s.mu.Unlock()
}

// Tid is the session's tracer thread id — the lane its epoch spans
// render on. The push handler times each epoch locally (claim to
// connection end) so no wall-clock value is ever stored on the session.
func (c *Claim) Tid() int { return c.s.tid }

// Epoch is the claim's fencing epoch.
func (c *Claim) Epoch() uint64 { return c.epoch }

// maybeStall is the worker.stall chaos site at batch apply. When it
// fires, the connection holds its lease without progress until a
// successor fences it or ctx ends, and it reports true.
func (c *Claim) maybeStall(ctx context.Context) bool {
	if !c.m.opt.Chaos.Fire(chaos.WorkerStall) {
		return false
	}
	c.m.logf("chaos: session %s claim (epoch %d) stalling", c.s.id, c.epoch)
	select {
	case <-c.Revoke:
	case <-ctx.Done():
	}
	return true
}

// updateTelemetryLocked refreshes the ephemeral telemetry snapshot, the
// output log's latest entry. Callers hold s.mu.
func (s *Session) updateTelemetryLocked() {
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
	s.log.SetLatest(OutFrame{
		Type:        FrameTelemetry,
		Branches:    s.branches,
		Mispredicts: s.mispredicts,
		Accuracy:    acc,
		MPKIProxy:   mpki,
	})
}

// ExpireLeases revokes leases whose TTL has passed — the supervisor
// sweep, called from llbpd's housekeeping loop (and tests). A draining
// claim is left for its successor. Returns the number revoked.
func (m *Manager) ExpireLeases() int {
	now := m.opt.Now()
	n := 0
	for _, s := range m.all() {
		s.mu.Lock()
		var owner string
		revoked := false
		epoch := s.lease.Epoch()
		if s.state != StateDraining && s.lease.Expired(now) {
			owner, revoked = s.lease.Revoke()
		}
		s.mu.Unlock()
		if !revoked {
			continue
		}
		n++
		m.tel.fenced.Inc()
		m.event(telemetry.Event{Type: telemetry.EventSessionFenced, Job: s.id,
			Worker: owner, Epoch: epoch, Detail: "lease expired (sweep)"})
		m.logf("session %s lease expired (owner %s, epoch %d)", s.id, owner, epoch)
	}
	return n
}
