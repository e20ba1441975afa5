package session

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"llbp/internal/predictor"
	"llbp/internal/sim"
)

// Session states.
const (
	StateOpen     = "open"
	StateDraining = "draining"
	StateClosed   = "closed"
)

// Request opens a session.
type Request struct {
	Schema string `json:"schema"`
	// Predictor is the experiment spec key ("64k", "llbp", ...).
	Predictor string `json:"predictor"`
	// Workload names the warmup trace; required when Warmup > 0. Sessions
	// sharing (workload, predictor, warmup) fork one warm snapshot.
	Workload string `json:"workload,omitempty"`
	// Warmup is the number of warmup branches forked from the shared warm
	// snapshot before the session's own stream begins.
	Warmup uint64 `json:"warmup,omitempty"`
	// CheckpointBranches overrides the manager's auto-checkpoint cadence
	// (0 = manager default).
	CheckpointBranches uint64 `json:"checkpoint_branches,omitempty"`
	// Tenant labels the session for telemetry.
	Tenant string `json:"tenant,omitempty"`
}

// Validate checks the open request.
func (r Request) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("session: request schema %q, want %q", r.Schema, Schema)
	}
	if r.Predictor == "" {
		return fmt.Errorf("session: request names no predictor")
	}
	if r.Warmup > 0 && r.Workload == "" {
		return fmt.Errorf("session: warmup %d without a workload to warm on", r.Warmup)
	}
	return nil
}

// Status is the externally visible snapshot of one session.
type Status struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Predictor string `json:"predictor"`
	Workload  string `json:"workload,omitempty"`
	Warmup    uint64 `json:"warmup,omitempty"`
	Tenant    string `json:"tenant,omitempty"`
	// Epoch is the claim generation; Owner the current claim holder.
	Epoch uint64 `json:"epoch,omitempty"`
	Owner string `json:"owner,omitempty"`
	// LastSeq is the highest applied batch sequence; Branches the
	// cumulative applied branch count.
	LastSeq     uint64 `json:"last_seq"`
	Branches    uint64 `json:"branches"`
	Mispredicts uint64 `json:"mispredicts"`
	// Frames is the length of the persisted output log.
	Frames uint64 `json:"frames"`
	// Checkpoints counts checkpoints taken (auto + explicit).
	Checkpoints uint64 `json:"checkpoints"`
}

// sessLease records which push connection owns the session's current
// claim and until when. revoke is closed when the claim is superseded or
// released — a stalled connection parked on it learns it lost ownership.
type sessLease struct {
	owner   string
	expires time.Time
	revoke  chan struct{}
}

// checkpoint is one captured session snapshot: a copy-on-write fork of
// the live predictor at a batch boundary plus the cursors that locate it
// in the stream. Drain migration restarts the session from here — the
// new claim gets the forked twin, replays the in-memory batch tail, and
// continues as if it had driven the stream all along.
type checkpoint struct {
	pred     predictor.Predictor
	clock    *predictor.Clock
	lastSeq  uint64
	branches uint64
	cond     uint64
	misp     uint64
}

// Session is the in-memory runtime of one streaming prediction session.
//
// Ownership is lease-based, mirroring the job service: each push
// connection claims the session and bumps the epoch; every apply and
// every emitted frame carries the claiming epoch and is rejected once
// superseded, so a revoked connection can never append a frame for a
// session someone else now owns.
//
//llbplint:leased -- session state is owned by the current claim; connection-reachable writes must be fenced on the claim epoch
type Session struct {
	id  string
	req Request

	mu    sync.Mutex
	state string
	epoch uint64
	lease sessLease

	// built gates lazy rebuild: a session restored from the journal has
	// no predictor until first touched, when the manager re-forks the
	// warm snapshot and replays the journaled stream (replay holds the
	// raw journal entries until then).
	built  bool
	replay []json.RawMessage

	// pred is the live predictor; step applies branches to it on the
	// clock it was forked onto.
	pred predictor.Predictor
	step *sim.Stepper

	// Stream cursors.
	lastSeq     uint64 // highest applied batch seq
	branches    uint64 // cumulative applied branches
	cond        uint64 // cumulative conditional branches
	mispredicts uint64

	// jn is the session's journal cursor: the count of journaled entries,
	// embedded in each entry's key so replay order is explicit.
	jn uint64

	// Auto-checkpoint cadence state.
	ckptEvery   uint64
	nextCkpt    uint64
	checkpoints uint64
	ckpt        *checkpoint
	// tail holds the batches applied since the last checkpoint, the
	// replay input for checkpoint-based drain migration. Bounded by the
	// checkpoint cadence: taking a checkpoint clears it.
	tail []Frame

	// Persisted output log (predictions/checkpoint/done frames);
	// OutFrame.Seq = index+1. pulse is closed and replaced on every
	// append to wake streaming followers.
	out   []OutFrame
	pulse chan struct{}

	// Ephemeral telemetry snapshot: only the latest is kept, stamped with
	// telSeq so followers dedup.
	telemetry OutFrame
	telSeq    uint64

	// tid is the session's trace-event thread id (open order).
	tid int
}

// applyLocked runs one validated branch-batch through the predictor and
// returns the predictions frame (unsequenced; the caller appends it).
// Each branch takes sim.Stepper's step, the one batch replay takes, so
// latency-aware predictors (LLBP's prefetch pipeline) see the same time
// base streamed as replayed. Each conditional branch yields one verdict
// byte. Callers hold mu and have already checked sequence continuity.
func (s *Session) applyLocked(f Frame) OutFrame {
	raw := make([]byte, 0, len(f.Branches))
	var misp uint64
	for i := range f.Branches {
		b := f.Branches[i].Branch()
		predicted := s.step.Step(&b)
		if !b.Type.IsConditional() {
			continue
		}
		var o byte
		if predicted {
			o |= OutcomeTaken
		}
		if predicted != b.Taken {
			o |= OutcomeMispredict
			misp++
		}
		raw = append(raw, o)
		s.cond++
	}
	s.lastSeq = f.Seq
	s.branches += uint64(len(f.Branches))
	s.mispredicts += misp
	return OutFrame{
		Type:        FramePredictions,
		Batch:       f.Seq,
		N:           len(f.Branches),
		Outcomes:    EncodeOutcomes(raw),
		Mispredicts: misp,
		Branches:    s.branches,
	}
}

// appendLocked sequences and appends a persisted frame, waking
// followers. Callers hold mu.
func (s *Session) appendLocked(of OutFrame) OutFrame {
	of.Seq = uint64(len(s.out)) + 1
	s.out = append(s.out, of)
	close(s.pulse)
	s.pulse = make(chan struct{})
	return of
}

// takeCheckpointLocked captures a checkpoint: a copy-on-write fork of
// the live predictor plus the stream cursors, and the persisted
// checkpoint frame. Non-forkable predictors checkpoint cursors only
// (migration then continues with the live instance — same trajectory,
// no fork exercise). Callers hold mu.
func (s *Session) takeCheckpointLocked() OutFrame {
	ck := &checkpoint{
		lastSeq:  s.lastSeq,
		branches: s.branches,
		cond:     s.cond,
		misp:     s.mispredicts,
	}
	if f, ok := s.pred.(predictor.Forkable); ok {
		ck.clock = &predictor.Clock{}
		ck.pred = f.Fork(ck.clock)
	}
	s.ckpt = ck
	s.tail = s.tail[:0]
	s.checkpoints++
	s.nextCkpt = s.branches + s.ckptEvery
	return s.appendLocked(OutFrame{
		Type:     FrameCkptAck,
		Batch:    s.lastSeq,
		Branches: s.branches,
	})
}

// migrateLocked swaps the live predictor for the last checkpoint's fork
// and replays the in-memory batch tail through it — the drain-migration
// path: the revoked claim's predictor instance is abandoned and the new
// claim drives a fresh fork with an identical trajectory. No checkpoint
// (or a non-forkable predictor) means the live instance carries over
// unchanged. Callers hold mu.
func (s *Session) migrateLocked() {
	ck := s.ckpt
	if ck == nil || ck.pred == nil {
		return
	}
	tail := s.tail
	s.pred, s.step = ck.pred, sim.NewStepper(ck.pred, ck.clock)
	s.lastSeq, s.branches = ck.lastSeq, ck.branches
	s.cond, s.mispredicts = ck.cond, ck.misp
	s.tail = nil
	// Silent replay: these batches' predictions frames are already in the
	// output log; the fork only needs to catch up to the live cursor.
	for _, f := range tail {
		s.applyLocked(f)
	}
	s.tail = tail[:0]
	// The consumed fork can no longer serve a second migration; the next
	// checkpoint re-arms it.
	s.ckpt = nil
}

// snapshotLocked builds the Status. Callers hold mu.
func (s *Session) snapshotLocked() Status {
	st := Status{
		ID:          s.id,
		State:       s.state,
		Predictor:   s.req.Predictor,
		Workload:    s.req.Workload,
		Warmup:      s.req.Warmup,
		Tenant:      s.req.Tenant,
		Epoch:       s.epoch,
		LastSeq:     s.lastSeq,
		Branches:    s.branches,
		Mispredicts: s.mispredicts,
		Frames:      uint64(len(s.out)),
		Checkpoints: s.checkpoints,
	}
	if s.lease.owner != "" {
		st.Owner = s.lease.owner
	}
	return st
}

// frames returns the persisted frames after position pos plus the
// ephemeral telemetry snapshot (if newer than telSeq), the terminal
// flag, and the pulse channel to wait on — the session counterpart of
// the job service's snapshot(pos).
func (s *Session) frames(pos int, telSeq uint64) (evs []OutFrame, tel *OutFrame, newTelSeq uint64, terminal bool, pulse chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pos < len(s.out) {
		evs = append(evs, s.out[pos:]...)
	}
	newTelSeq = telSeq
	if s.telSeq > telSeq {
		t := s.telemetry
		tel = &t
		newTelSeq = s.telSeq
	}
	return evs, tel, newTelSeq, s.state == StateClosed, s.pulse
}
