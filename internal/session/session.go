package session

import (
	"encoding/json"
	"fmt"
	"sync"

	"llbp/internal/follow"
	"llbp/internal/lease"
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
	// Epoch is the claim generation, the number of claims so far; Owner
	// the current claim holder.
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

// Session is the in-memory runtime of one streaming prediction session.
//
// Ownership is lease-based, as for jobs: each push connection claims
// the session's lease, and every apply and emitted frame is rejected
// once the claim's epoch no longer holds it, so a revoked connection can
// never append a frame for a session someone else now owns.
//
//llbplint:leased -- session state is owned by the current claim; connection-reachable writes must be fenced on the claim epoch
type Session struct {
	id  string
	req Request

	mu    sync.Mutex
	state string
	lease lease.Lease

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

	// log is the output log: persisted predictions, checkpoint and done
	// frames, with the telemetry snapshot as its ephemeral latest entry.
	log follow.Log[OutFrame]

	// tid is the session's trace-event thread id (open order).
	tid int
}

// applyLocked runs one validated branch-batch through the predictor and
// returns the predictions frame (unsequenced; the caller appends it).
// Each branch takes sim.Stepper's step, the one batch replay takes, so
// latency-aware predictors (LLBP's prefetch pipeline) see the same time
// base streamed as replayed. Each conditional branch yields one verdict
// byte, gathered on the stack: a validated frame holds at most
// MaxBatchBranches branches. Callers hold mu and have already checked
// sequence continuity.
func (s *Session) applyLocked(f Frame) OutFrame {
	var verdicts [MaxBatchBranches]byte
	raw := verdicts[:0]
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

// takeCheckpointLocked acknowledges the stream cursor: it appends the
// persisted checkpoint frame and re-arms the auto-checkpoint cadence.
// The predictor is not copied — the journal's inputs rebuild it on
// restart, and a drain's successor drives the live instance. Callers
// hold mu.
func (s *Session) takeCheckpointLocked() OutFrame {
	s.checkpoints++
	s.nextCkpt = s.branches + s.ckptEvery
	return s.log.Append(OutFrame{
		Type:     FrameCkptAck,
		Batch:    s.lastSeq,
		Branches: s.branches,
	})
}

// snapshotLocked builds the Status. Callers hold mu.
func (s *Session) snapshotLocked() Status {
	return Status{
		ID:          s.id,
		State:       s.state,
		Predictor:   s.req.Predictor,
		Workload:    s.req.Workload,
		Warmup:      s.req.Warmup,
		Tenant:      s.req.Tenant,
		Epoch:       s.lease.Claims(),
		Owner:       s.lease.Owner(),
		LastSeq:     s.lastSeq,
		Branches:    s.branches,
		Mispredicts: s.mispredicts,
		Frames:      uint64(len(s.log.Entries())),
		Checkpoints: s.checkpoints,
	}
}

// frames reads the output log from pos on under the session lock: one
// stream follower iteration (follow.ReadFunc).
func (s *Session) frames(pos int) ([]OutFrame, OutFrame, uint64, bool, <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Read(pos)
}
