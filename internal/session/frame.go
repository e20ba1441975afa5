// Package session is the streaming-prediction subsystem: predict as a
// service. A client opens a long-lived session bound to a predictor
// configuration (and optionally a workload warmup prefix, served from the
// experiment harness's copy-on-write warm-snapshot cache), then streams
// branch records at it and receives per-batch predictions, mispredict
// verdicts and live telemetry snapshots back.
//
// The wire contract (schema "llbp-session/1", NDJSON both ways):
//
//	POST   /v1/session                 open a session (Request → Status)
//	GET    /v1/session                 list session statuses
//	GET    /v1/session/{id}            one session's status
//	DELETE /v1/session/{id}            close a session
//	POST   /v1/session/{id}/branches   push client frames (hello, then
//	                                   branch-batch/checkpoint/drain/bye);
//	                                   claims the session lease for the
//	                                   duration of the connection
//	GET    /v1/session/{id}/stream     pull server frames (predictions,
//	                                   checkpoint, telemetry, done);
//	                                   ?from=N resumes after seq N,
//	                                   ?follow=1 waits for new frames
//
// Sessions are exactly-once across kills: every applied branch batch is
// journaled before its predictions are emitted, and a restarted daemon
// rebuilds the predictor deterministically (warm-snapshot fork + journal
// replay), so a killed-and-resumed session's output stream is
// byte-identical to an uninterrupted one. Ownership is lease-epoch
// fenced exactly like the job service: each push connection claims the
// session and bumps its epoch, and a superseded connection can never
// apply a batch or emit a frame again — drain/reconnect migration
// continues with zero duplicated or skipped sequence numbers.
package session

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"

	"llbp/internal/trace"
)

// Schema identifies the session wire format, both directions.
const Schema = "llbp-session/1"

// Client→server frame types.
const (
	FrameHello       = "hello"
	FrameBranchBatch = "branch-batch"
	FrameCheckpoint  = "checkpoint"
	FrameDrain       = "drain"
	FrameBye         = "bye"
)

// Server→client frame types (OutFrame.Type).
const (
	FramePredictions = "predictions"
	FrameCkptAck     = "checkpoint"
	FrameTelemetry   = "telemetry"
	FrameDone        = "done"
	FrameError       = "error"
)

// Limits enforced by the frame parser. Oversized input is a protocol
// error, not a resize: a malicious or broken client cannot make the
// server buffer an unbounded line.
const (
	// MaxFrameBytes bounds one NDJSON line.
	MaxFrameBytes = 1 << 20
	// MaxBatchBranches bounds one branch-batch frame.
	MaxBatchBranches = 8192
)

// BranchRec is one branch record on the wire — trace.Branch with wire
// names and without the trace-replay-only fields.
type BranchRec struct {
	PC     uint64 `json:"pc"`
	Target uint64 `json:"target,omitempty"`
	// Kind is the trace.BranchType numeric value.
	Kind  uint8 `json:"kind,omitempty"`
	Taken bool  `json:"taken,omitempty"`
	// Instructions is the straight-line instruction count preceding the
	// branch (advances the session clock, which times pattern prefetch).
	Instructions uint32 `json:"instr,omitempty"`
	// TargetMiss marks a non-conditional transfer whose target the
	// front-end missed (forces a pipeline reset, like trace replay).
	TargetMiss bool `json:"target_miss,omitempty"`
}

// Branch converts the wire record to a trace.Branch.
func (r BranchRec) Branch() trace.Branch {
	return trace.Branch{
		PC:                 r.PC,
		Target:             r.Target,
		Type:               trace.BranchType(r.Kind),
		Taken:              r.Taken,
		Instructions:       r.Instructions,
		MispredictedTarget: r.TargetMiss,
	}
}

// Frame is one client→server NDJSON line.
type Frame struct {
	Type string `json:"type"`
	// Schema must be Schema on the hello frame; ignored elsewhere.
	Schema string `json:"schema,omitempty"`
	// Seq is the 1-based batch sequence number, assigned by the client
	// and strictly increasing within a session. The server acknowledges
	// by cursor: a reconnecting client may replay already-applied
	// sequence numbers (they are skipped idempotently), but must never
	// skip ahead.
	Seq uint64 `json:"seq,omitempty"`
	// Branches carries the branch-batch payload.
	Branches []BranchRec `json:"branches,omitempty"`
}

// OutFrame is one server→client NDJSON line.
type OutFrame struct {
	Type string `json:"type"`
	// Seq is the persisted frame's 1-based position in the session's
	// output log (predictions/checkpoint/done). An interrupted stream
	// reader resumes with ?from=N. Ephemeral telemetry frames carry no
	// Seq.
	Seq uint64 `json:"seq,omitempty"`
	// Batch echoes the client batch sequence the frame answers.
	Batch uint64 `json:"batch,omitempty"`
	// N is the number of branches in the answered batch.
	N int `json:"n,omitempty"`
	// Outcomes is the per-branch verdict stream for a predictions frame:
	// base64(raw bytes), one byte per conditional branch in batch order;
	// bit0 = predicted taken, bit1 = mispredicted. Non-conditional
	// records produce no byte (they have no direction prediction).
	Outcomes string `json:"outcomes,omitempty"`
	// Mispredicts counts direction mispredictions in the batch.
	Mispredicts uint64 `json:"mispredicts,omitempty"`
	// Branches is the session's cumulative applied branch count.
	Branches uint64 `json:"branches,omitempty"`
	// Accuracy/MPKIProxy are live telemetry snapshot fields (ephemeral).
	Accuracy  float64 `json:"accuracy,omitempty"`
	MPKIProxy float64 `json:"mpki_proxy,omitempty"`
	// State reports the session state on done frames.
	State string `json:"state,omitempty"`
	// Error carries a protocol or apply failure.
	Error string `json:"error,omitempty"`
}

// WithSeq returns f numbered as persisted frame seq (follow.Entry).
func (f OutFrame) WithSeq(seq uint64) OutFrame {
	f.Seq = seq
	return f
}

// EncodeOutcomes packs per-branch verdict bytes for the wire.
func EncodeOutcomes(raw []byte) string {
	return base64.StdEncoding.EncodeToString(raw)
}

// DecodeOutcomes unpacks a predictions frame's verdict bytes.
func DecodeOutcomes(s string) ([]byte, error) {
	return base64.StdEncoding.DecodeString(s)
}

// Outcome byte layout (one byte per conditional branch).
const (
	OutcomeTaken      = 1 << 0
	OutcomeMispredict = 1 << 1
)

// FrameReader parses client frames off an NDJSON stream, enforcing the
// protocol limits. It is deliberately strict: unknown frame types,
// oversized lines, oversized batches and malformed JSON are errors, not
// warnings — the session layer closes the connection and the client
// resumes from its cursor.
type FrameReader struct {
	sc  *bufio.Scanner
	err error
	// recs is decodeFast's scratch for one frame's records; frames get
	// their own copy.
	recs []BranchRec
}

// NewFrameReader wraps r.
func NewFrameReader(r io.Reader) *FrameReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), MaxFrameBytes)
	return &FrameReader{sc: sc}
}

// Next returns the next frame, io.EOF at clean end of stream, or a
// protocol error. After an error every subsequent call returns the same
// error.
func (fr *FrameReader) Next() (Frame, error) {
	if fr.err != nil {
		return Frame{}, fr.err
	}
	for {
		if !fr.sc.Scan() {
			if err := fr.sc.Err(); err != nil {
				if err == bufio.ErrTooLong {
					err = fmt.Errorf("session: frame exceeds %d bytes", MaxFrameBytes)
				}
				fr.err = err
				return Frame{}, err
			}
			fr.err = io.EOF
			return Frame{}, io.EOF
		}
		line := fr.sc.Bytes()
		if len(trimSpace(line)) == 0 {
			continue // tolerate blank lines between frames
		}
		f, ok := fr.decodeFast(line)
		if !ok {
			// A variable of its own: json.Unmarshal moves it to the
			// heap, and only declined lines should pay for that.
			var ref Frame
			if err := json.Unmarshal(line, &ref); err != nil {
				fr.err = fmt.Errorf("session: malformed frame: %w", err)
				return Frame{}, fr.err
			}
			f = ref
		}
		if err := ValidateFrame(f); err != nil {
			fr.err = err
			return Frame{}, err
		}
		return f, nil
	}
}

// ValidateFrame checks one client frame against the protocol rules that
// do not require session state (sequence continuity is the session's
// job).
func ValidateFrame(f Frame) error {
	switch f.Type {
	case FrameHello:
		if f.Schema != Schema {
			return fmt.Errorf("session: hello schema %q, want %q", f.Schema, Schema)
		}
		return nil
	case FrameBranchBatch:
		if f.Seq == 0 {
			return fmt.Errorf("session: branch-batch without seq")
		}
		if len(f.Branches) == 0 {
			return fmt.Errorf("session: empty branch-batch (seq %d)", f.Seq)
		}
		if len(f.Branches) > MaxBatchBranches {
			return fmt.Errorf("session: batch of %d branches exceeds %d (seq %d)",
				len(f.Branches), MaxBatchBranches, f.Seq)
		}
		return nil
	case FrameCheckpoint, FrameDrain, FrameBye:
		if len(f.Branches) != 0 {
			return fmt.Errorf("session: %s frame must not carry branches", f.Type)
		}
		return nil
	default:
		return fmt.Errorf("session: unknown frame type %q", f.Type)
	}
}

// trimSpace trims only the whitespace JSON allows within a line, unlike
// bytes.TrimSpace, so a line holding only a form feed ('\f') is reported
// as malformed rather than skipped as blank.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}
