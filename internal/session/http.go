package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"llbp/internal/follow"
	"llbp/internal/telemetry"
)

// Handler returns the session subsystem's HTTP surface, mounted on
// llbpd's mux next to the job service's routes.
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", m.handleOpen)
	mux.HandleFunc("GET /v1/session", m.handleList)
	mux.HandleFunc("GET /v1/session/{id}", m.handleStatus)
	mux.HandleFunc("DELETE /v1/session/{id}", m.handleClose)
	mux.HandleFunc("POST /v1/session/{id}/branches", m.handlePush)
	mux.HandleFunc("GET /v1/session/{id}/stream", m.handleStream)
	return mux
}

func (m *Manager) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		follow.WriteError(w, http.StatusBadRequest, "decoding session request: %v", err)
		return
	}
	st, err := m.Open(r.Context(), req)
	if err != nil {
		follow.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	follow.WriteJSON(w, http.StatusCreated, st)
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	follow.WriteJSON(w, http.StatusOK, m.List())
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := m.Get(r.Context(), r.PathValue("id"))
	if err != nil {
		follow.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	follow.WriteJSON(w, http.StatusOK, st)
}

func (m *Manager) handleClose(w http.ResponseWriter, r *http.Request) {
	st, err := m.Close(r.Context(), r.PathValue("id"))
	if err != nil {
		follow.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	follow.WriteJSON(w, http.StatusOK, st)
}

// PushSummary is the push connection's trailing response: how far the
// connection advanced the session before ending (cleanly or not).
type PushSummary struct {
	Applied  int    `json:"applied"`
	LastSeq  uint64 `json:"last_seq"`
	Branches uint64 `json:"branches"`
	Drained  bool   `json:"drained,omitempty"`
	Closed   bool   `json:"closed,omitempty"`
	Error    string `json:"error,omitempty"`
}

// handlePush is the client→server half of a session: an NDJSON stream of
// llbp-session/1 frames, beginning with hello. The connection claims the
// session's lease for its duration — a second pusher is rejected until
// this one drains, releases, or lets the lease expire. Predictions
// answering each batch land on the session's output log; pull them from
// the stream endpoint (HTTP/1.1 clients cannot reliably read a response
// while still writing the request, so the two halves are two calls).
//
//llbplint:worker -- a push connection writes session state on behalf of the remote client holding the claim
func (m *Manager) handlePush(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fr := NewFrameReader(r.Body)

	// The stream must open with a hello naming the schema.
	first, err := fr.Next()
	if err != nil {
		follow.WriteError(w, http.StatusBadRequest, "reading hello: %v", err)
		return
	}
	if first.Type != FrameHello {
		follow.WriteError(w, http.StatusBadRequest, "first frame is %q, want %q", first.Type, FrameHello)
		return
	}

	owner := r.RemoteAddr
	if o := r.URL.Query().Get("worker"); o != "" {
		owner = o
	}
	claim, err := m.Claim(r.Context(), id, owner)
	if err != nil {
		follow.WriteError(w, http.StatusConflict, "%v", err)
		return
	}
	// Time the epoch span locally on this connection: the wall-clock
	// value never touches session state, so nothing clock-derived can
	// leak into the journal or the output log.
	t0 := m.opt.Tracer.Since()
	defer func() {
		m.opt.Tracer.Span(telemetry.PidSession, claim.Tid(), "epoch", "session",
			t0, m.opt.Tracer.Since()-t0, map[string]any{"epoch": claim.Epoch(), "owner": owner})
	}()

	sum := PushSummary{}
	fail := func(status int, err error) {
		sum.Error = err.Error()
		sum.LastSeq, sum.Branches = claim.cursor()
		follow.WriteJSON(w, status, sum)
	}

loop:
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break // client hung up without bye: release and let it resume
		}
		if err != nil {
			claim.Release()
			fail(http.StatusBadRequest, err)
			return
		}
		switch f.Type {
		case FrameHello:
			claim.Release()
			fail(http.StatusBadRequest, fmt.Errorf("session: duplicate hello"))
			return
		case FrameBranchBatch:
			if claim.maybeStall(r.Context()) {
				// Chaos wedged this connection until it was fenced (or the
				// client gave up); surface the fence.
				fail(http.StatusConflict, ErrFenced)
				return
			}
			if _, err := claim.Apply(f); err != nil {
				if !errors.Is(err, ErrFenced) {
					claim.Release()
				}
				fail(http.StatusConflict, err)
				return
			}
			sum.Applied++
		case FrameCheckpoint:
			if _, err := claim.Checkpoint(); err != nil {
				fail(http.StatusConflict, err)
				return
			}
		case FrameDrain:
			if _, err := claim.Drain(); err != nil {
				fail(http.StatusConflict, err)
				return
			}
			sum.Drained = true
			break loop
		case FrameBye:
			claim.Release()
			st, cerr := m.Close(r.Context(), id)
			if cerr != nil {
				fail(http.StatusInternalServerError, cerr)
				return
			}
			sum.Closed = true
			sum.LastSeq, sum.Branches = st.LastSeq, st.Branches
			follow.WriteJSON(w, http.StatusOK, sum)
			return
		}
	}
	if !sum.Drained {
		claim.Release()
	}
	sum.LastSeq, sum.Branches = claim.cursor()
	follow.WriteJSON(w, http.StatusOK, sum)
}

// handleStream is the server→client half: the session's output log as
// NDJSON OutFrames (follow.Follower), interleaved with telemetry
// snapshots under ?follow=1&telemetry=1. A reader too slow for
// StreamWriteTimeout is dropped and resumes with ?from=N.
func (m *Manager) handleStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s, err := m.lookup(r.Context(), id)
	if err != nil {
		follow.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	m.stream.Serve(w, r, "session "+id, s.frames)
}
