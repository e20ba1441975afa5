package session

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"llbp/internal/chaos"
	"llbp/internal/follow"
	"llbp/internal/harness"
	"llbp/internal/predictor"
	"llbp/internal/sim"
	"llbp/internal/telemetry"
)

// Forker supplies warmed predictors to sessions. experiments.Harness
// implements it: sessions bound to the same (workload, predictor,
// warmup) triple fork one shared warm snapshot — opening ten sessions
// over one warmed predictor costs one warmup.
type Forker interface {
	ForkWarm(ctx context.Context, workload, specKey string, warmup uint64) (predictor.Predictor, *predictor.Clock, error)
}

// Options configures a session manager.
type Options struct {
	// Forker builds session predictors (required).
	Forker Forker
	// JournalPath persists the session input stream for exactly-once
	// resume across daemon restarts. Empty disables durability: sessions
	// die with the process.
	JournalPath string
	// LeaseTTL bounds how long a silent push connection keeps its claim
	// (default 10s). A connection renews on every applied frame.
	LeaseTTL time.Duration
	// CheckpointBranches is the default auto-checkpoint cadence
	// (default 25000; requests may override per session).
	CheckpointBranches uint64
	// MaxSessions bounds concurrently open sessions (default 64).
	MaxSessions int
	// Now is the lease clock (default time.Now); tests inject a fake.
	// Stream write deadlines read the wall clock.
	Now func() time.Time
	// Chaos, when non-nil, arms the session failure-injection sites
	// (stream.drop, worker.stall, journal.tear).
	Chaos *chaos.Injector
	// Registry, Events and Tracer receive session telemetry; all
	// optional.
	Registry *telemetry.Registry
	Events   *telemetry.EventLog
	Tracer   *telemetry.Tracer
	// StreamWriteTimeout bounds one frame write to a streaming follower
	// (default 10s); a reader stalled past it is disconnected and resumes
	// from its cursor.
	StreamWriteTimeout time.Duration
	// Logf, when non-nil, receives one line per session lifecycle edge.
	Logf func(format string, args ...any)
}

// sessTel bundles the manager's instruments; a nil registry leaves every
// field nil and the telemetry package's nil-receiver contract makes each
// call a no-op.
type sessTel struct {
	open        *telemetry.Gauge
	branches    *telemetry.Counter
	mispredicts *telemetry.Counter
	batches     *telemetry.Counter
	checkpoints *telemetry.Counter
	fenced      *telemetry.Counter
	resumed     *telemetry.Counter
}

// Manager owns the session registry: open/claim/apply/stream/close, the
// journal that makes sessions survive restarts, and the lease supervisor
// state. It is the session-subsystem peer of service.Server and is
// mounted next to it on llbpd's mux.
type Manager struct {
	opt     Options
	journal *harness.Journal
	tel     sessTel
	stream  follow.Follower[OutFrame]

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string // open order, for List and tid assignment
	opened   int      // total opens ever (tid source)
}

// journalEntry is one persisted session input event. Kind is "batch"
// (a branch-batch frame), "checkpoint" (an explicit client checkpoint)
// or "close".
type journalEntry struct {
	Kind     string      `json:"kind"`
	Seq      uint64      `json:"seq,omitempty"`
	Branches []BranchRec `json:"branches,omitempty"`
}

// openRecord is the persisted open event: the request plus the
// session's trace-track tid, so restarted sessions keep their track.
type openRecord struct {
	Req Request `json:"req"`
	Tid int     `json:"tid"`
}

// New builds a manager, replaying any existing journal into resumable
// session shells (predictor rebuild is lazy: a restored session re-forks
// its warm snapshot and replays its stream on first touch).
func New(opt Options) (*Manager, error) {
	if opt.Forker == nil {
		return nil, fmt.Errorf("session: Options.Forker is required")
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 10 * time.Second
	}
	if opt.CheckpointBranches == 0 {
		opt.CheckpointBranches = 25_000
	}
	if opt.MaxSessions <= 0 {
		opt.MaxSessions = 64
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if opt.StreamWriteTimeout <= 0 {
		opt.StreamWriteTimeout = 10 * time.Second
	}
	m := &Manager{opt: opt, sessions: make(map[string]*Session)}
	if opt.Registry != nil {
		m.tel = sessTel{
			open:        opt.Registry.Gauge("sessions_open"),
			branches:    opt.Registry.Counter("session_branches_total"),
			mispredicts: opt.Registry.Counter("session_mispredicts_total"),
			batches:     opt.Registry.Counter("session_batches_total"),
			checkpoints: opt.Registry.Counter("session_checkpoints_total"),
			fenced:      opt.Registry.Counter("session_fenced_total"),
			resumed:     opt.Registry.Counter("session_resumed_total"),
		}
	}
	reg := opt.Registry
	m.stream = follow.Follower[OutFrame]{
		Unit: "frame", LatestFlag: "telemetry", WriteTimeout: opt.StreamWriteTimeout,
		Chaos: opt.Chaos, Logf: opt.Logf,
		Resumes:     reg.Counter("session_stream_resumes"),
		ResumeGap:   reg.Histogram("session_stream_resume_gap_frames", telemetry.ExponentialBuckets(1, 2, 8)),
		SlowClients: reg.Counter("session_streams_slow_client"),
		ChaosDrops:  reg.Counter("session_streams_chaos_dropped"),
	}
	m.opt.Tracer.ProcessName(telemetry.PidSession, "llbpd sessions")
	if opt.JournalPath != "" {
		j, err := harness.OpenJournal(opt.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("session: opening journal: %w", err)
		}
		if opt.Chaos != nil {
			j.SetWriteHook(chaos.TearHook(opt.Chaos))
		}
		m.journal = j
		if err := m.restore(); err != nil {
			j.Close()
			return nil, err
		}
	}
	return m, nil
}

// restore scans the journal and rebuilds session shells: request,
// journal cursor and the replay entry list. Closed sessions are restored
// too (their output log regenerates on first stream read), so a client
// can still fetch a finished session's verdicts after a restart.
func (m *Manager) restore() error {
	opens := map[string]openRecord{}
	type kv struct {
		n   uint64
		raw json.RawMessage
	}
	events := map[string][]kv{}
	var badKey error
	m.journal.Each(func(key string, value json.RawMessage) {
		parts := strings.Split(key, "|")
		if len(parts) < 3 || parts[0] != "sess" {
			return // foreign key (shared journal file); ignore
		}
		sid := parts[1]
		switch parts[2] {
		case "open":
			var or openRecord
			if err := json.Unmarshal(value, &or); err != nil && badKey == nil {
				badKey = fmt.Errorf("session: journal %s: %w", key, err)
				return
			}
			opens[sid] = or
		case "ev":
			if len(parts) != 4 {
				return
			}
			var n uint64
			if _, err := fmt.Sscanf(parts[3], "%d", &n); err != nil {
				return
			}
			events[sid] = append(events[sid], kv{n: n, raw: value})
		}
	})
	if badKey != nil {
		return badKey
	}
	sids := make([]string, 0, len(opens))
	for sid := range opens {
		sids = append(sids, sid)
	}
	// Restore in open (tid) order so List and future tid assignment stay
	// deterministic.
	sort.Slice(sids, func(i, k int) bool { return opens[sids[i]].Tid < opens[sids[k]].Tid })
	for _, sid := range sids {
		or := opens[sid]
		evs := events[sid]
		sort.Slice(evs, func(i, k int) bool { return evs[i].n < evs[k].n })
		s := m.newSession(sid, or.Req, or.Tid)
		s.built = false
		if len(evs) > 0 {
			// Past the highest entry, not the count: a failed write
			// leaves a gap, and reusing a live key would replace it.
			s.jn = evs[len(evs)-1].n + 1
		}
		s.replay = make([]json.RawMessage, len(evs))
		for i, e := range evs {
			s.replay[i] = e.raw
		}
		m.sessions[sid] = s
		m.order = append(m.order, sid)
		if or.Tid > m.opened {
			m.opened = or.Tid
		}
		m.logf("session %s restored (%d journaled events)", sid, len(evs))
	}
	return nil
}

// newSession builds the in-memory shell (no predictor yet).
func (m *Manager) newSession(id string, req Request, tid int) *Session {
	if req.CheckpointBranches == 0 {
		req.CheckpointBranches = m.opt.CheckpointBranches
	}
	return &Session{
		id:        id,
		req:       req,
		state:     StateOpen,
		ckptEvery: req.CheckpointBranches,
		nextCkpt:  req.CheckpointBranches,
		log:       follow.NewLog[OutFrame](),
		tid:       tid,
	}
}

// Open admits a new session.
func (m *Manager) Open(ctx context.Context, req Request) (Status, error) {
	if err := req.Validate(); err != nil {
		return Status{}, err
	}
	m.mu.Lock()
	live := 0
	for _, s := range m.sessions {
		s.mu.Lock()
		if s.state != StateClosed {
			live++
		}
		s.mu.Unlock()
	}
	if live >= m.opt.MaxSessions {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("session: %d sessions open (limit %d)", live, m.opt.MaxSessions)
	}
	m.opened++
	tid := m.opened
	sum := sha256.Sum256([]byte(fmt.Sprintf("%d|%s|%s|%s|%d", tid, req.Tenant, req.Predictor, req.Workload, req.Warmup)))
	id := "sess-" + hex.EncodeToString(sum[:4])
	s := m.newSession(id, req, tid)
	m.sessions[id] = s
	m.order = append(m.order, id)
	m.mu.Unlock()

	// Build eagerly so an unbuildable request fails the open, not the
	// first batch.
	if err := m.build(ctx, s); err != nil {
		m.forget(id)
		return Status{}, err
	}
	if m.journal != nil {
		if err := m.journal.Record(journalKeyOpen(id), openRecord{Req: s.req, Tid: tid}); err != nil {
			// Restore never rebuilds a session without its open record.
			m.forget(id)
			return Status{}, fmt.Errorf("session: journaling open: %w", err)
		}
	}
	m.tel.open.Set(m.tel.open.Value() + 1)
	m.event(telemetry.Event{Type: telemetry.EventSessionOpened, Job: id, Tenant: req.Tenant,
		Detail: fmt.Sprintf("%s warm=%d on %s", req.Predictor, req.Warmup, req.Workload)})
	m.opt.Tracer.ThreadName(telemetry.PidSession, tid, id)
	m.logf("session %s opened: predictor=%s workload=%s warmup=%d", id, req.Predictor, req.Workload, req.Warmup)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(), nil
}

// forget drops a session whose open failed, so it neither lists nor
// counts against MaxSessions.
func (m *Manager) forget(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.sessions, id)
	if i := slices.Index(m.order, id); i >= 0 {
		m.order = slices.Delete(m.order, i, i+1)
	}
}

func journalKeyOpen(sid string) string { return "sess|" + sid + "|open" }
func journalKeyEv(sid string, n uint64) string {
	return fmt.Sprintf("sess|%s|ev|%010d", sid, n)
}

// build forks the warm snapshot into s and, for a restored session,
// replays its journaled stream — regenerating the output log frame by
// frame. Replay is deterministic (same fork, same batches, same
// cadence), so the regenerated log is byte-identical to the one the
// killed process had emitted: a resuming reader continues from its
// cursor with no seam.
func (m *Manager) build(ctx context.Context, s *Session) error {
	s.mu.Lock()
	if s.built {
		s.mu.Unlock()
		return nil
	}
	replay := s.replay
	s.mu.Unlock()

	pred, clock, err := m.opt.Forker.ForkWarm(ctx, s.req.Workload, s.req.Predictor, s.req.Warmup)
	if err != nil {
		return fmt.Errorf("session: building predictor: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.built {
		return nil // lost the build race; the winner's state stands
	}
	s.pred, s.step = pred, sim.NewStepper(pred, clock)
	for _, raw := range replay {
		var e journalEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			return fmt.Errorf("session: replaying %s: %w", s.id, err)
		}
		m.applyEntryLocked(s, e)
	}
	s.replay = nil
	s.built = true
	if len(replay) > 0 {
		m.tel.resumed.Inc()
		m.event(telemetry.Event{Type: telemetry.EventSessionResumed, Job: s.id,
			Tenant: s.req.Tenant, Detail: fmt.Sprintf("replayed %d events", len(replay))})
		m.logf("session %s resumed: %d events replayed, %d branches, %d frames",
			s.id, len(replay), s.branches, len(s.log.Entries()))
	}
	return nil
}

// applyEntryLocked applies one journal entry during replay, regenerating
// the same output frames the original apply emitted. Callers hold s.mu.
func (m *Manager) applyEntryLocked(s *Session, e journalEntry) {
	switch e.Kind {
	case "batch":
		if e.Seq <= s.lastSeq {
			return // idempotent: latest-wins rewrites can duplicate
		}
		f := Frame{Type: FrameBranchBatch, Seq: e.Seq, Branches: e.Branches}
		s.log.Append(s.applyLocked(f))
		if s.branches >= s.nextCkpt {
			s.takeCheckpointLocked()
		}
	case "checkpoint":
		s.takeCheckpointLocked()
	case "close":
		s.state = StateClosed
		s.log.Finish(OutFrame{Type: FrameDone, Branches: s.branches,
			Mispredicts: s.mispredicts, State: StateClosed})
	}
}

// Get returns one session's status.
func (m *Manager) Get(ctx context.Context, id string) (Status, error) {
	s, err := m.lookup(ctx, id)
	if err != nil {
		return Status{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(), nil
}

// List returns all sessions' statuses in open order.
func (m *Manager) List() []Status {
	sessions := m.all()
	out := make([]Status, 0, len(sessions))
	for _, s := range sessions {
		s.mu.Lock()
		out = append(out, s.snapshotLocked())
		s.mu.Unlock()
	}
	return out
}

// all returns every session in open order.
func (m *Manager) all() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	sessions := make([]*Session, 0, len(m.order))
	for _, id := range m.order {
		sessions = append(sessions, m.sessions[id])
	}
	return sessions
}

// lookup finds a session and ensures it is built (triggering the lazy
// journal replay for restored sessions).
func (m *Manager) lookup(ctx context.Context, id string) (*Session, error) {
	m.mu.Lock()
	s, ok := m.sessions[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("session: unknown session %q", id)
	}
	if err := m.build(ctx, s); err != nil {
		return nil, err
	}
	return s, nil
}

// Close terminates a session: the done frame is persisted, the lease
// revoked, and further pushes rejected. Closing a closed session is a
// no-op. The close is journaled first, under the session lock as Apply
// journals a batch: a failed write leaves the session open in memory,
// as a restart would find it.
func (m *Manager) Close(ctx context.Context, id string) (Status, error) {
	s, err := m.lookup(ctx, id)
	if err != nil {
		return Status{}, err
	}
	s.mu.Lock()
	if s.state == StateClosed {
		st := s.snapshotLocked()
		s.mu.Unlock()
		return st, nil
	}
	if m.journal != nil {
		if err := m.journal.Record(journalKeyEv(id, s.jn), journalEntry{Kind: "close"}); err != nil {
			s.mu.Unlock()
			return Status{}, fmt.Errorf("session: journaling close: %w", err)
		}
	}
	s.jn++
	s.lease.Revoke()
	s.state = StateClosed
	s.log.Finish(OutFrame{Type: FrameDone, Branches: s.branches,
		Mispredicts: s.mispredicts, State: StateClosed})
	st := s.snapshotLocked()
	tenant := s.req.Tenant
	s.mu.Unlock()

	if g := m.tel.open; g != nil && g.Value() > 0 {
		g.Set(g.Value() - 1)
	}
	m.event(telemetry.Event{Type: telemetry.EventSessionClosed, Job: id, Tenant: tenant, State: StateClosed})
	m.logf("session %s closed: %d branches, %d mispredicts", id, st.Branches, st.Mispredicts)
	return st, nil
}

// Shutdown closes the journal. In-memory sessions stay queryable until
// the process exits; a restart resumes them from the journal.
func (m *Manager) Shutdown() {
	if m.journal != nil {
		m.journal.Close()
	}
}

func (m *Manager) logf(format string, args ...any) {
	if m.opt.Logf != nil {
		m.opt.Logf(format, args...)
	}
}

func (m *Manager) event(ev telemetry.Event) {
	m.opt.Events.Emit(ev)
}
