package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"llbp/internal/chaos"
	"llbp/internal/experiments"
	"llbp/internal/follow"
	"llbp/internal/harness"
	"llbp/internal/telemetry"
)

// ErrQueueFull is returned by Submit when the admission lane is at
// capacity; HTTP maps it to 429 with a Retry-After header.
var ErrQueueFull = fmt.Errorf("service: admission queue full")

// ErrTenantQuota is returned by Submit when the tenant already has its
// quota of active jobs; HTTP maps it to 429 with a Retry-After header.
var ErrTenantQuota = fmt.Errorf("service: tenant active-job quota exceeded")

// ErrDraining is returned by Submit once shutdown has begun; HTTP maps
// it to 503.
var ErrDraining = fmt.Errorf("service: draining, not accepting jobs")

// CellRunner executes one simulation cell. *experiments.Harness is the
// production implementation: cells dispatched through it inherit the
// harness runner's retries, panic isolation, per-run deadlines, memo
// cache and journal resume unchanged.
type CellRunner interface {
	RunCell(ctx context.Context, spec experiments.CellSpec) (*experiments.RunOutput, error)
}

// Options configures a Server.
type Options struct {
	// Runner executes cells (required). Use an *experiments.Harness
	// whose journal points at durable storage for exactly-once resume.
	Runner CellRunner
	// Workers is the job worker pool size (default 1). Cell-level
	// parallelism inside a job is governed by the harness runner's own
	// admission gate, so total simulation concurrency is bounded by the
	// harness, not by Workers.
	Workers int
	// QueueDepth bounds each admission lane (normal and high priority
	// separately); submissions beyond it are rejected with 429 +
	// Retry-After (default 16).
	QueueDepth int
	// RetryAfterSeconds is advertised on 429 responses (default 1).
	RetryAfterSeconds int
	// TenantQuota bounds the number of active (non-terminal) jobs any
	// one tenant may hold; 0 means unlimited. Submissions beyond it are
	// shed with 429 + Retry-After — the noisy-neighbour valve.
	TenantQuota int
	// LeaseTTL is how long a worker's job lease lives without a
	// heartbeat before the supervisor reclaims and re-dispatches the job
	// (default 30s). Heartbeats ride on claim, cell completion and
	// streamed progress ticks, so any worker making simulation progress
	// keeps its lease alive.
	LeaseTTL time.Duration
	// SupervisorInterval is the lease-reaper period (default
	// LeaseTTL/4).
	SupervisorInterval time.Duration
	// StreamWriteTimeout is the per-write deadline on results streams; a
	// client that cannot absorb an event within it is disconnected (its
	// job keeps running and the journaled events replay on reconnect).
	// 0 disables slow-client detection.
	StreamWriteTimeout time.Duration
	// Now supplies the wall clock for lease arithmetic (default
	// time.Now). Tests inject a fake clock to drive lease expiry
	// deterministically.
	Now func() time.Time
	// Chaos, when non-nil, injects seeded service-level failures at the
	// named hooks (see internal/chaos). Nil costs nothing.
	Chaos *chaos.Injector
	// Registry, when non-nil, receives service metrics and backs the
	// /metrics endpoint.
	Registry *telemetry.Registry
	// Events, when non-nil, receives one llbp-events/1 record per job
	// lifecycle transition (submitted/claimed/lease-renewed/fenced/
	// requeued/shed/completed). Nil costs nothing.
	Events *telemetry.EventLog
	// Tracer, when non-nil, receives per-job and per-cell lifecycle
	// spans on the PidService track (one tid per worker). Nil costs
	// nothing.
	Tracer *telemetry.Tracer
	// JobLogPath, when non-empty, is the job-state journal: submitted
	// jobs and their terminal states are appended (fsynced per record),
	// and New re-enqueues every non-terminal job found there. Pair it
	// with a harness cell journal to make resume exactly-once.
	JobLogPath string
	// Logf, when non-nil, receives one line per lifecycle transition.
	Logf func(format string, args ...any)
}

// Server owns the job registry, admission lanes, worker pool and lease
// supervisor. Create with New, install Handler on an http.Server, call
// Start, and Drain on shutdown.
type Server struct {
	opt      Options
	base     context.Context
	baseStop context.CancelFunc
	// Admission lanes, in worker preference order: requeue (resumed and
	// lease-reclaimed jobs), high, normal. Lanes are never closed;
	// drainCh ends the workers.
	requeue  chan *job
	high     chan *job
	normal   chan *job
	drainCh  chan struct{}
	draining atomic.Bool
	wg       sync.WaitGroup

	mu      sync.Mutex
	jobs    map[string]*job
	tenants map[string]int        // tenant → active (non-terminal) job count
	running map[string][]dispatch // cell key → dispatches simulating that cell

	jobLog  *harness.Journal
	tel     serviceTel
	results follow.Follower[StreamEvent]
}

// dispatch is one worker dispatch of a job: the job plus the epoch its
// claim returned, which fences every write the dispatch makes.
type dispatch struct {
	jb    *job
	epoch uint64
}

// serviceTel bundles the server's nil-safe instruments.
type serviceTel struct {
	submitted   *telemetry.Counter
	deduped     *telemetry.Counter
	rejected    *telemetry.Counter
	shedTenant  *telemetry.Counter
	resumed     *telemetry.Counter
	completed   *telemetry.Counter
	failed      *telemetry.Counter
	cancelled   *telemetry.Counter
	cellsOK     *telemetry.Counter
	cellsErr    *telemetry.Counter
	reclaimed   *telemetry.Counter
	requeued    *telemetry.Counter
	epochFences *telemetry.Counter
	workerPanic *telemetry.Counter
	queueDepth  *telemetry.Gauge
	running     *telemetry.Gauge
	staleness   *telemetry.Gauge
	claimLat    *telemetry.Histogram
	jobDur      *telemetry.Histogram
	cellDur     *telemetry.Histogram
	submitDepth *telemetry.Histogram
}

// loggedJob is the job-log record format: enough to resume (the request)
// and to answer status queries for terminal jobs across restarts.
type loggedJob struct {
	Req       JobRequest `json:"req"`
	State     State      `json:"state"`
	Completed int        `json:"completed"`
	Failed    int        `json:"failed"`
}

// New builds a Server, loading and re-enqueuing any non-terminal jobs
// from the job log. Call Start to begin executing.
func New(opt Options) (*Server, error) {
	if opt.Runner == nil {
		return nil, fmt.Errorf("service: Options.Runner is required")
	}
	if opt.Workers < 1 {
		opt.Workers = 1
	}
	if opt.QueueDepth < 1 {
		opt.QueueDepth = 16
	}
	if opt.RetryAfterSeconds < 1 {
		opt.RetryAfterSeconds = 1
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = 30 * time.Second
	}
	if opt.SupervisorInterval <= 0 {
		opt.SupervisorInterval = opt.LeaseTTL / 4
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		opt:      opt,
		base:     base,
		baseStop: stop,
		drainCh:  make(chan struct{}),
		jobs:     make(map[string]*job),
		tenants:  make(map[string]int),
		running:  make(map[string][]dispatch),
	}
	reg := opt.Registry
	s.tel = serviceTel{
		submitted:   reg.Counter("service_jobs_submitted"),
		deduped:     reg.Counter("service_jobs_deduped"),
		rejected:    reg.Counter("service_jobs_rejected"),
		shedTenant:  reg.Counter("service_jobs_shed_tenant"),
		resumed:     reg.Counter("service_jobs_resumed"),
		completed:   reg.Counter("service_jobs_completed"),
		failed:      reg.Counter("service_jobs_failed"),
		cancelled:   reg.Counter("service_jobs_cancelled"),
		cellsOK:     reg.Counter("service_cells_completed"),
		cellsErr:    reg.Counter("service_cells_failed"),
		reclaimed:   reg.Counter("service_leases_reclaimed"),
		requeued:    reg.Counter("service_jobs_requeued"),
		epochFences: reg.Counter("service_epoch_fences"),
		workerPanic: reg.Counter("service_worker_panics"),
		queueDepth:  reg.Gauge("service_queue_depth"),
		running:     reg.Gauge("service_jobs_running"),
		staleness:   reg.Gauge("service_heartbeat_staleness_ms"),
		claimLat:    reg.Histogram("service_claim_latency_ms", telemetry.ExponentialBuckets(1, 4, 8)),
		jobDur:      reg.Histogram("service_job_duration_ms", telemetry.ExponentialBuckets(1, 4, 10)),
		cellDur:     reg.Histogram("service_cell_duration_ms", telemetry.ExponentialBuckets(1, 4, 10)),
		submitDepth: reg.Histogram("service_submit_queue_depth", telemetry.LinearBuckets(0, 4, 9)),
	}
	s.results = follow.Follower[StreamEvent]{
		Unit: "event", WriteTimeout: opt.StreamWriteTimeout, Chaos: opt.Chaos, Logf: opt.Logf,
		Resumes:     reg.Counter("service_stream_resumes"),
		ResumeGap:   reg.Histogram("service_stream_resume_gap_events", telemetry.ExponentialBuckets(1, 2, 8)),
		SlowClients: reg.Counter("service_streams_slow_client"),
		ChaosDrops:  reg.Counter("service_streams_chaos_dropped"),
	}

	var resumable []*job
	if opt.JobLogPath != "" {
		jl, err := harness.OpenJournal(opt.JobLogPath)
		if err != nil {
			stop()
			return nil, err
		}
		if opt.Chaos != nil {
			jl.SetWriteHook(chaos.TearHook(opt.Chaos))
		}
		s.jobLog = jl
		jl.Each(func(id string, raw json.RawMessage) {
			var lj loggedJob
			if err := json.Unmarshal(raw, &lj); err != nil || len(lj.Req.Cells) == 0 {
				s.logf("job log: dropping unreadable record %s", id)
				return
			}
			jb := newJob(base, id, lj.Req)
			if lj.State.Terminal() {
				// Remembered for status queries; results streams replay
				// only the terminal summary.
				jb.completed, jb.failed = lj.Completed, lj.Failed
				jb.finish(lj.State)
				jb.tenantReleased.Store(true)
			} else {
				resumable = append(resumable, jb)
			}
			s.jobs[id] = jb
		})
	}

	s.high = make(chan *job, opt.QueueDepth)
	s.normal = make(chan *job, opt.QueueDepth)
	// The requeue lane must absorb every resumed job at startup; reclaim
	// re-dispatches use blocking sends, so extra slack only reduces
	// supervisor stalls.
	s.requeue = make(chan *job, opt.QueueDepth+len(resumable))
	for _, jb := range resumable {
		if err := s.logJob(jb); err != nil {
			stop()
			return nil, err
		}
		s.requeue <- jb
		s.mu.Lock()
		s.tenants[jb.req.Tenant]++
		s.mu.Unlock()
		jb.markSubmitted(s.now())
		s.tel.resumed.Inc()
		s.event(telemetry.EventJobRequeued, jb.id, jb.req.Tenant, "", 0, "restart_resume")
		s.logf("job %s resumed (%d cells)", jb.id, len(jb.req.Cells))
	}
	s.setQueueDepth()
	return s, nil
}

// Start launches the worker pool and the lease supervisor.
func (s *Server) Start() {
	for i := 0; i < s.opt.Workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		tid := i + 1 // tracer thread on the PidService track
		if s.opt.Tracer != nil {
			s.opt.Tracer.ThreadName(telemetry.PidService, tid, name)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.worker(tid, name)
		}()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.supervisor()
	}()
}

func (s *Server) now() time.Time { return s.opt.Now() }

func (s *Server) setQueueDepth() {
	s.tel.queueDepth.Set(float64(len(s.requeue) + len(s.high) + len(s.normal)))
}

// Submit enqueues a job request (the HTTP handler's core, exposed for
// in-process use). Returns the status and true when the job was newly
// admitted; an existing job (same deterministic ID) returns its current
// status and false. Overload is shed with ErrQueueFull (lane full) or
// ErrTenantQuota (tenant over its active-job quota); a draining server
// returns ErrDraining.
func (s *Server) Submit(req JobRequest) (JobStatus, bool, error) {
	if err := req.Validate(); err != nil {
		return JobStatus{}, false, err
	}
	if s.draining.Load() {
		return JobStatus{}, false, ErrDraining
	}
	s.tel.submitDepth.Observe(float64(len(s.requeue) + len(s.high) + len(s.normal)))
	id := JobID(req.Cells)

	s.mu.Lock()
	if jb, ok := s.jobs[id]; ok {
		s.mu.Unlock()
		s.tel.deduped.Inc()
		return jb.status(), false, nil
	}
	if s.opt.TenantQuota > 0 && s.tenants[req.Tenant] >= s.opt.TenantQuota {
		s.mu.Unlock()
		s.tel.shedTenant.Inc()
		s.event(telemetry.EventJobShed, id, req.Tenant, "", 0, "tenant_quota")
		return JobStatus{}, false, ErrTenantQuota
	}
	jb := newJob(s.base, id, req)
	s.jobs[id] = jb
	s.tenants[req.Tenant]++
	s.mu.Unlock()

	lane := s.normal
	if req.Priority == PriorityHigh {
		lane = s.high
	}
	select {
	case lane <- jb:
	default:
		s.mu.Lock()
		delete(s.jobs, id)
		s.tenants[req.Tenant]--
		s.mu.Unlock()
		s.tel.rejected.Inc()
		s.event(telemetry.EventJobShed, id, req.Tenant, "", 0, "queue_full")
		return JobStatus{}, false, ErrQueueFull
	}
	s.setQueueDepth()
	jb.markSubmitted(s.now())
	if err := s.logJob(jb); err != nil {
		s.logf("job %s: logging submit: %v", id, err)
	}
	s.tel.submitted.Inc()
	s.event(telemetry.EventJobSubmitted, id, req.Tenant, "", 0, laneName(req.Priority))
	s.logf("job %s submitted (%d cells, tenant %q, %s lane)", id, len(req.Cells), req.Tenant, laneName(req.Priority))
	return jb.status(), true, nil
}

func laneName(priority string) string {
	if priority == PriorityHigh {
		return PriorityHigh
	}
	return PriorityNormal
}

// releaseTenant returns the job's tenant quota slot, exactly once.
func (s *Server) releaseTenant(jb *job) {
	if !jb.tenantReleased.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	if s.tenants[jb.req.Tenant] > 0 {
		s.tenants[jb.req.Tenant]--
	}
	if s.tenants[jb.req.Tenant] == 0 {
		delete(s.tenants, jb.req.Tenant)
	}
	s.mu.Unlock()
}

// Job returns a job's status by ID.
func (s *Server) Job(id string) (JobStatus, bool) {
	s.mu.Lock()
	jb, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	return jb.status(), true
}

// Jobs lists every known job's status, sorted by ID.
func (s *Server) Jobs() []JobStatus {
	jobs := s.allJobs()
	out := make([]JobStatus, len(jobs))
	for i, jb := range jobs {
		out[i] = jb.status()
	}
	return out
}

// allJobs returns every known job, sorted by ID.
func (s *Server) allJobs() []*job {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, jb := range s.jobs {
		jobs = append(jobs, jb)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
	return jobs
}

// Cancel cancels a job. Queued jobs finish immediately as cancelled;
// running jobs abort their in-flight cell (the simulation observes
// context cancellation within a few thousand branches). Reports whether
// the job exists.
func (s *Server) Cancel(id string) (JobStatus, bool) {
	s.mu.Lock()
	jb, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, false
	}
	if !jb.terminal() {
		jb.userCancelled.Store(true)
		jb.cancel()
		// A queued job has no worker to finalize it; do it here. The
		// worker skips terminal jobs when it dequeues them.
		if state, _, _ := jb.view(); state == StateQueued {
			jb.finish(StateCancelled)
			s.releaseTenant(jb)
			s.tel.cancelled.Inc()
			if err := s.logJob(jb); err != nil {
				s.logf("job %s: logging cancel: %v", id, err)
			}
			s.logf("job %s cancelled while queued", id)
		}
	}
	return jb.status(), true
}

// CellProgress routes a harness progress callback (experiments
// Config.CellProgress) to every dispatch currently running that cell, as
// throttled "progress" stream events. Each delivery also heartbeats the
// dispatch's lease — a worker making simulation progress keeps
// ownership — unless the chaos harness suppresses the renewal
// (HeartbeatSkip). Both are fenced on the epoch of the dispatch that
// started the cell, so a superseded dispatch still simulating neither
// renews its successor's lease nor publishes progress in its name.
//
//llbplint:worker -- harness progress callback; runs on worker goroutines mid-simulation
func (s *Server) CellProgress(key string, processed, total uint64) {
	s.mu.Lock()
	running := append([]dispatch(nil), s.running[key]...)
	s.mu.Unlock()
	for _, d := range running {
		d.jb.setProgress(d.epoch, key, cellIndex(d.jb.req.Cells, key), processed, total)
		if !s.opt.Chaos.Fire(chaos.HeartbeatSkip) {
			d.jb.heartbeat(d.epoch, s.now(), s.opt.LeaseTTL)
		}
	}
}

// cellIndex finds a cell's index within the job by key.
func cellIndex(cells []experiments.CellSpec, key string) int {
	for i, c := range cells {
		if c.Key() == key {
			return i
		}
	}
	return 0
}

// nextJob dequeues the next job in lane-priority order (requeue > high >
// normal), or reports false when the server is draining.
func (s *Server) nextJob() (*job, bool) {
	for {
		select {
		case jb := <-s.requeue:
			return jb, true
		default:
		}
		select {
		case jb := <-s.high:
			return jb, true
		default:
		}
		select {
		case jb := <-s.requeue:
			return jb, true
		case jb := <-s.high:
			return jb, true
		case jb := <-s.normal:
			return jb, true
		case <-s.drainCh:
			return nil, false
		}
	}
}

// worker executes queued jobs until drain. Each job runs under panic
// supervision: a panicking dispatch (chaos-injected or real) is
// contained, the worker survives to serve the next job, and the
// abandoned job's lease expires into a supervisor re-dispatch.
func (s *Server) worker(tid int, name string) {
	for {
		jb, ok := s.nextJob()
		if !ok {
			return
		}
		s.setQueueDepth()
		if jb.terminal() {
			continue // cancelled while queued
		}
		if s.draining.Load() || s.base.Err() != nil {
			continue // leave for resume
		}
		now := s.now()
		epoch, runCtx, ok := jb.claim(name, now, s.opt.LeaseTTL)
		if !ok {
			continue // raced with cancel or a live lease
		}
		if submitted := jb.submitted(); !submitted.IsZero() {
			s.tel.claimLat.Observe(durMS(now.Sub(submitted)))
		}
		// The job a worker dequeues depends on goroutine scheduling, so
		// everything derived from it is order-tainted; the service event
		// log and job log record that operational reality (which worker
		// claimed what, when) and are sequence-numbered, not byte-diffed.
		//llbplint:allow detflow -- service logs record real claim order; cross-run byte-determinism applies to sim artifacts, not the job server
		s.event(telemetry.EventJobClaimed, jb.id, jb.req.Tenant, name, epoch, "")
		//llbplint:allow detflow -- service logs record real claim order; cross-run byte-determinism applies to sim artifacts, not the job server
		s.superviseJob(jb, name, tid, epoch, runCtx)
	}
}

// superviseJob is the per-job panic boundary of a worker.
func (s *Server) superviseJob(jb *job, name string, tid int, epoch uint64, runCtx context.Context) {
	defer func() {
		if rec := recover(); rec != nil {
			// The worker goroutine survives; the job keeps its (now
			// unattended) lease until the supervisor reclaims it. Cells
			// already completed are journaled, so the re-dispatch is
			// exactly-once.
			s.tel.workerPanic.Inc()
			s.logf("job %s: %s panicked: %v (lease will expire and re-dispatch)", jb.id, name, rec)
		}
	}()
	s.runJob(jb, name, tid, epoch, runCtx)
}

// runCellFenced executes one cell, retrying (bounded) when the result is
// a bare context cancellation while this dispatch's context is still
// live — the footprint of joining a superseded dispatch's in-flight cell
// via the harness single-flight, whose owning context was revoked. The
// cell itself never completed, so re-running preserves exactly-once.
func (s *Server) runCellFenced(runCtx context.Context, cell experiments.CellSpec) (*experiments.RunOutput, error) {
	var out *experiments.RunOutput
	var err error
	for attempt := 0; ; attempt++ {
		out, err = s.opt.Runner.RunCell(runCtx, cell)
		if err == nil || runCtx.Err() != nil || attempt >= 2 || !errors.Is(err, context.Canceled) {
			return out, err
		}
		s.logf("cell %s: joined a revoked dispatch's run; retrying", cell.Key())
	}
}

// runJob executes one job's cells in order, streaming a "cell" event per
// completion. Every mutation is fenced on the dispatch epoch, so a
// superseded dispatch (lease reclaimed) silently stands down. Shutdown
// mid-job leaves the job non-terminal (resumable); user cancellation,
// cell failures and clean completion finalize it.
func (s *Server) runJob(jb *job, name string, tid int, epoch uint64, runCtx context.Context) {
	if err := s.logJob(jb); err != nil {
		s.logf("job %s: logging start: %v", jb.id, err)
	}
	s.logf("job %s running (epoch %d)", jb.id, epoch)
	var jobT0 float64
	if s.opt.Tracer != nil {
		jobT0 = s.opt.Tracer.Since()
	}
	s.tel.running.Set(float64(s.countRunning()))
	defer func() { s.tel.running.Set(float64(s.countRunning())) }()

	for i, cell := range jb.req.Cells {
		if runCtx.Err() != nil {
			break
		}
		if jb.hasCell(i) {
			continue // already streamed by an earlier dispatch
		}
		// Chaos: a worker may die (panic, contained by superviseJob) or
		// wedge (hold the lease without progress until revoked) exactly
		// here, at cell pickup.
		if s.opt.Chaos.Fire(chaos.WorkerPanic) {
			//llbplint:allow nopanic -- chaos injection: simulates a crashed worker; contained by superviseJob
			panic(fmt.Sprintf("chaos: worker killed at job %s cell %d", jb.id, i))
		}
		if s.opt.Chaos.Fire(chaos.WorkerStall) {
			s.logf("job %s: chaos stall at cell %d; holding lease without progress", jb.id, i)
			<-runCtx.Done() // wedged until the supervisor revokes the lease
			break           // fall through to stand-down accounting
		}
		key := cell.Key()
		var cellT0 float64
		if s.opt.Tracer != nil {
			cellT0 = s.opt.Tracer.Since()
		}
		cellStart := s.now()
		s.trackCell(key, dispatch{jb, epoch})
		out, err := s.runCellFenced(runCtx, cell)
		s.untrackCell(key, dispatch{jb, epoch})
		s.tel.cellDur.Observe(durMS(s.now().Sub(cellStart)))
		s.span(tid, "cell "+key, cellT0, map[string]any{"job": jb.id, "index": i})
		if jb.heartbeat(epoch, s.now(), s.opt.LeaseTTL) {
			s.event(telemetry.EventLeaseRenewed, jb.id, jb.req.Tenant, name, epoch, "")
		}
		if err != nil {
			if runCtx.Err() != nil {
				break // aborted mid-cell: no event, cell re-runs on resume
			}
			if jb.addCellError(epoch, i, key, err) {
				s.tel.cellsErr.Inc()
				s.logf("job %s cell %s failed: %v", jb.id, key, err)
			}
			continue
		}
		raw, merr := json.Marshal(out)
		if merr != nil {
			if jb.addCellError(epoch, i, key, merr) {
				s.tel.cellsErr.Inc()
			}
			continue
		}
		if jb.addCell(epoch, i, key, raw) {
			s.tel.cellsOK.Inc()
			s.logf("job %s cell %s done", jb.id, key)
		}
	}

	if runCtx.Err() != nil && jb.ctx.Err() == nil {
		// Only this dispatch was cancelled: the supervisor reclaimed the
		// lease and the job is already back in the requeue lane. Stand
		// down without touching it. This is the epoch fence closing —
		// exactly one fence per superseded dispatch is accounted here.
		s.tel.epochFences.Inc()
		s.event(telemetry.EventLeaseFenced, jb.id, jb.req.Tenant, name, epoch, "superseded")
		s.logf("job %s: dispatch epoch %d superseded; standing down", jb.id, epoch)
		return
	}
	if jb.ctx.Err() != nil && !jb.userCancelled.Load() {
		// Server shutdown: leave the job non-terminal so the restart
		// path re-enqueues it. Its completed cells live in the harness
		// cell journal, so only the remainder re-runs.
		jb.release(epoch)
		s.logf("job %s interrupted by shutdown; will resume", jb.id)
		return
	}

	var final State
	st := jb.status()
	switch {
	case jb.userCancelled.Load():
		final = StateCancelled
	case st.Failed > 0:
		final = StateFailed
	default:
		final = StateDone
	}
	if !jb.finishEpoch(epoch, final) {
		// Superseded at the finish line; the new owner decides.
		s.tel.epochFences.Inc()
		s.event(telemetry.EventLeaseFenced, jb.id, jb.req.Tenant, name, epoch, "finish")
		return
	}
	switch final {
	case StateCancelled:
		s.tel.cancelled.Inc()
	case StateFailed:
		s.tel.failed.Inc()
	default:
		s.tel.completed.Inc()
	}
	s.releaseTenant(jb)
	if err := s.logJob(jb); err != nil {
		s.logf("job %s: logging finish: %v", jb.id, err)
	}
	submitted := jb.submitted()
	dur := s.now().Sub(submitted)
	if !submitted.IsZero() {
		s.tel.jobDur.Observe(durMS(dur))
	}
	s.opt.Events.Emit(telemetry.Event{Type: telemetry.EventJobCompleted, Job: jb.id, Tenant: jb.req.Tenant,
		Worker: name, Epoch: epoch, State: string(final), DurationMS: durMS(dur)})
	s.span(tid, "job "+jb.id, jobT0, map[string]any{
		"state": string(final), "completed": st.Completed, "failed": st.Failed,
	})
	s.logf("job %s %s (%d ok, %d failed)", jb.id, final, st.Completed, st.Failed)
}

// supervisor reclaims expired leases: a job whose worker stopped
// heartbeating (wedged, panicked, or chaos-delayed) has its dispatch
// cancelled and is re-enqueued on the requeue lane. Exactly-once
// execution survives re-dispatch because completed cells are journaled
// and event emission is fenced on the dispatch epoch.
func (s *Server) supervisor() {
	ticker := time.NewTicker(s.opt.SupervisorInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.reapLeases()
		case <-s.drainCh:
			return
		}
	}
}

// reapLeases scans for expired leases and re-dispatches their jobs. It
// is the supervisor's tick body, exposed to tests driving a fake clock.
func (s *Server) reapLeases() {
	now := s.now()
	jobs := s.allJobs()
	// maxStale tracks the oldest last-heartbeat age across still-owned
	// leases — the worker-liveness gauge. A lease expiring at E under TTL T
	// was last renewed at E-T, so its staleness is now-(E-T).
	var maxStale time.Duration
	for _, jb := range jobs {
		owner, revoked := jb.revokeIfExpired(now)
		if revoked {
			s.tel.reclaimed.Inc()
			s.logf("job %s: lease of %s expired; re-dispatching", jb.id, owner)
			select {
			case s.requeue <- jb:
			case <-s.drainCh:
				// Draining: the job is already journaled non-terminal, so a
				// restart resumes it.
				return
			}
			jb.markSubmitted(now) // claim latency restarts at re-admission
			s.tel.requeued.Inc()
			s.event(telemetry.EventJobRequeued, jb.id, jb.req.Tenant, owner, 0, "lease_expired")
			continue
		}
		if _, l, _ := jb.view(); l.Held() {
			if stale := now.Sub(l.Deadline().Add(-s.opt.LeaseTTL)); stale > maxStale {
				maxStale = stale
			}
		}
	}
	s.tel.staleness.Set(durMS(maxStale))
}

// countRunning counts non-terminal jobs past the queue.
func (s *Server) countRunning() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, jobs := range s.running {
		n += len(jobs)
	}
	return n
}

func (s *Server) trackCell(key string, d dispatch) {
	s.mu.Lock()
	s.running[key] = append(s.running[key], d)
	s.mu.Unlock()
}

func (s *Server) untrackCell(key string, d dispatch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.running[key]
	for i, other := range list {
		if other == d {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(s.running, key)
	} else {
		s.running[key] = list
	}
}

// logJob appends the job's current state to the job log (fsynced).
func (s *Server) logJob(jb *job) error {
	if s.jobLog == nil {
		return nil
	}
	st := jb.status()
	return s.jobLog.Record(jb.id, loggedJob{
		Req:       jb.req,
		State:     st.State,
		Completed: st.Completed,
		Failed:    st.Failed,
	})
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully shuts the server down: admission stops (submissions
// get ErrDraining), queued jobs are left journaled for resume, and
// in-flight jobs run to completion until ctx expires — then their
// simulations are cancelled and they too are left for resume. Drain
// returns nil on a clean drain or ctx.Err() when it had to cut jobs
// short. The job log is closed either way.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return fmt.Errorf("service: already draining")
	}
	s.logf("draining: admission closed")
	close(s.drainCh)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.logf("drain deadline hit; cancelling in-flight jobs for resume")
		s.baseStop()
		<-done
	}
	s.baseStop()
	if s.jobLog != nil {
		if cerr := s.jobLog.Close(); err == nil {
			err = cerr
		}
	}
	s.logf("drained")
	return err
}

// Kill is the impolite shutdown used by crash-recovery tests: it cancels
// every in-flight simulation immediately and waits for the workers,
// without finalizing job states or closing the job log cleanly — the
// closest an in-process server gets to SIGKILL.
func (s *Server) Kill() {
	if s.draining.CompareAndSwap(false, true) {
		close(s.drainCh)
	}
	s.baseStop()
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}
