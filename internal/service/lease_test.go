package service

// White-box tests of the lease/epoch machinery, driven by an injected
// clock so lease expiry is a pure function of the test script — no
// sleeps, no timing dependence. The e2e chaos suite (chaos_e2e_test.go)
// covers the same mechanisms end to end against the real harness.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"llbp/internal/chaos"
	"llbp/internal/experiments"
	"llbp/internal/telemetry"
)

// fakeClock is a hand-advanced wall clock injected via Options.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testCell builds a valid (registry-backed) cell spec; measure
// disambiguates cells within and across jobs.
func testCell(measure uint64) experiments.CellSpec {
	return experiments.CellSpec{Workload: "Tomcat", Predictor: "64k", Warmup: 1, Measure: measure}
}

// TestLeaseEpochFencing scripts the whole ownership lifecycle on a bare
// job: claim, heartbeat renewal, expiry revocation, and the epoch fence
// that makes a superseded dispatch's mutations vanish.
func TestLeaseEpochFencing(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	ttl := time.Minute
	jb := newJob(context.Background(), "job-x", JobRequest{
		Schema: JobSchema,
		Cells:  []experiments.CellSpec{testCell(1), testCell(2), testCell(3)},
	})

	e1, runCtx1, ok := jb.claim("w0", t0, ttl)
	if !ok {
		t.Fatal("claim on a fresh job failed")
	}
	if _, _, ok := jb.claim("w1", t0.Add(time.Second), ttl); ok {
		t.Fatal("second claim succeeded against a live lease")
	}
	if !jb.heartbeat(e1, t0.Add(30*time.Second), ttl) {
		t.Fatal("heartbeat with the owning epoch failed")
	}
	if _, revoked := jb.revokeIfExpired(t0.Add(80 * time.Second)); revoked {
		t.Fatal("revoked a lease the heartbeat had renewed")
	}
	if !jb.addCell(e1, 0, "c0", []byte(`{"a":1}`)) {
		t.Fatal("owning epoch could not append an event")
	}

	owner, revoked := jb.revokeIfExpired(t0.Add(2 * time.Hour))
	if !revoked || owner != "w0" {
		t.Fatalf("revokeIfExpired = (%q, %v), want (w0, true)", owner, revoked)
	}
	if runCtx1.Err() == nil {
		t.Error("revocation did not cancel the dispatch's run context")
	}
	if jb.heartbeat(e1, t0.Add(2*time.Hour), ttl) {
		t.Error("revoked epoch renewed its lease")
	}
	if jb.addCell(e1, 1, "c1", []byte(`{}`)) {
		t.Error("revoked epoch appended an event")
	}
	if jb.finishEpoch(e1, StateDone) {
		t.Error("revoked epoch finalized the job")
	}

	e2, _, ok := jb.claim("w1", t0.Add(2*time.Hour), ttl)
	if !ok || e2 == e1 {
		t.Fatalf("re-claim = (epoch %d, %v), want a fresh epoch", e2, ok)
	}
	if !jb.hasCell(0) {
		t.Error("completed cell forgotten across re-dispatch")
	}
	if jb.addCell(e2, 0, "c0", []byte(`{"a":1}`)) {
		t.Error("re-dispatch double-emitted an already-evented cell")
	}
	if !jb.addCell(e2, 1, "c1", []byte(`{"b":2}`)) {
		t.Fatal("new owner could not append")
	}
	if !jb.addCellError(e2, 2, "c2", errors.New("boom")) {
		t.Fatal("new owner could not append an error event")
	}
	if !jb.finishEpoch(e2, StateFailed) {
		t.Fatal("new owner could not finalize")
	}
	if jb.addCell(e2, 0, "zombie", []byte(`{}`)) {
		t.Error("event appended after the terminal state")
	}

	evs, _, _, terminal, _ := jb.snapshot(0)
	if !terminal || len(evs) != 4 {
		t.Fatalf("final log: terminal=%v, %d events; want terminal, 4", terminal, len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has Seq %d, want %d (resume arithmetic depends on it)", i, ev.Seq, i+1)
		}
	}
	if st := jb.status(); st.State != StateFailed || st.Completed != 2 || st.Failed != 1 {
		t.Errorf("final status = %+v", st)
	}
}

// stubRunner blocks each cell until released (or its context dies),
// reporting every start on started — enough to hold leases open at
// scripted moments. started must be buffered: a test may let cells start
// it never waits for (Kill would otherwise deadlock behind the send).
type stubRunner struct {
	started chan string
	release chan struct{}
}

func newStubRunner() *stubRunner {
	return &stubRunner{started: make(chan string, 16), release: make(chan struct{})}
}

func (r *stubRunner) RunCell(ctx context.Context, spec experiments.CellSpec) (*experiments.RunOutput, error) {
	r.started <- spec.Key()
	select {
	case <-r.release:
		return &experiments.RunOutput{}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func waitStart(t testing.TB, r *stubRunner) string {
	t.Helper()
	select {
	case key := <-r.started:
		return key
	case <-time.After(10 * time.Second):
		t.Fatal("no cell started before the deadline")
		return ""
	}
}

func waitState(t testing.TB, s *Server, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := s.Job(id); ok && st.State == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := s.Job(id)
	t.Fatalf("job %s state = %s, want %s", id, st.State, want)
}

// TestSupervisorReclaimsExpiredLease wedges a worker mid-cell (the stub
// never returns), ages the lease on the fake clock, and checks that one
// reap cancels the dispatch, re-enqueues the job, and the re-dispatch —
// same worker pool — completes it exactly once.
func TestSupervisorReclaimsExpiredLease(t *testing.T) {
	clock := newFakeClock()
	stub := newStubRunner()
	reg := telemetry.NewRegistry()
	s, err := New(Options{
		Runner:             stub,
		Workers:            1,
		LeaseTTL:           time.Minute,
		SupervisorInterval: time.Hour, // ticker parked; the test calls reapLeases itself
		Now:                clock.Now,
		Registry:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Kill()

	st, created, err := s.Submit(JobRequest{Schema: JobSchema, Cells: []experiments.CellSpec{testCell(1)}})
	if err != nil || !created {
		t.Fatalf("submit = %+v, %v, %v", st, created, err)
	}
	waitStart(t, stub) // first dispatch holds the lease, wedged in the stub

	clock.Advance(30 * time.Second)
	s.reapLeases()
	if got := reg.Snapshot().Counters["service_leases_reclaimed"]; got != 0 {
		t.Fatalf("live lease reclaimed (%d)", got)
	}

	clock.Advance(2 * time.Minute)
	s.reapLeases()
	if got := reg.Snapshot().Counters["service_leases_reclaimed"]; got != 1 {
		t.Fatalf("service_leases_reclaimed = %d, want 1", got)
	}

	// The revoked dispatch's context wakes the wedged stub; the worker
	// stands down, dequeues the requeued job, claims a fresh epoch and
	// starts the cell again. Release it this time.
	waitStart(t, stub)
	close(stub.release)
	waitState(t, s, st.ID, StateDone)

	if final, _ := s.Job(st.ID); final.Completed != 1 || final.Failed != 0 {
		t.Errorf("final status = %+v; want exactly one completed cell", final)
	}
}

// TestHeartbeatRenewalAndChaosSkip checks both halves of the progress
// heartbeat: a streaming progress tick renews the lease (a slow but live
// cell is not reclaimed), and the chaos HeartbeatSkip hook suppresses
// exactly that renewal, aging the lease to revocation as if the worker
// had gone silent.
func TestHeartbeatRenewalAndChaosSkip(t *testing.T) {
	run := func(t *testing.T, inj *chaos.Injector, wantReclaim uint64) {
		clock := newFakeClock()
		stub := newStubRunner()
		reg := telemetry.NewRegistry()
		s, err := New(Options{
			Runner:             stub,
			Workers:            1,
			LeaseTTL:           time.Minute,
			SupervisorInterval: time.Hour,
			Now:                clock.Now,
			Chaos:              inj,
			Registry:           reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		defer s.Kill()
		cell := testCell(1)
		st, _, err := s.Submit(JobRequest{Schema: JobSchema, Cells: []experiments.CellSpec{cell}})
		if err != nil {
			t.Fatal(err)
		}
		waitStart(t, stub)

		// 50s in: the cell is still simulating but streams progress. With
		// heartbeats working this renews the lease past the reap below;
		// with chaos skipping them, the lease ages out.
		clock.Advance(50 * time.Second)
		s.CellProgress(cell.Key(), progressStride, progressStride*2)
		clock.Advance(30 * time.Second) // 80s since claim, 30s since the tick
		s.reapLeases()
		if got := reg.Snapshot().Counters["service_leases_reclaimed"]; got != wantReclaim {
			t.Fatalf("service_leases_reclaimed = %d, want %d", got, wantReclaim)
		}
		if wantReclaim > 0 {
			waitStart(t, stub) // re-dispatch after revocation
		}
		close(stub.release)
		waitState(t, s, st.ID, StateDone)
	}

	t.Run("progress-renews", func(t *testing.T) { run(t, nil, 0) })
	t.Run("chaos-skip-ages-out", func(t *testing.T) {
		run(t, chaos.New(chaos.Rule{Hook: chaos.HeartbeatSkip, At: 1, Every: 1}), 1)
	})
}

// stubbornRunner is stubRunner with a cell that ignores cancellation:
// it keeps simulating until released, the way a harness cell that a
// revoked dispatch joined keeps running after its lease is gone.
type stubbornRunner struct {
	started chan string
	release chan struct{}
}

func (r *stubbornRunner) RunCell(ctx context.Context, spec experiments.CellSpec) (*experiments.RunOutput, error) {
	r.started <- spec.Key()
	<-r.release
	return &experiments.RunOutput{}, ctx.Err()
}

// debugJob returns one job's /debug/jobs entry.
func debugJob(t *testing.T, s *Server, id string) DebugJob {
	t.Helper()
	for _, d := range s.DebugJobs() {
		if d.ID == id {
			return d
		}
	}
	t.Fatalf("job %s missing from DebugJobs", id)
	return DebugJob{}
}

// TestCellProgressFencedOnDispatchEpoch: progress from a superseded
// dispatch that is still simulating its cell must neither renew the
// successor's lease nor publish progress in its name. Dispatch A claims
// the job and starts the cell, its lease expires and is reaped, B claims
// the job, and then A's cell reports progress.
func TestCellProgressFencedOnDispatchEpoch(t *testing.T) {
	clock := newFakeClock()
	stub := &stubbornRunner{started: make(chan string, 1), release: make(chan struct{})}
	s, err := New(Options{
		Runner:             stub,
		Workers:            1,
		LeaseTTL:           time.Minute,
		SupervisorInterval: time.Hour, // the test reaps itself
		Now:                clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Kill()
	defer close(stub.release) // before Kill: the stuck worker must return

	cell := testCell(1)
	st, _, err := s.Submit(JobRequest{Schema: JobSchema, Cells: []experiments.CellSpec{cell}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stub.started: // dispatch A is simulating the cell
	case <-time.After(10 * time.Second):
		t.Fatal("no cell started before the deadline")
	}
	clock.Advance(2 * time.Minute)
	s.reapLeases()
	s.mu.Lock()
	jb := s.jobs[st.ID]
	s.mu.Unlock()
	if _, _, ok := jb.claim("B", clock.Now(), time.Minute); !ok {
		t.Fatal("B could not claim the reaped job")
	}
	before := debugJob(t, s, st.ID)
	_, _, progBefore, _, _ := jb.snapshot(0)

	clock.Advance(50 * time.Second)
	s.CellProgress(cell.Key(), progressStride, 2*progressStride)

	after := debugJob(t, s, st.ID)
	if after.Worker != "B" || after.Epoch != before.Epoch {
		t.Fatalf("lease moved from %s@%d to %s@%d", before.Worker, before.Epoch, after.Worker, after.Epoch)
	}
	if moved := after.LeaseExpiresUnixMS - before.LeaseExpiresUnixMS; moved != 0 {
		t.Errorf("superseded dispatch's progress moved B's lease deadline by %d ms", moved)
	}
	if _, _, progAfter, _, _ := jb.snapshot(0); progAfter != progBefore {
		t.Errorf("superseded dispatch published progress: sequence %d -> %d", progBefore, progAfter)
	}
}

// TestPriorityLanes holds the single worker on a gate job, queues a
// normal job then a high-priority one, and checks the worker drains the
// high lane first once freed.
func TestPriorityLanes(t *testing.T) {
	stub := newStubRunner()
	s, err := New(Options{Runner: stub, Workers: 1, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Kill()

	gate := testCell(10)
	if _, _, err := s.Submit(JobRequest{Schema: JobSchema, Cells: []experiments.CellSpec{gate}}); err != nil {
		t.Fatal(err)
	}
	if got := waitStart(t, stub); got != gate.Key() {
		t.Fatalf("first started cell = %s, want the gate", got)
	}

	normal := testCell(20)
	high := testCell(30)
	if _, _, err := s.Submit(JobRequest{Schema: JobSchema, Priority: PriorityNormal, Cells: []experiments.CellSpec{normal}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(JobRequest{Schema: JobSchema, Priority: PriorityHigh, Cells: []experiments.CellSpec{high}}); err != nil {
		t.Fatal(err)
	}

	stub.release <- struct{}{} // free the gate
	if got := waitStart(t, stub); got != high.Key() {
		t.Errorf("after the gate the worker started %s; want the high-priority job first", got)
	}
	stub.release <- struct{}{}
	if got := waitStart(t, stub); got != normal.Key() {
		t.Errorf("last started cell = %s, want the normal-priority job", got)
	}
	stub.release <- struct{}{}
}

// TestTenantQuota fills one tenant's active-job quota, checks the shed
// error and that other tenants are unaffected, then frees the slot by
// finishing the job and resubmits successfully.
func TestTenantQuota(t *testing.T) {
	stub := newStubRunner()
	s, err := New(Options{Runner: stub, Workers: 1, LeaseTTL: time.Hour, TenantQuota: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Kill()

	first, _, err := s.Submit(JobRequest{Schema: JobSchema, Tenant: "acme", Cells: []experiments.CellSpec{testCell(1)}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Submit(JobRequest{Schema: JobSchema, Tenant: "acme", Cells: []experiments.CellSpec{testCell(2)}})
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("over-quota submit error = %v, want ErrTenantQuota", err)
	}
	if _, _, err := s.Submit(JobRequest{Schema: JobSchema, Tenant: "globex", Cells: []experiments.CellSpec{testCell(3)}}); err != nil {
		t.Fatalf("other tenant shed by acme's quota: %v", err)
	}

	waitStart(t, stub)
	close(stub.release)
	waitState(t, s, first.ID, StateDone)
	if _, _, err := s.Submit(JobRequest{Schema: JobSchema, Tenant: "acme", Cells: []experiments.CellSpec{testCell(2)}}); err != nil {
		t.Fatalf("quota slot not released on completion: %v", err)
	}
}

// TestWorkerPanicSupervision injects a worker panic at cell pickup and
// checks the worker goroutine survives it: the panic is counted, the
// lease ages out on the fake clock, and the same (sole) worker completes
// the job on re-dispatch — exactly one cell event.
func TestWorkerPanicSupervision(t *testing.T) {
	clock := newFakeClock()
	stub := newStubRunner()
	reg := telemetry.NewRegistry()
	s, err := New(Options{
		Runner:             stub,
		Workers:            1,
		LeaseTTL:           time.Minute,
		SupervisorInterval: time.Hour,
		Now:                clock.Now,
		Chaos:              chaos.New(chaos.Rule{Hook: chaos.WorkerPanic, At: 1}),
		Registry:           reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Kill()

	st, _, err := s.Submit(JobRequest{Schema: JobSchema, Cells: []experiments.CellSpec{testCell(1)}})
	if err != nil {
		t.Fatal(err)
	}

	// The dispatch panics before the stub ever runs; wait for the panic
	// counter, then age the abandoned lease and reap.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().Counters["service_worker_panics"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker panic never recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	clock.Advance(2 * time.Minute)
	s.reapLeases()
	if got := reg.Snapshot().Counters["service_leases_reclaimed"]; got != 1 {
		t.Fatalf("service_leases_reclaimed = %d, want 1", got)
	}

	waitStart(t, stub) // the surviving worker picks the job back up
	close(stub.release)
	waitState(t, s, st.ID, StateDone)
	if final, _ := s.Job(st.ID); final.Completed != 1 {
		t.Errorf("final status = %+v; want exactly one completed cell", final)
	}
}

// TestSubmitValidation covers the new request surface: unknown priority
// rejected, duplicate submission deduped onto the same job with tenant
// and priority echoed in the status.
func TestSubmitValidation(t *testing.T) {
	stub := newStubRunner()
	close(stub.release)
	s, err := New(Options{Runner: stub, Workers: 1, LeaseTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Kill()

	if _, _, err := s.Submit(JobRequest{Schema: JobSchema, Priority: "urgent", Cells: []experiments.CellSpec{testCell(1)}}); err == nil {
		t.Error("unknown priority accepted")
	}
	req := JobRequest{Schema: JobSchema, Tenant: "acme", Priority: PriorityHigh, Cells: []experiments.CellSpec{testCell(1)}}
	st, created, err := s.Submit(req)
	if err != nil || !created {
		t.Fatalf("submit = %v, %v", created, err)
	}
	if st.Tenant != "acme" || st.Priority != PriorityHigh {
		t.Errorf("status does not echo tenant/priority: %+v", st)
	}
	st2, created, err := s.Submit(req)
	if err != nil || created || st2.ID != st.ID {
		t.Errorf("resubmit = (%s, %v, %v), want dedup onto %s", st2.ID, created, err, st.ID)
	}
}
