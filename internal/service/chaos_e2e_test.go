package service_test

// The chaos acceptance suite (ISSUE 6): for every injected failure class
// the completed job must stream NDJSON results byte-identical to an
// uninjected run of the same cells, and no cell may be executed to
// completion twice. Failures are injected deterministically through
// internal/chaos rules, so every one of these runs replays exactly.

import (
	"context"
	"sync"
	"testing"
	"time"

	"llbp/internal/chaos"
	"llbp/internal/experiments"
	"llbp/internal/service"
)

// startChaosDaemon is startDaemon with failure-domain knobs: a chaos
// injector, fast leases (so reclaim happens on test timescales) and any
// further option tweaks.
func startChaosDaemon(t *testing.T, dir string, workers int, inj *chaos.Injector, tweak func(*service.Options)) *daemon {
	t.Helper()
	d := newDaemon(t, dir, workers, func(o *service.Options) {
		o.LeaseTTL = 300 * time.Millisecond
		o.SupervisorInterval = 50 * time.Millisecond
		o.Chaos = inj
		if tweak != nil {
			tweak(o)
		}
	})
	d.srv.Start()
	return d
}

// manualClock is a wall clock that moves only when the test advances
// it. Injected as Options.Now, it makes a lease expire exactly when the
// test says, never because the host ran slow.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func newManualClock() *manualClock { return &manualClock{t: time.Unix(1_700_000_000, 0)} }

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// waitUntil polls cond until it holds, failing the test after 30 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// counter reads one service counter from the daemon's registry.
func (d *daemon) counter(name string) uint64 {
	return d.reg.Snapshot().Counters[name]
}

// collectStream follows the job to its done event, failing on any cell
// error, and returns the per-key cell values plus how many cell events
// arrived (the double-emission check: must equal the cell count).
func collectStream(t *testing.T, ctx context.Context, d *daemon, id string) (map[string][]byte, int) {
	t.Helper()
	got := make(map[string][]byte)
	cellEvents := 0
	var final *service.StreamEvent
	err := d.cl.Stream(ctx, id, true, func(ev service.StreamEvent) error {
		switch ev.Type {
		case "cell":
			cellEvents++
			if ev.Error != "" {
				t.Errorf("cell %s failed under chaos: %s", ev.Key, ev.Error)
			}
			got[ev.Key] = append([]byte(nil), ev.Value...)
		case "done":
			final = &ev
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if final == nil || final.State != service.StateDone {
		t.Fatalf("final event = %+v, want done", final)
	}
	return got, cellEvents
}

// assertByteIdentical compares every streamed cell value against the
// clean local reference — the acceptance criterion.
func assertByteIdentical(t *testing.T, cells []experiments.CellSpec, got map[string][]byte, ref map[string][]byte) {
	t.Helper()
	for _, cs := range cells {
		key := cs.Key()
		if string(got[key]) != string(ref[key]) {
			t.Errorf("cell %s: bytes under chaos differ from the clean run\n chaos: %s\n clean: %s",
				key, got[key], ref[key])
		}
	}
}

// TestChaosWorkerPanicRecovers kills the worker (injected panic) at its
// first cell pickup: the panic is contained, the abandoned lease is
// reclaimed, and the re-dispatched job completes with results
// byte-identical to a clean run — no cell evented twice. Lease time is
// the test's: the clock moves once, after the panic, so only the
// abandoned lease can expire however slowly the re-dispatch runs.
func TestChaosWorkerPanicRecovers(t *testing.T) {
	cells := e2eCells()
	ref := localReference(t, cells)
	inj := chaos.New(chaos.Rule{Hook: chaos.WorkerPanic, At: 1})
	clock := newManualClock()
	d := startChaosDaemon(t, t.TempDir(), 1, inj, func(o *service.Options) { o.Now = clock.Now })
	defer d.stop(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := d.cl.Submit(ctx, service.JobRequest{Schema: service.JobSchema, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the worker panic", func() bool { return d.counter("service_worker_panics") == 1 })
	clock.Advance(time.Minute) // past the 300 ms TTL, once
	got, events := collectStream(t, ctx, d, st.ID)
	assertByteIdentical(t, cells, got, ref)
	if events != len(cells) {
		t.Errorf("%d cell events for %d cells — chaos double-emitted", events, len(cells))
	}
	if got := d.counter("service_worker_panics"); got != 1 {
		t.Errorf("service_worker_panics = %d, want 1", got)
	}
	if got := d.counter("service_leases_reclaimed"); got != 1 {
		t.Errorf("service_leases_reclaimed = %d, want 1", got)
	}
}

// TestChaosWorkerStallReclaimed wedges the worker (injected stall) at
// cell pickup: it holds the lease without progress until the supervisor
// revokes it, then the re-dispatch completes byte-identically. As in
// the panic test, the clock moves once, after the stall.
func TestChaosWorkerStallReclaimed(t *testing.T) {
	cells := e2eCells()
	ref := localReference(t, cells)
	inj := chaos.New(chaos.Rule{Hook: chaos.WorkerStall, At: 1})
	clock := newManualClock()
	d := startChaosDaemon(t, t.TempDir(), 1, inj, func(o *service.Options) { o.Now = clock.Now })
	defer d.stop(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := d.cl.Submit(ctx, service.JobRequest{Schema: service.JobSchema, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, "the worker stall", func() bool { return inj.Count(chaos.WorkerStall) >= 1 })
	clock.Advance(time.Minute) // past the 300 ms TTL, once
	got, events := collectStream(t, ctx, d, st.ID)
	assertByteIdentical(t, cells, got, ref)
	if events != len(cells) {
		t.Errorf("%d cell events for %d cells — chaos double-emitted", events, len(cells))
	}
	if got := d.counter("service_leases_reclaimed"); got != 1 {
		t.Errorf("service_leases_reclaimed = %d, want 1", got)
	}
}

// TestChaosStreamDropClientResume severs the results stream under the
// client mid-replay: the client must reconnect with ?from=<last seq> and
// deliver every persisted event exactly once, byte-identical to the
// clean run.
func TestChaosStreamDropClientResume(t *testing.T) {
	cells := e2eCells()
	ref := localReference(t, cells)
	// Rule fires on the 2nd stream write: the finished job's replay is
	// cut after one cell event, mid-stream.
	inj := chaos.New(chaos.Rule{Hook: chaos.StreamDrop, At: 2})
	d := startChaosDaemon(t, t.TempDir(), 1, inj, nil)
	defer d.stop(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := d.cl.Submit(ctx, service.JobRequest{Schema: service.JobSchema, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	// Let the job finish without touching the stream (status polls don't
	// consult the stream.drop hook), so the drop lands deterministically
	// on the replay below.
	deadline := time.Now().Add(55 * time.Second)
	for {
		jst, err := d.cl.Status(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jst.State.Terminal() {
			if jst.State != service.StateDone {
				t.Fatalf("job finished %s", jst.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		time.Sleep(20 * time.Millisecond)
	}

	got := make(map[string][]byte)
	seen := make(map[uint64]int)
	err = d.cl.Stream(ctx, st.ID, false, func(ev service.StreamEvent) error {
		if ev.Seq > 0 {
			seen[ev.Seq]++
		}
		if ev.Type == "cell" {
			got[ev.Key] = append([]byte(nil), ev.Value...)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream with drop+resume: %v", err)
	}
	assertByteIdentical(t, cells, got, ref)
	// Exactly-once delivery across the reconnect: seqs 1..N each once.
	for seq := uint64(1); seq <= uint64(len(cells)+1); seq++ {
		if seen[seq] != 1 {
			t.Errorf("seq %d delivered %d times across resume, want exactly once", seq, seen[seq])
		}
	}
	if got := d.counter("service_streams_chaos_dropped"); got != 1 {
		t.Errorf("service_streams_chaos_dropped = %d, want 1", got)
	}
}

// TestChaosJournalTearRestart tears a job-log write mid-record (the
// process-killed-between-write-and-fsync footprint), then restarts the
// daemon on the same files: the torn tail must be repaired, the job
// resumed, and every cell restored from the cell journal — executed
// once, byte-identical.
func TestChaosJournalTearRestart(t *testing.T) {
	cells := e2eCells()
	ref := localReference(t, cells)
	dir := t.TempDir()
	// Job-log writes for one fresh job: 1 = submit, 2 = running, 3 = the
	// terminal record. Tearing the 3rd leaves the job non-terminal on
	// disk while it finished in memory.
	inj := chaos.New(chaos.Rule{Hook: chaos.JournalTear, At: 3})
	d1 := startChaosDaemon(t, dir, 1, inj, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	st, err := d1.cl.Submit(ctx, service.JobRequest{Schema: service.JobSchema, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	got1, _ := collectStream(t, ctx, d1, st.ID)
	assertByteIdentical(t, cells, got1, ref)
	// SIGKILL-style stop: no drain, no clean journal close.
	d1.srv.Kill()
	d1.hs.Close()
	// The worker writes the terminal record after the job turns terminal,
	// so the stream's done event can overtake that write; Kill returns
	// only once the worker has exited, so the write has happened by now.
	if n := inj.Count(chaos.JournalTear); n < 3 {
		t.Fatalf("job log saw %d writes, tear rule never fired", n)
	}

	// Restart chaos-free on the same files. The torn terminal record is
	// dropped by the journal's tail repair, so the job comes back queued
	// and re-runs — against a cell journal that already holds every cell.
	// The recovered state is read before the workers start.
	d2 := newDaemon(t, dir, 1, nil)
	if jst, ok := d2.srv.Job(st.ID); !ok || jst.State != service.StateQueued {
		t.Fatalf("after torn terminal record, resumed job = %+v, %v; want queued", jst, ok)
	}
	d2.srv.Start()
	defer d2.stop(t)
	got2, events := collectStream(t, ctx, d2, st.ID)
	assertByteIdentical(t, cells, got2, ref)
	if events != len(cells) {
		t.Errorf("%d cell events after restart for %d cells", events, len(cells))
	}
	// Exactly-once: every cell served from the journal, none recomputed.
	snap := d2.reg.Snapshot()
	if hits := snap.Counters["harness_journal_hits"]; hits != uint64(len(cells)) {
		t.Errorf("harness_journal_hits after restart = %d, want %d (cells must not re-execute)", hits, len(cells))
	}
}

// TestChaosHeartbeatDelay suppresses the lease heartbeats carried by
// progress ticks while a long cell simulates, pushing the lease past its
// TTL mid-cell: the supervisor reclaims it, the in-flight simulation is
// cancelled before emitting anything, and a later dispatch — once the
// suppression budget is exhausted and renewals flow again — finishes the
// job byte-identically.
func TestChaosHeartbeatDelay(t *testing.T) {
	// One large cell (hundreds of milliseconds, i.e. several TTLs) so
	// progress ticks — and thus suppressed heartbeats — happen while it
	// runs.
	cells := []experiments.CellSpec{
		{Workload: "Tomcat", Predictor: "llbp", Warmup: 2_000, Measure: 600_000},
	}
	ref := localReference(t, cells)
	// A finite suppression budget: the first dispatches age out and are
	// reclaimed; once the budget is spent, progress ticks renew the lease
	// again and the job converges. (An infinite budget would model a
	// permanently partitioned worker — every dispatch reclaimed forever.)
	var rules []chaos.Rule
	for i := uint64(1); i <= 120; i++ {
		rules = append(rules, chaos.Rule{Hook: chaos.HeartbeatSkip, At: i})
	}
	inj := chaos.New(rules...)
	clock := newManualClock()
	d := startChaosDaemon(t, t.TempDir(), 1, inj, func(o *service.Options) {
		o.LeaseTTL = 200 * time.Millisecond
		o.SupervisorInterval = 40 * time.Millisecond
		o.Now = clock.Now
	})
	defer d.stop(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Lease time follows simulation progress, not the host's speed: each
	// poll that sees new progress ticks (every tick consults the
	// heartbeat.skip site) moves the clock 50 ms. Four suppressed ticks
	// then age a lease past its 200 ms TTL, and once the budget is spent
	// every renewal lands before the clock can pass the TTL.
	ticking := make(chan struct{})
	defer close(ticking)
	go func() {
		var seen uint64
		for {
			select {
			case <-ticking:
				return
			case <-time.After(time.Millisecond):
			}
			if n := inj.Count(chaos.HeartbeatSkip); n > seen {
				seen = n
				clock.Advance(50 * time.Millisecond)
			}
		}
	}()

	st, err := d.cl.Submit(ctx, service.JobRequest{Schema: service.JobSchema, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	got, events := collectStream(t, ctx, d, st.ID)
	assertByteIdentical(t, cells, got, ref)
	if events != len(cells) {
		t.Errorf("%d cell events for %d cells", events, len(cells))
	}
	if got := d.counter("service_leases_reclaimed"); got == 0 {
		t.Error("suppressed heartbeats never aged the lease into a reclaim")
	}
}
