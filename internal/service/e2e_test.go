package service_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"llbp/internal/experiments"
	"llbp/internal/harness"
	"llbp/internal/service"
	"llbp/internal/service/client"
	"llbp/internal/telemetry"
)

// daemon is an in-process llbpd: a real experiments.Harness wired into a
// service.Server behind a real HTTP listener, mirroring cmd/llbpd.
type daemon struct {
	srv   *service.Server
	hs    *httptest.Server
	cl    *client.Client
	reg   *telemetry.Registry
	cellJ *harness.Journal
}

// newDaemon builds a daemon over the journals in dir and serves its HTTP
// API, but does not start its workers: what service.New recovered from
// the journals can be inspected before any worker claims a job. tweak,
// when non-nil, adjusts the server options.
func newDaemon(t *testing.T, dir string, workers int, tweak func(*service.Options)) *daemon {
	t.Helper()
	reg := telemetry.NewRegistry()
	cellJ, err := harness.OpenJournal(filepath.Join(dir, "llbpd.journal"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.Config{
		Warmup: 1, Measure: 1, // per-cell budgets come from the CellSpec
		Parallelism: workers,
		Journal:     cellJ,
		Telemetry:   reg,
	}
	var srv *service.Server
	cfg.CellProgress = func(key string, processed, total uint64) {
		if srv != nil {
			srv.CellProgress(key, processed, total)
		}
	}
	h := experiments.NewHarness(cfg)
	opt := service.Options{
		Runner:     h,
		Workers:    workers,
		QueueDepth: 8,
		Registry:   reg,
		JobLogPath: filepath.Join(dir, "llbpd.journal.jobs"),
	}
	if tweak != nil {
		tweak(&opt)
	}
	srv, err = service.New(opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	return &daemon{srv: srv, hs: hs, cl: client.New(hs.URL), reg: reg, cellJ: cellJ}
}

// startDaemon is newDaemon with its workers started.
func startDaemon(t *testing.T, dir string, workers int) *daemon {
	t.Helper()
	d := newDaemon(t, dir, workers, nil)
	d.srv.Start()
	return d
}

func (d *daemon) stop(t *testing.T) {
	t.Helper()
	d.hs.Close()
	if err := d.srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// e2eCells are small real-simulation cells: two predictors over one
// workload, budgets sized for test speed.
func e2eCells() []experiments.CellSpec {
	return []experiments.CellSpec{
		{Workload: "Tomcat", Predictor: "64k", Warmup: 2_000, Measure: 20_000},
		{Workload: "Tomcat", Predictor: "llbp", Warmup: 2_000, Measure: 20_000},
	}
}

// localReference runs the same cells on a standalone harness — the exact
// code path `cmd/experiments` uses without -server — and returns each
// cell's canonical JSON encoding.
func localReference(t *testing.T, cells []experiments.CellSpec) map[string][]byte {
	t.Helper()
	h := experiments.NewHarness(experiments.Config{Warmup: 1, Measure: 1})
	ref := make(map[string][]byte, len(cells))
	for _, cs := range cells {
		out, err := h.RunCell(context.Background(), cs)
		if err != nil {
			t.Fatalf("local %s: %v", cs.Key(), err)
		}
		raw, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		ref[cs.Key()] = raw
	}
	return ref
}

// TestE2EStreamMatchesLocal is the acceptance-criterion test: a job
// submitted to the daemon streams per-cell JSON-lines whose values are
// byte-identical to the same cells simulated locally, and the client's
// RunCell (the `cmd/experiments -server` backend) returns outputs that
// re-encode to those same bytes.
func TestE2EStreamMatchesLocal(t *testing.T) {
	cells := e2eCells()
	ref := localReference(t, cells)

	d := startDaemon(t, t.TempDir(), 2)
	defer d.stop(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	st, err := d.cl.Submit(ctx, service.JobRequest{Schema: service.JobSchema, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}
	streamed := make(map[string][]byte)
	var final *service.StreamEvent
	err = d.cl.Stream(ctx, st.ID, true, func(ev service.StreamEvent) error {
		switch ev.Type {
		case "cell":
			if ev.Error != "" {
				t.Errorf("cell %s failed: %s", ev.Key, ev.Error)
			}
			streamed[ev.Key] = append([]byte(nil), ev.Value...)
		case "done":
			final = &ev
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.State != service.StateDone || final.Completed != len(cells) {
		t.Fatalf("final event = %+v", final)
	}
	for _, cs := range cells {
		key := cs.Key()
		if string(streamed[key]) != string(ref[key]) {
			t.Errorf("cell %s: streamed bytes differ from local run\n stream: %s\n local:  %s",
				key, streamed[key], ref[key])
		}
	}

	// The served backend of cmd/experiments: client.RunCell against the
	// daemon must round-trip to the same bytes (dedupes onto the journal).
	for _, cs := range cells {
		out, err := d.cl.RunCell(ctx, cs)
		if err != nil {
			t.Fatalf("client RunCell %s: %v", cs.Key(), err)
		}
		raw, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw) != string(ref[cs.Key()]) {
			t.Errorf("cell %s: RunCell bytes differ from local run", cs.Key())
		}
	}
}

// TestE2EKillResume is the crash-recovery acceptance test: a daemon
// killed mid-sweep resumes from its journals on restart and completes
// the remaining cells exactly once — journaled cells are restored (not
// recomputed) and the final stream carries every cell with bytes
// identical to an uninterrupted local run.
func TestE2EKillResume(t *testing.T) {
	dir := t.TempDir()
	// Three cells on one worker: the first is quick, the second large
	// enough that the kill lands while it is in flight.
	cells := []experiments.CellSpec{
		{Workload: "Tomcat", Predictor: "64k", Warmup: 1_000, Measure: 10_000},
		{Workload: "Tomcat", Predictor: "64k", Warmup: 2_000, Measure: 600_000},
		{Workload: "Tomcat", Predictor: "llbp", Warmup: 2_000, Measure: 200_000},
	}
	ref := localReference(t, cells)

	d1 := startDaemon(t, dir, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	st, err := d1.cl.Submit(ctx, service.JobRequest{Schema: service.JobSchema, Cells: cells})
	if err != nil {
		t.Fatal(err)
	}

	// Follow the stream until the first cell completes, then kill the
	// daemon: no drain, no journal close — the SIGKILL case. The stream
	// gets its own context: after Kill the job is non-terminal, so a
	// follower would otherwise hold its connection open forever.
	firstCell := make(chan struct{})
	streamCtx, stopStream := context.WithCancel(ctx)
	defer stopStream()
	go d1.cl.Stream(streamCtx, st.ID, true, func(ev service.StreamEvent) error {
		if ev.Type == "cell" {
			select {
			case firstCell <- struct{}{}:
			default:
			}
		}
		return nil
	})
	select {
	case <-firstCell:
	case <-ctx.Done():
		t.Fatal("no cell completed before the deadline")
	}
	d1.srv.Kill()
	stopStream()
	d1.hs.Close()

	if jst, ok := d1.srv.Job(st.ID); !ok || jst.State.Terminal() {
		t.Fatalf("killed job state = %+v, %v; want non-terminal", jst, ok)
	}
	journaled := d1.cellJ.Len()
	if journaled == 0 || journaled >= len(cells) {
		t.Fatalf("kill landed outside the sweep: %d of %d cells journaled", journaled, len(cells))
	}

	// Restart: a fresh harness + server over the same journal files. The
	// job must come back queued, restore the journaled cells without
	// recomputing them, and finish the rest. The recovered state is read
	// before the workers start: once they run, the job may already be
	// claimed.
	d2 := newDaemon(t, dir, 1, nil)
	if jst, ok := d2.srv.Job(st.ID); !ok || jst.State != service.StateQueued {
		t.Fatalf("resumed job state = %+v, %v; want queued", jst, ok)
	}
	d2.srv.Start()
	streamed := make(map[string][]byte)
	var final *service.StreamEvent
	err = d2.cl.Stream(ctx, st.ID, true, func(ev service.StreamEvent) error {
		switch ev.Type {
		case "cell":
			if ev.Error != "" {
				t.Errorf("resumed cell %s failed: %s", ev.Key, ev.Error)
			}
			streamed[ev.Key] = append([]byte(nil), ev.Value...)
		case "done":
			final = &ev
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || final.State != service.StateDone || final.Completed != len(cells) {
		t.Fatalf("resumed final event = %+v", final)
	}

	// Exactly-once: the restarted harness served the journaled cells from
	// the journal (hits) and simulated only the remainder.
	snap := d2.reg.Snapshot()
	hits := snap.Counters["harness_journal_hits"]
	run := snap.Counters["harness_cells_run"]
	if hits != uint64(journaled) {
		t.Errorf("journal hits after resume = %d, want %d", hits, journaled)
	}
	if run != uint64(len(cells)) {
		t.Errorf("cells dispatched after resume = %d, want %d", run, len(cells))
	}
	// And every cell — restored or resimulated — matches the
	// uninterrupted local reference byte for byte.
	for _, cs := range cells {
		key := cs.Key()
		if string(streamed[key]) != string(ref[key]) {
			t.Errorf("cell %s: resumed bytes differ from local run", key)
		}
	}
	d2.stop(t)
}
