package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"llbp/internal/experiments"
	"llbp/internal/sim"
	"llbp/internal/telemetry"
)

// fakeRunner is a controllable CellRunner: per-key failures, an optional
// blocking gate, and an execution count per cell key.
type fakeRunner struct {
	mu      sync.Mutex
	calls   map[string]int
	fail    map[string]error
	started chan string   // receives the key when a cell begins (if set)
	gate    chan struct{} // cells block here until closed (if set)
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{calls: map[string]int{}, fail: map[string]error{}}
}

func (f *fakeRunner) RunCell(ctx context.Context, spec experiments.CellSpec) (*experiments.RunOutput, error) {
	key := spec.Key()
	f.mu.Lock()
	f.calls[key]++
	started, gate := f.started, f.gate
	ferr := f.fail[key]
	f.mu.Unlock()
	if started != nil {
		select {
		case started <- key:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if ferr != nil {
		return nil, ferr
	}
	return &experiments.RunOutput{
		Res: &sim.Result{Workload: spec.Workload, Predictor: spec.Predictor, MPKI: 1.25},
	}, nil
}

func (f *fakeRunner) count(key string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[key]
}

// tinyCells builds n distinct valid cells.
func tinyCells(n int) []experiments.CellSpec {
	out := make([]experiments.CellSpec, n)
	for i := range out {
		out[i] = experiments.CellSpec{
			Workload: "Tomcat", Predictor: "64k",
			Warmup: 100, Measure: uint64(1000 + i), // distinct budgets → distinct cells
		}
	}
	return out
}

func request(cells []experiments.CellSpec) JobRequest {
	return JobRequest{Schema: JobSchema, Cells: cells}
}

// waitStatus polls until the job reaches want (or the deadline).
func waitStatus(t *testing.T, s *Server, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if ok && st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.Job(id)
	t.Fatalf("job %s never reached %s (last: %+v)", id, want, st)
	return JobStatus{}
}

// TestRequestValidation: schema, emptiness, duplicates and bad cells are
// rejected before admission.
func TestRequestValidation(t *testing.T) {
	good := request(tinyCells(2))
	if err := good.Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	cases := []JobRequest{
		{Schema: "llbp-job/0", Cells: tinyCells(1)},
		{Schema: JobSchema},
		{Schema: JobSchema, Cells: append(tinyCells(1), tinyCells(1)...)},
		{Schema: JobSchema, Cells: []experiments.CellSpec{{Workload: "NoSuch", Predictor: "64k", Measure: 10}}},
	}
	for i, req := range cases {
		if err := req.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
}

// TestJobIDDeterministic: the ID is a pure function of the cells.
func TestJobIDDeterministic(t *testing.T) {
	a, b := JobID(tinyCells(3)), JobID(tinyCells(3))
	if a != b {
		t.Errorf("same cells, different IDs: %s vs %s", a, b)
	}
	if c := JobID(tinyCells(2)); c == a {
		t.Errorf("different cells, same ID %s", c)
	}
	if !strings.HasPrefix(a, "job-") {
		t.Errorf("ID %q lacks job- prefix", a)
	}
}

// TestHappyPath: submit → stream → complete over real HTTP; the stream
// replays one "cell" event per cell, in index order, then "done".
func TestHappyPath(t *testing.T) {
	fr := newFakeRunner()
	s, err := New(Options{Runner: fr, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Submit before the workers start, so the initial status is read
	// before any worker can claim the job.
	cells := tinyCells(3)
	st, created, err := s.Submit(request(cells))
	if err != nil || !created {
		t.Fatalf("Submit = %+v, %v, %v", st, created, err)
	}
	if st.State != StateQueued || st.Cells != 3 {
		t.Errorf("initial status = %+v", st)
	}
	s.Start()
	waitStatus(t, s, st.ID, StateDone)

	// Resubmitting the identical job dedupes onto the existing one.
	st2, created2, err := s.Submit(request(cells))
	if err != nil || created2 || st2.ID != st.ID {
		t.Errorf("resubmit = %+v, created=%v, err=%v; want dedup onto %s", st2, created2, err, st.ID)
	}

	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var events []StreamEvent
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var ev StreamEvent
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if len(events) != 4 {
		t.Fatalf("stream = %d events, want 3 cells + done: %+v", len(events), events)
	}
	for i := 0; i < 3; i++ {
		ev := events[i]
		if ev.Type != "cell" || ev.Index != i || ev.Key != cells[i].Key() || ev.Error != "" {
			t.Errorf("event %d = %+v", i, ev)
		}
		var out experiments.RunOutput
		if err := json.Unmarshal(ev.Value, &out); err != nil || out.Res.MPKI != 1.25 {
			t.Errorf("event %d value bad: %v %+v", i, err, out)
		}
	}
	if fin := events[3]; fin.Type != "done" || fin.State != StateDone || fin.Completed != 3 || fin.Failed != 0 {
		t.Errorf("done event = %+v", fin)
	}
}

// TestResultsStreamUnderFakeClock: the injected clock times leases only,
// so a server on a frozen clock with a write timeout still streams a
// finished job's results.
func TestResultsStreamUnderFakeClock(t *testing.T) {
	s, err := New(Options{
		Runner:             newFakeRunner(),
		StreamWriteTimeout: time.Minute,
		Now:                func() time.Time { return time.Unix(1000, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	st, _, err := s.Submit(request(tinyCells(2)))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, st.ID, StateDone)
	resp, err := http.Get(hs.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(body), "\n"); n != 3 {
		t.Fatalf("stream = %d lines, want 2 cells + done: %q", n, body)
	}
}

// TestFailedCellsFailSoft: a failing cell produces an error event and a
// "failed" terminal state; the other cells still complete.
func TestFailedCellsFailSoft(t *testing.T) {
	fr := newFakeRunner()
	cells := tinyCells(3)
	fr.fail[cells[1].Key()] = fmt.Errorf("synthetic cell failure")
	s, err := New(Options{Runner: fr})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Drain(context.Background())
	st, _, err := s.Submit(request(cells))
	if err != nil {
		t.Fatal(err)
	}
	final := waitStatus(t, s, st.ID, StateFailed)
	if final.Completed != 2 || final.Failed != 1 {
		t.Errorf("final = %+v, want 2 ok / 1 failed", final)
	}
}

// TestQueueFull429: with a single blocked worker and queue depth 1, the
// third submission is rejected over HTTP with 429 + Retry-After, and
// admission recovers once the gate opens.
func TestQueueFull429(t *testing.T) {
	fr := newFakeRunner()
	fr.started = make(chan string, 8)
	fr.gate = make(chan struct{})
	reg := telemetry.NewRegistry()
	s, err := New(Options{Runner: fr, Workers: 1, QueueDepth: 1, RetryAfterSeconds: 7, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	submit := func(n int) *http.Response {
		t.Helper()
		raw, _ := json.Marshal(request(tinyCells(n)))
		resp, err := http.Post(hs.URL+"/v1/jobs", "application/json", strings.NewReader(string(raw)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	r1 := submit(1) // dequeued by the worker, blocks on the gate
	r1.Body.Close()
	<-fr.started
	r2 := submit(2) // sits in the queue
	r2.Body.Close()
	r3 := submit(3) // no room
	defer r3.Body.Close()
	if r1.StatusCode != http.StatusAccepted || r2.StatusCode != http.StatusAccepted {
		t.Fatalf("admitted jobs got %d, %d; want 202", r1.StatusCode, r2.StatusCode)
	}
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow job got %d, want 429", r3.StatusCode)
	}
	if ra := r3.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want 7", ra)
	}
	if got := reg.Snapshot().Counters["service_jobs_rejected"]; got != 1 {
		t.Errorf("service_jobs_rejected = %d, want 1", got)
	}

	close(fr.gate) // everything drains
	for _, n := range []int{1, 2} {
		waitStatus(t, s, JobID(tinyCells(n)), StateDone)
	}
	// The rejected job can resubmit now.
	r4 := submit(3)
	r4.Body.Close()
	if r4.StatusCode != http.StatusAccepted {
		t.Errorf("post-drain resubmit got %d, want 202", r4.StatusCode)
	}
	waitStatus(t, s, JobID(tinyCells(3)), StateDone)
	s.Drain(context.Background())
}

// TestCancel: cancelling a running job aborts its in-flight cell via
// context and finalizes as cancelled; cancelling a queued job finalizes
// it immediately; unknown IDs 404 over HTTP.
func TestCancel(t *testing.T) {
	fr := newFakeRunner()
	fr.started = make(chan string, 8)
	fr.gate = make(chan struct{}) // never closed: cells end only by cancellation
	s, err := New(Options{Runner: fr, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	running, _, err := s.Submit(request(tinyCells(1)))
	if err != nil {
		t.Fatal(err)
	}
	<-fr.started
	queued, _, err := s.Submit(request(tinyCells(2)))
	if err != nil {
		t.Fatal(err)
	}

	// Cancel the queued job first: it must finalize without a worker.
	if st, ok := s.Cancel(queued.ID); !ok || st.State != StateCancelled {
		t.Errorf("queued cancel = %+v, %v", st, ok)
	}
	// Cancel the running job over HTTP.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/"+running.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cancel HTTP = %d", resp.StatusCode)
	}
	final := waitStatus(t, s, running.ID, StateCancelled)
	if final.Completed != 0 {
		t.Errorf("cancelled job completed %d cells, want 0", final.Completed)
	}
	if fr.count(tinyCells(1)[0].Key()) != 1 {
		t.Errorf("in-flight cell ran %d times", fr.count(tinyCells(1)[0].Key()))
	}

	req404, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/jobs/job-nope", nil)
	resp404, err := http.DefaultClient.Do(req404)
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("cancel of unknown job = %d, want 404", resp404.StatusCode)
	}
	s.Drain(context.Background())
}

// TestDrainLeavesWorkResumable: a SIGTERM-style drain finishes in-flight
// jobs when they fit the grace window, leaves queued jobs journaled, and
// a fresh server over the same job log resumes and completes them.
func TestDrainLeavesWorkResumable(t *testing.T) {
	dir := t.TempDir()
	jobLog := filepath.Join(dir, "llbpd.jobs")

	fr := newFakeRunner()
	fr.started = make(chan string, 8)
	fr.gate = make(chan struct{})
	s1, err := New(Options{Runner: fr, Workers: 1, QueueDepth: 4, JobLogPath: jobLog})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	inflight, _, err := s1.Submit(request(tinyCells(1)))
	if err != nil {
		t.Fatal(err)
	}
	<-fr.started
	queued, _, err := s1.Submit(request(tinyCells(2)))
	if err != nil {
		t.Fatal(err)
	}

	// Drain with an already-expired deadline: the in-flight job is cut
	// short (its cell aborts via context) and left non-terminal.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s1.Drain(ctx); err == nil {
		t.Error("forced drain should report the deadline error")
	}
	if _, _, err := s1.Submit(request(tinyCells(3))); err == nil {
		t.Error("draining server accepted a job")
	}

	// Restart over the same log: both unfinished jobs come back queued
	// and run to completion.
	fr2 := newFakeRunner()
	s2, err := New(Options{Runner: fr2, Workers: 2, JobLogPath: jobLog})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{inflight.ID, queued.ID} {
		if st, ok := s2.Job(id); !ok || st.State != StateQueued {
			t.Errorf("job %s after restart = %+v, %v; want queued", id, st, ok)
		}
	}
	s2.Start()
	waitStatus(t, s2, inflight.ID, StateDone)
	waitStatus(t, s2, queued.ID, StateDone)
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Third generation: terminal states survive restarts too.
	s3, err := New(Options{Runner: newFakeRunner(), JobLogPath: jobLog})
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := s3.Job(inflight.ID); !ok || st.State != StateDone || st.Completed != 1 {
		t.Errorf("terminal job after second restart = %+v, %v", st, ok)
	}
	s3.Start()
	s3.Drain(context.Background())
}

// TestMetricsAndHealthz: /metrics serves an order-checkable llbp-metrics/1
// document (monotonic seq, timestamps when clocked) with the service
// counters; /healthz flips to 503 on drain.
func TestMetricsAndHealthz(t *testing.T) {
	fr := newFakeRunner()
	reg := telemetry.NewRegistry()
	var fakeNow int64 = 1_750_000_000_000
	reg.SetClock(func() int64 { fakeNow += 13; return fakeNow })
	s, err := New(Options{Runner: fr, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	st, _, err := s.Submit(request(tinyCells(1)))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, s, st.ID, StateDone)

	scrape := func() telemetry.Snapshot {
		t.Helper()
		resp, err := http.Get(hs.URL + "/metrics.json")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var mf telemetry.MetricsFile
		raw := json.NewDecoder(resp.Body)
		if err := raw.Decode(&mf); err != nil {
			t.Fatal(err)
		}
		if mf.Schema != telemetry.MetricsSchema || len(mf.Runs) != 1 {
			t.Fatalf("metrics document = %+v", mf)
		}
		return mf.Runs[0].Metrics
	}
	m1, m2 := scrape(), scrape()
	if m1.Seq == 0 || m2.Seq <= m1.Seq {
		t.Errorf("scrape seqs not increasing: %d then %d", m1.Seq, m2.Seq)
	}
	if m1.TimeUnixMS == 0 || m2.TimeUnixMS <= m1.TimeUnixMS {
		t.Errorf("scrape timestamps not increasing: %d then %d", m1.TimeUnixMS, m2.TimeUnixMS)
	}
	if m2.Counters["service_jobs_submitted"] != 1 || m2.Counters["service_jobs_completed"] != 1 {
		t.Errorf("service counters = %v", m2.Counters)
	}

	// The Prometheus surface must parse back and carry the same counters.
	promResp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promRaw, err := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := promResp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	doc, err := telemetry.ParsePrometheus(promRaw)
	if err != nil {
		t.Fatalf("/metrics not parseable: %v\n%s", err, promRaw)
	}
	if v, ok := doc.Value("service_jobs_completed"); !ok || v != 1 {
		t.Errorf("prometheus service_jobs_completed = %v (present %v), want 1", v, ok)
	}

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d, want 200", resp.StatusCode)
	}
	s.Drain(context.Background())
	resp2, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained = %d, want 503", resp2.StatusCode)
	}
}

// TestConcurrentSubmitCancelScrape hammers submit/cancel/status/scrape
// from many goroutines — the race-detector pass over the service's
// locking (`go test -race ./internal/service/...`).
func TestConcurrentSubmitCancelScrape(t *testing.T) {
	fr := newFakeRunner()
	reg := telemetry.NewRegistry()
	s, err := New(Options{Runner: fr, Workers: 4, QueueDepth: 64, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				cells := []experiments.CellSpec{{
					Workload: "Tomcat", Predictor: "64k",
					Warmup: uint64(g + 1), Measure: uint64(1000 + i),
				}}
				st, _, err := s.Submit(request(cells))
				if err != nil {
					continue // queue-full under contention is expected
				}
				switch i % 3 {
				case 0:
					s.Cancel(st.ID)
				case 1:
					s.Job(st.ID)
				default:
					_ = reg.Snapshot()
					_ = s.Jobs()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
