package session

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"llbp/internal/chaos"
	"llbp/internal/experiments"
	"llbp/internal/telemetry"
	"llbp/internal/workload"
)

// pushFrames posts a hello plus the given frames to the push endpoint
// and returns the trailing summary.
func pushFrames(t *testing.T, ts *httptest.Server, id string, frames []Frame) (PushSummary, int) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(Frame{Type: FrameHello, Schema: Schema}); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+"/v1/session/"+id+"/branches", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum PushSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	return sum, resp.StatusCode
}

// readStream fetches the output stream and returns its raw NDJSON body
// plus the parsed frames.
func readStream(t *testing.T, ts *httptest.Server, id, query string) (string, []OutFrame) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/session/" + id + "/stream" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw strings.Builder
	var frames []OutFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), MaxFrameBytes)
	for sc.Scan() {
		raw.Write(sc.Bytes())
		raw.WriteByte('\n')
		var of OutFrame
		if err := json.Unmarshal(sc.Bytes(), &of); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		frames = append(frames, of)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return raw.String(), frames
}

// TestHTTPSessionEndToEnd drives the full wire surface: open, push with
// hello/batches/checkpoint/bye, stream replay, resume-from-cursor and
// list/status/close.
func TestHTTPSessionEndToEnd(t *testing.T) {
	m := testManager(t, "")
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	// Open.
	body, _ := json.Marshal(Request{Schema: Schema, Predictor: "64k", Workload: "Tomcat", Warmup: 2_000})
	resp, err := http.Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || st.ID == "" {
		t.Fatalf("open: %d %+v", resp.StatusCode, st)
	}

	// Push 4 batches, an explicit checkpoint, then bye (closes).
	batches := testStream(t, 2_000, 4, 150)
	frames := append(append([]Frame{}, batches[:3]...), Frame{Type: FrameCheckpoint})
	frames = append(frames, batches[3], Frame{Type: FrameBye})
	sum, code := pushFrames(t, ts, st.ID, frames)
	if code != http.StatusOK || !sum.Closed || sum.Applied != 4 || sum.LastSeq != 4 {
		t.Fatalf("push: %d %+v", code, sum)
	}

	// Stream replay: contiguous seqs, predictions for each batch, the
	// explicit checkpoint, a done line.
	raw, out := readStream(t, ts, st.ID, "")
	var preds, ckpts, dones int
	for i, of := range out {
		if of.Seq != uint64(i+1) {
			t.Fatalf("frame %d seq %d", i, of.Seq)
		}
		switch of.Type {
		case FramePredictions:
			preds++
		case FrameCkptAck:
			ckpts++
		case FrameDone:
			dones++
		}
	}
	if preds != 4 || ckpts < 1 || dones != 1 {
		t.Fatalf("stream shape: %d predictions, %d checkpoints, %d done\n%s", preds, ckpts, dones, raw)
	}

	// Resume from a cursor: frames after seq 2 only, byte-suffix of the
	// full stream.
	rawTail, tail := readStream(t, ts, st.ID, "?from=2")
	if len(tail) != len(out)-2 {
		t.Fatalf("resume from=2 returned %d frames, want %d", len(tail), len(out)-2)
	}
	if !strings.HasSuffix(raw, rawTail) {
		t.Fatal("resumed stream is not a byte-suffix of the full stream")
	}

	// Status + list agree.
	resp, err = http.Get(ts.URL + "/v1/session/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != StateClosed || got.LastSeq != 4 {
		t.Fatalf("status: %+v", got)
	}
	resp, err = http.Get(ts.URL + "/v1/session")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list: %+v", list)
	}

	// A push against the closed session is rejected.
	_, code = pushFrames(t, ts, st.ID, batches[:1])
	if code != http.StatusConflict {
		t.Fatalf("push to closed session: %d", code)
	}
}

// TestHTTPPushConflict: a second concurrent pusher is rejected while the
// first holds the lease; a drain frame hands over cleanly.
func TestHTTPPushConflict(t *testing.T) {
	m := testManager(t, "")
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	st, err := m.Open(t.Context(), Request{Schema: Schema, Predictor: "64k"})
	if err != nil {
		t.Fatal(err)
	}
	batches := testStream(t, 0, 4, 100)

	// First pusher drains after two batches.
	sum, code := pushFrames(t, ts, st.ID, append(append([]Frame{}, batches[:2]...), Frame{Type: FrameDrain}))
	if code != http.StatusOK || !sum.Drained || sum.LastSeq != 2 {
		t.Fatalf("drain push: %d %+v", code, sum)
	}
	// Second pusher continues from the cursor with zero dup/skip.
	sum, code = pushFrames(t, ts, st.ID, batches[2:])
	if code != http.StatusOK || sum.Applied != 2 || sum.LastSeq != 4 {
		t.Fatalf("migrated push: %d %+v", code, sum)
	}
	if got, _ := m.Get(t.Context(), st.ID); got.Epoch != 2 || got.Branches != 400 {
		t.Fatalf("after migration: %+v", got)
	}
}

// TestHTTPBadFrames: protocol violations are rejected with the session
// cursor intact, so a correct client can resume.
func TestHTTPBadFrames(t *testing.T) {
	m := testManager(t, "")
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	st, err := m.Open(t.Context(), Request{Schema: Schema, Predictor: "64k"})
	if err != nil {
		t.Fatal(err)
	}
	batches := testStream(t, 0, 2, 100)

	for _, tc := range []struct {
		name string
		body string
	}{
		{"no hello", `{"type":"branch-batch","seq":1,"branches":[{"pc":4}]}` + "\n"},
		{"bad schema", `{"type":"hello","schema":"llbp-session/9"}` + "\n"},
		{"empty batch", `{"type":"hello","schema":"llbp-session/1"}` + "\n" + `{"type":"branch-batch","seq":1}` + "\n"},
		{"unknown type", `{"type":"hello","schema":"llbp-session/1"}` + "\n" + `{"type":"warp"}` + "\n"},
	} {
		resp, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/branches", "application/x-ndjson",
			strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("%s: accepted", tc.name)
		}
	}
	// The session is still usable.
	sum, code := pushFrames(t, ts, st.ID, batches)
	if code != http.StatusOK || sum.Applied != 2 {
		t.Fatalf("push after bad frames: %d %+v", code, sum)
	}
	// Seq-gap push: rejected mid-stream, cursor intact.
	gap := batches[1]
	gap.Seq = 9
	if _, code = pushFrames(t, ts, st.ID, []Frame{gap}); code != http.StatusConflict {
		t.Fatalf("gap push: %d", code)
	}
	if got, _ := m.Get(t.Context(), st.ID); got.LastSeq != 2 {
		t.Fatalf("cursor moved on rejected gap: %+v", got)
	}
}

// TestHTTPOversizedBatch: a batch past MaxBatchBranches is a protocol
// error, not an allocation.
func TestHTTPOversizedBatch(t *testing.T) {
	m := testManager(t, "")
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	st, err := m.Open(t.Context(), Request{Schema: Schema, Predictor: "64k"})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `{"type":"hello","schema":%q}`+"\n", Schema)
	sb.WriteString(`{"type":"branch-batch","seq":1,"branches":[`)
	for i := 0; i <= MaxBatchBranches; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"pc":4}`)
	}
	sb.WriteString("]}\n")
	resp, err := http.Post(ts.URL+"/v1/session/"+st.ID+"/branches", "application/x-ndjson",
		strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("oversized batch accepted")
	}
}

// TestStreamCounters: the verdict stream counts a ?from=N resume with
// its gap (the persisted frames the reader was behind) and a chaos drop,
// as the job results stream does.
func TestStreamCounters(t *testing.T) {
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	m, err := New(Options{
		Forker:   experiments.NewHarness(experiments.Config{Warmup: 5_000, Measure: 10_000, Workloads: []*workload.Source{wl}}),
		LeaseTTL: time.Minute,
		Registry: reg,
		// The 5th stream write is severed: the 2nd line of the full read.
		Chaos: chaos.New(chaos.Rule{Hook: chaos.StreamDrop, At: 5}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	st, err := m.Open(t.Context(), Request{Schema: Schema, Predictor: "64k"})
	if err != nil {
		t.Fatal(err)
	}
	if sum, code := pushFrames(t, ts, st.ID, testStream(t, 0, 5, 100)); code != http.StatusOK || sum.Applied != 5 {
		t.Fatalf("push: %d %+v", code, sum)
	}
	got, err := m.Get(t.Context(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	const from = 2
	frames := int(got.Frames) // M persisted frames
	if frames != 5 {
		t.Fatalf("%d persisted frames, want 5 (one per batch)", frames)
	}

	// Resume after frame 2 of 5: one resume, a gap of 3, 3 writes.
	if _, tail := readStream(t, ts, st.ID, fmt.Sprintf("?from=%d", from)); len(tail) != frames-from {
		t.Fatalf("resume returned %d frames, want %d", len(tail), frames-from)
	}
	snap := reg.Snapshot()
	if n := snap.Counters["session_stream_resumes"]; n != 1 {
		t.Errorf("session_stream_resumes = %d, want 1", n)
	}
	if h := snap.Histograms["session_stream_resume_gap_frames"]; h.Count != 1 || h.Sum != float64(frames-from) {
		t.Errorf("resume gap histogram: count %d sum %v, want 1 observation of %d", h.Count, h.Sum, frames-from)
	}

	// A full read: its 2nd write (the 5th overall) is severed. The body
	// is not checked: the abort may come before any byte reached the
	// client, which then retries the GET on a fresh connection.
	resp, err := http.Get(ts.URL + "/v1/session/" + st.ID + "/stream")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	snap = reg.Snapshot()
	if n := snap.Counters["session_streams_chaos_dropped"]; n != 1 {
		t.Errorf("session_streams_chaos_dropped = %d, want 1", n)
	}
	if n := snap.Counters["session_stream_resumes"]; n != 1 {
		t.Errorf("a read without from= counted as a resume (%d)", n)
	}
}

// TestStreamUnderFakeClock: the injected clock times leases only, so a
// manager on a frozen clock still serves its verdict stream within the
// default write timeout.
func TestStreamUnderFakeClock(t *testing.T) {
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(Options{
		Forker:   experiments.NewHarness(experiments.Config{Warmup: 5_000, Measure: 10_000, Workloads: []*workload.Source{wl}}),
		LeaseTTL: time.Minute,
		Now:      func() time.Time { return time.Unix(1000, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	st, err := m.Open(t.Context(), Request{Schema: Schema, Predictor: "64k"})
	if err != nil {
		t.Fatal(err)
	}
	if sum, code := pushFrames(t, ts, st.ID, testStream(t, 0, 3, 100)); code != http.StatusOK || sum.Applied != 3 {
		t.Fatalf("push: %d %+v", code, sum)
	}
	if _, frames := readStream(t, ts, st.ID, ""); len(frames) != 3 {
		t.Fatalf("stream returned %d frames, want 3", len(frames))
	}
}
