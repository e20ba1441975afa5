package session

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"llbp/internal/experiments"
	"llbp/internal/predictor"
	"llbp/internal/sim"
	"llbp/internal/trace"
	"llbp/internal/workload"
)

// testStream pulls nBatches batches of batchLen branches from the Tomcat
// trace, starting after skip records, so streamed sessions exercise the
// predictor with real branch behavior.
func testStream(t testing.TB, skip uint64, nBatches, batchLen int) []Frame {
	t.Helper()
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	r := wl.Open()
	var b trace.Branch
	for i := uint64(0); i < skip; i++ {
		if err := r.Read(&b); err != nil {
			t.Fatal(err)
		}
	}
	frames := make([]Frame, nBatches)
	for i := range frames {
		recs := make([]BranchRec, batchLen)
		for k := range recs {
			if err := r.Read(&b); err != nil {
				t.Fatal(err)
			}
			recs[k] = BranchRec{
				PC: b.PC, Target: b.Target, Kind: uint8(b.Type), Taken: b.Taken,
				Instructions: b.Instructions, TargetMiss: b.MispredictedTarget,
			}
		}
		frames[i] = Frame{Type: FrameBranchBatch, Seq: uint64(i + 1), Branches: recs}
	}
	return frames
}

func testManager(t testing.TB, journalPath string) *Manager {
	t.Helper()
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	h := experiments.NewHarness(experiments.Config{
		Warmup:    5_000,
		Measure:   10_000,
		Workloads: []*workload.Source{wl},
	})
	m, err := New(Options{
		Forker:             h,
		JournalPath:        journalPath,
		CheckpointBranches: 500,
		LeaseTTL:           time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func openTestSession(t testing.TB, m *Manager) Status {
	t.Helper()
	st, err := m.Open(context.Background(), Request{
		Schema: Schema, Predictor: "64k", Workload: "Tomcat", Warmup: 2_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// marshalFrames renders persisted frames as the NDJSON bytes the stream
// endpoint would emit — the unit of the byte-identity assertions.
func marshalFrames(t testing.TB, frames []OutFrame) string {
	t.Helper()
	out := ""
	for _, f := range frames {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		out += string(b) + "\n"
	}
	return out
}

func allFrames(s *Session) []OutFrame {
	evs, _, _, _, _ := s.frames(0)
	return evs
}

func TestSessionLifecycle(t *testing.T) {
	m := testManager(t, "")
	st := openTestSession(t, m)
	if st.State != StateOpen || st.Branches != 0 {
		t.Fatalf("fresh session: %+v", st)
	}

	batches := testStream(t, 2_000, 4, 200)
	c, err := m.Claim(context.Background(), st.ID, "w1")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range batches {
		of, err := c.Apply(f)
		if err != nil {
			t.Fatalf("apply seq %d: %v", f.Seq, err)
		}
		if of.Type != FramePredictions || of.Batch != f.Seq || of.N != 200 {
			t.Fatalf("predictions frame: %+v", of)
		}
		raw, err := DecodeOutcomes(of.Outcomes)
		if err != nil {
			t.Fatal(err)
		}
		var misp uint64
		for _, o := range raw {
			if o&OutcomeMispredict != 0 {
				misp++
			}
		}
		if misp != of.Mispredicts {
			t.Fatalf("outcome bytes count %d mispredicts, frame says %d", misp, of.Mispredicts)
		}
	}

	// Replayed (duplicate) sequence numbers are acknowledged idempotently.
	of, err := c.Apply(batches[1])
	if err != nil {
		t.Fatalf("duplicate seq: %v", err)
	}
	if of.Batch != batches[1].Seq {
		t.Fatalf("duplicate ack echoes batch %d, want %d", of.Batch, batches[1].Seq)
	}
	// A gap is a protocol error.
	gap := batches[3]
	gap.Seq = 99
	if _, err := c.Apply(gap); err == nil {
		t.Fatal("seq gap accepted")
	}

	st, err = m.Get(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	// 4 batches * 200 branches with a 500-branch checkpoint cadence →
	// one auto-checkpoint at 600 branches... cadence fires when the
	// running count crosses each multiple.
	if st.Branches != 800 || st.LastSeq != 4 {
		t.Fatalf("cursors: %+v", st)
	}
	if st.Checkpoints == 0 {
		t.Fatal("no auto-checkpoint despite 800 branches at cadence 500")
	}

	c.Release()
	if _, err := m.Close(context.Background(), st.ID); err != nil {
		t.Fatal(err)
	}
	st, _ = m.Get(context.Background(), st.ID)
	if st.State != StateClosed {
		t.Fatalf("state after close: %s", st.State)
	}
	// Frame sequence is contiguous from 1 and ends with done.
	m.mu.Lock()
	s := m.sessions[st.ID]
	m.mu.Unlock()
	frames := allFrames(s)
	for i, f := range frames {
		if f.Seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d", i, f.Seq)
		}
	}
	if frames[len(frames)-1].Type != FrameDone {
		t.Fatalf("last frame: %+v", frames[len(frames)-1])
	}
}

// TestSessionResumeByteIdentical is the durability acceptance: a session
// killed mid-stream (journal intact) and resumed on a fresh manager
// produces a persisted frame stream byte-identical to one that was never
// interrupted.
func TestSessionResumeByteIdentical(t *testing.T) {
	batches := testStream(t, 2_000, 10, 200)
	ctx := context.Background()

	// Uninterrupted control.
	ctrl := testManager(t, "")
	ctrlSt := openTestSession(t, ctrl)
	cc, err := ctrl.Claim(ctx, ctrlSt.ID, "w")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range batches {
		if _, err := cc.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	cc.Release()
	if _, err := ctrl.Close(ctx, ctrlSt.ID); err != nil {
		t.Fatal(err)
	}
	ctrl.mu.Lock()
	want := marshalFrames(t, allFrames(ctrl.sessions[ctrlSt.ID]))
	ctrl.mu.Unlock()

	// Killed-and-resumed run: stream 6 batches, drop the manager on the
	// floor (no clean shutdown — the journal is the only survivor), then
	// resume on a new manager and stream the rest.
	jpath := filepath.Join(t.TempDir(), "sessions.journal")
	m1 := testManager(t, jpath)
	st := openTestSession(t, m1)
	c1, err := m1.Claim(ctx, st.ID, "w")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range batches[:6] {
		if _, err := c1.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	m1.journal.Close() // the kill: fds gone, no drain, no release

	m2 := testManager(t, jpath)
	st2, err := m2.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("restored session id %s, want %s", st2.ID, st.ID)
	}
	if st2.LastSeq != 6 || st2.Branches != 1200 {
		t.Fatalf("restored cursors: %+v", st2)
	}
	c2, err := m2.Claim(ctx, st.ID, "w")
	if err != nil {
		t.Fatal(err)
	}
	// The client replays its last unacknowledged batch (overlap) then
	// continues: overlap must be idempotent, continuation exact.
	for _, f := range batches[5:] {
		if _, err := c2.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	c2.Release()
	if _, err := m2.Close(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	m2.mu.Lock()
	got := marshalFrames(t, allFrames(m2.sessions[st.ID]))
	m2.mu.Unlock()
	if got != want {
		t.Fatalf("killed-and-resumed stream diverged from uninterrupted stream:\n got %d bytes\nwant %d bytes\n got: %.300s\nwant: %.300s",
			len(got), len(want), got, want)
	}
	m2.Shutdown()
}

// TestDrainMigration: a drain hands the session to a new claim via the
// checkpoint fork; the migrated continuation is byte-identical to an
// undrained one and no sequence number is duplicated or skipped.
func TestDrainMigration(t *testing.T) {
	batches := testStream(t, 2_000, 10, 200)
	ctx := context.Background()

	ctrl := testManager(t, "")
	ctrlSt := openTestSession(t, ctrl)
	cc, _ := ctrl.Claim(ctx, ctrlSt.ID, "w")
	for _, f := range batches {
		if _, err := cc.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	ctrl.mu.Lock()
	ctrlFrames := allFrames(ctrl.sessions[ctrlSt.ID])
	ctrl.mu.Unlock()

	m := testManager(t, "")
	st := openTestSession(t, m)
	c1, err := m.Claim(ctx, st.ID, "w1")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range batches[:5] {
		if _, err := c1.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c1.Drain(); err != nil {
		t.Fatal(err)
	}

	c2, err := m.Claim(ctx, st.ID, "w2")
	if err != nil {
		t.Fatalf("claim after drain: %v", err)
	}
	// The drained claim is fenced: it can never apply again.
	if _, err := c1.Apply(batches[5]); !errors.Is(err, ErrFenced) {
		t.Fatalf("drained claim applied a batch: %v", err)
	}
	select {
	case <-c1.Revoke:
	default:
		t.Fatal("drained claim's revoke channel still open")
	}
	for _, f := range batches[5:] {
		if _, err := c2.Apply(f); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	s := m.sessions[st.ID]
	m.mu.Unlock()
	frames := allFrames(s)

	// Zero duplicated or skipped batch seqs across the migration.
	next := uint64(1)
	for _, f := range frames {
		if f.Type != FramePredictions {
			continue
		}
		if f.Batch != next {
			t.Fatalf("predictions for batch %d, want %d (dup or skip across migration)", f.Batch, next)
		}
		next++
	}
	if next != 11 {
		t.Fatalf("saw %d batches, want 10", next-1)
	}

	// Byte-identical predictions: every batch's verdicts match the
	// undrained control (the drain adds one checkpoint frame, so compare
	// per-batch rather than whole-log).
	ctrlByBatch := map[uint64]OutFrame{}
	for _, f := range ctrlFrames {
		if f.Type == FramePredictions {
			ctrlByBatch[f.Batch] = f
		}
	}
	for _, f := range frames {
		if f.Type != FramePredictions {
			continue
		}
		cf := ctrlByBatch[f.Batch]
		if f.Outcomes != cf.Outcomes || f.Mispredicts != cf.Mispredicts || f.Branches != cf.Branches {
			t.Fatalf("batch %d diverged after migration:\n got %+v\nwant %+v", f.Batch, f, cf)
		}
	}
	if st2, _ := m.Get(ctx, st.ID); st2.Epoch != 2 {
		t.Fatalf("epoch after migration: %d, want 2", st2.Epoch)
	}
}

// TestLeaseExpiry: a wedged claim's lease ages out, the supervisor sweep
// revokes it at exactly its deadline, and a successor claims; the zombie
// is fenced everywhere.
func TestLeaseExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	h := experiments.NewHarness(experiments.Config{
		Warmup: 5_000, Measure: 10_000,
		Workloads: []*workload.Source{wl},
	})
	m, err := New(Options{
		Forker:   h,
		LeaseTTL: 10 * time.Second,
		Now:      func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Open(context.Background(), Request{Schema: Schema, Predictor: "64k"})
	if err != nil {
		t.Fatal(err)
	}
	batches := testStream(t, 0, 3, 100)

	c1, err := m.Claim(context.Background(), st.ID, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Apply(batches[0]); err != nil {
		t.Fatal(err)
	}
	// A second claim while the lease is live is a conflict.
	if _, err := m.Claim(context.Background(), st.ID, "w2"); err == nil {
		t.Fatal("live lease stolen")
	}
	// One tick before the deadline the lease is live; at exactly the
	// deadline it has expired for the sweep as it has for Claim.
	now = now.Add(10*time.Second - time.Nanosecond)
	if n := m.ExpireLeases(); n != 0 {
		t.Fatalf("sweep revoked %d leases before the deadline, want 0", n)
	}
	now = now.Add(time.Nanosecond)
	if n := m.ExpireLeases(); n != 1 {
		t.Fatalf("sweep revoked %d leases at the deadline, want 1", n)
	}
	select {
	case <-c1.Revoke:
	default:
		t.Fatal("expired claim's revoke channel still open")
	}
	c2, err := m.Claim(context.Background(), st.ID, "w2")
	if err != nil {
		t.Fatalf("claim after expiry: %v", err)
	}
	if _, err := c1.Apply(batches[1]); !errors.Is(err, ErrFenced) {
		t.Fatalf("zombie claim applied: %v", err)
	}
	if _, err := c2.Apply(batches[1]); err != nil {
		t.Fatal(err)
	}
	c1.Release() // fenced release is a no-op
	if _, err := c2.Apply(batches[2]); err != nil {
		t.Fatalf("release of fenced claim disturbed the live claim: %v", err)
	}
}

// TestForkWarmSharing: two sessions over the same (workload, predictor,
// warmup) triple behave identically — the second forks the first's warm
// snapshot rather than rewarming, and both predict the same stream the
// same way.
func TestForkWarmSharing(t *testing.T) {
	m := testManager(t, "")
	ctx := context.Background()
	batches := testStream(t, 2_000, 3, 150)

	stA := openTestSession(t, m)
	stB := openTestSession(t, m)
	if stA.ID == stB.ID {
		t.Fatal("two opens returned one session")
	}
	cA, _ := m.Claim(ctx, stA.ID, "w")
	cB, _ := m.Claim(ctx, stB.ID, "w")
	for _, f := range batches {
		a, err := cA.Apply(f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cB.Apply(f)
		if err != nil {
			t.Fatal(err)
		}
		if a.Outcomes != b.Outcomes {
			t.Fatalf("batch %d: twin sessions diverged", f.Seq)
		}
	}
}

// TestSessionMatchesReplay: a session and a batch replay of the same
// branches, each on a fork of one warm snapshot, emit the same verdict
// bytes batch for batch. LLBP times its prefetches on the simulated
// clock and squashes them on pipeline resets, so any drift between the
// session's step and sim.Run's shows up here; gshare is a registered
// predictor outside the TAGE family.
func TestSessionMatchesReplay(t *testing.T) {
	for _, key := range []string{"llbp", "gshare"} {
		t.Run(key, func(t *testing.T) { sessionMatchesReplay(t, key) })
	}
}

func sessionMatchesReplay(t *testing.T, key string) {
	const warmup, nBatches, batchLen = 2_000, 20, 500
	m := testManager(t, "")
	ctx := context.Background()
	st, err := m.Open(ctx, Request{Schema: Schema, Predictor: key, Workload: "Tomcat", Warmup: warmup})
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Claim(ctx, st.ID, "w")
	if err != nil {
		t.Fatal(err)
	}
	batches := testStream(t, warmup, nBatches, batchLen)

	// The replay twin: a fork of the same warm snapshot, driven by
	// sim.Run over the same branches; an observer collects each batch's
	// verdict bytes.
	p, clock, err := m.opt.Forker.ForkWarm(ctx, "Tomcat", key, warmup)
	if err != nil {
		t.Fatal(err)
	}
	var branches []trace.Branch
	for _, f := range batches {
		for _, r := range f.Branches {
			branches = append(branches, r.Branch())
		}
	}
	var want []string
	var raw []byte
	seen := 0
	next := func() {
		if seen++; seen == batchLen {
			want = append(want, EncodeOutcomes(raw))
			raw, seen = raw[:0], 0
		}
	}
	_, err = sim.Run(&trace.SliceSource{SourceName: "Tomcat", Branches: branches}, p, sim.Options{
		MeasureBranches: uint64(len(branches)),
		Clock:           clock,
		Observer: func(b *trace.Branch, predicted bool, _ predictor.Detail) {
			var o byte
			if predicted {
				o |= OutcomeTaken
			}
			if predicted != b.Taken {
				o |= OutcomeMispredict
			}
			raw = append(raw, o)
			next()
		},
		UncondObserver: func(*trace.Branch) { next() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != nBatches {
		t.Fatalf("replay produced %d batches, want %d", len(want), nBatches)
	}
	for i, f := range batches {
		of, err := c.Apply(f)
		if err != nil {
			t.Fatal(err)
		}
		if of.Outcomes != want[i] {
			t.Fatalf("batch %d: session verdicts differ from the replay of the same branches", f.Seq)
		}
	}
}
