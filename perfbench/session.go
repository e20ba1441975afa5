package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"llbp/internal/experiments"
	"llbp/internal/predictor"
	"llbp/internal/session"
	"llbp/internal/sim"
	"llbp/internal/trace"
	"llbp/internal/trace/cache"
	"llbp/internal/tsl"
)

// sessionSpec is the predictor spec key sessions open with.
const sessionSpec = "64k"

// seededForker supplies session predictors warmed on the seeded input's
// prefix. experiments.Harness.ForkWarm resolves workloads by catalog name,
// so it serves only the catalog stream; this forker takes the harness's
// steps for the run's own input: build the spec, sim.Warm it over a
// trace-cache handle once, and Fork the warm parent for every open.
type seededForker struct {
	wl     windowSource
	handle *cache.Handle
	parent predictor.Forkable
	// last is the most recent child handed out: the open session's live
	// predictor, read for its event counters.
	last    *tsl.Predictor
	warmCPU float64 // process CPU of the last warm
}

// reset drops the warm parent, so the next open warms afresh as the
// first open of a (workload, spec, warmup) does.
func (f *seededForker) reset() { f.parent = nil }

func (f *seededForker) ForkWarm(ctx context.Context, name, specKey string, warmup uint64) (predictor.Predictor, *predictor.Clock, error) {
	if name != f.wl.Name() || specKey != sessionSpec || warmup > uint64(f.handle.Len()) {
		return nil, nil, fmt.Errorf("forker serves %s/%s with up to %d warmup branches, not %s/%s with %d",
			f.wl.Name(), sessionSpec, f.handle.Len(), name, specKey, warmup)
	}
	if f.parent == nil {
		spec, err := experiments.SpecByKey(specKey)
		if err != nil {
			return nil, nil, err
		}
		clock := &predictor.Clock{}
		p, err := spec.Build(clock)
		if err != nil {
			return nil, nil, err
		}
		fk, ok := p.(predictor.Forkable)
		if !ok {
			return nil, nil, fmt.Errorf("spec %s is not forkable", specKey)
		}
		c0 := processCPU()
		if err := sim.Warm(f.handle, p, sim.Options{WarmupBranches: warmup, Clock: clock, Context: ctx}); err != nil {
			return nil, nil, err
		}
		f.warmCPU = processCPU() - c0
		f.parent = fk
	}
	clock := &predictor.Clock{}
	child := f.parent.Fork(clock)
	f.last, _ = child.(*tsl.Predictor)
	return child, clock, nil
}

// verdict is one predictions frame's checked content.
type verdict struct {
	outcomes string
	misp     uint64
}

func (d *digest) verdict(seq uint64, n int, v verdict) {
	d.u64(seq, uint64(n), v.misp)
	d.str(v.outcomes)
}

// sessionInput is everything generated before timing starts: the
// NDJSON branch-batch frames one client pushes, and the verdicts a
// batch replay of the same branches produces.
type sessionInput struct {
	ndjson       []byte
	frames       int
	instructions uint64
	want         []verdict
	wantDigest   string
}

// buildSessionInput encodes the measured window — the branches that
// continue the warmed stream — as branch-batch frames, and computes the
// reference verdicts by replaying the same window through a predictor
// forked the same way with sim.Run. TAGE-SC-L reads no clock, so the
// streamed and replayed predictions must agree branch for branch.
func buildSessionInput(cfg config, fk *seededForker) (*sessionInput, error) {
	in := &sessionInput{}
	br := trace.OpenBatched(fk.handle.Tail(cfg.warmup))
	buf := make([]trace.Branch, sessionBatch)
	for seq := uint64(1); uint64(in.frames)*sessionBatch < cfg.measure; seq++ {
		n, err := br.ReadBatch(buf)
		if n < len(buf) {
			return nil, fmt.Errorf("window ended after %d frames: %v", in.frames, err)
		}
		recs := make([]session.BranchRec, n)
		for i, b := range buf {
			recs[i] = session.BranchRec{PC: b.PC, Target: b.Target, Kind: uint8(b.Type), Taken: b.Taken,
				Instructions: b.Instructions, TargetMiss: b.MispredictedTarget}
		}
		line, err := json.Marshal(session.Frame{Type: session.FrameBranchBatch, Seq: seq, Branches: recs})
		if err != nil {
			return nil, err
		}
		in.ndjson = append(append(in.ndjson, line...), '\n')
		in.frames++
	}

	p, _, err := fk.ForkWarm(context.Background(), fk.wl.Name(), sessionSpec, cfg.warmup)
	if err != nil {
		return nil, err
	}
	var raw []byte
	var misp uint64
	seen := 0
	next := func() {
		if seen++; seen == sessionBatch {
			in.want = append(in.want, verdict{session.EncodeOutcomes(raw), misp})
			raw, misp, seen = raw[:0], 0, 0
		}
	}
	res, err := sim.Run(fk.handle.Tail(cfg.warmup), p, sim.Options{
		MeasureBranches: uint64(in.frames) * sessionBatch,
		Observer: func(b *trace.Branch, predicted bool, _ predictor.Detail) {
			var o byte
			if predicted {
				o |= session.OutcomeTaken
			}
			if predicted != b.Taken {
				o |= session.OutcomeMispredict
				misp++
			}
			raw = append(raw, o)
			next()
		},
		UncondObserver: func(*trace.Branch) { next() },
	})
	if err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	in.instructions = res.Instructions
	d := newDigest()
	for i, v := range in.want {
		d.verdict(uint64(i+1), sessionBatch, v)
	}
	in.wantDigest = d.sum()
	return in, nil
}

// sessionPass is what one measured pass through a fresh session
// measured.
type sessionPass struct {
	cost      phaseCost
	heap      float64 // live heap the session layers hold at the end, bytes
	gcCPU     float64
	busyCPU   float64
	batchUs   []float64
	misp      uint64
	attempted int
	failed    int
	digest    string
	tslStats  tsl.Stats
	// Traced passes only: driving-thread CPU and bytes allocated per call
	// kind, and the Apply CPU of the batches that took a checkpoint.
	parseCPU, applyCPU, encodeCPU int64
	parseAlloc, applyAlloc        uint64
	ckptApplyUs                   []float64
}

// openSession is one session ready for frames: a fresh manager, an open
// session and the client's claim on it.
type openSession struct {
	m       *session.Manager
	id      string
	claim   *session.Claim
	journal string
	cost    phaseCost // session.New + Open + Claim
	openCPU float64   // Manager.Open
}

// newSession is the session set-up: session.New with the journal at path
// (none when empty), Open warmed on the input's prefix, and Claim.
func newSession(cfg config, fk *seededForker, journal string) (*openSession, error) {
	if journal != "" {
		if err := os.MkdirAll(filepath.Dir(journal), 0o755); err != nil {
			return nil, err
		}
		if err := os.Remove(journal); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	ctx := context.Background()
	s := &openSession{journal: journal}
	ph := startPhase()
	m, err := session.New(session.Options{Forker: fk, JournalPath: journal})
	if err != nil {
		return nil, err
	}
	o0 := processCPU()
	st, err := m.Open(ctx, session.Request{Schema: session.Schema, Predictor: sessionSpec,
		Workload: fk.wl.Name(), Warmup: cfg.warmup, Tenant: "perfbench"})
	if err == nil {
		s.openCPU = processCPU() - o0
		s.claim, err = m.Claim(ctx, st.ID, "perfbench")
	}
	s.cost = ph.stop()
	s.m, s.id = m, st.ID
	if err != nil {
		m.Shutdown()
		return nil, err
	}
	return s, nil
}

// close releases the claim, closes the session and its manager, and
// deletes the journal.
func (s *openSession) close() error {
	s.claim.Release()
	_, err := s.m.Close(context.Background(), s.id)
	s.m.Shutdown()
	if s.journal != "" {
		if rerr := os.Remove(s.journal); err == nil {
			err = rerr
		}
	}
	return err
}

// runSessionPass opens a session (untimed), then pushes every frame
// through FrameReader.Next and Claim.Apply and JSON-encodes each verdict
// (timed). rec, when set, times each call separately.
func runSessionPass(cfg config, fk *seededForker, in *sessionInput, journal string, rec *recorder) (*sessionPass, error) {
	before := liveHeap()
	sess, err := newSession(cfg, fk, journal)
	if err != nil {
		return nil, err
	}
	out, err := streamFrames(cfg, fk, in, sess, rec)
	if err == nil {
		out.heap = float64(liveHeap()) - float64(before)
	}
	if cerr := sess.close(); err == nil {
		err = cerr
	}
	return out, err
}

// streamFrames is a pass's measured phase.
func streamFrames(cfg config, fk *seededForker, in *sessionInput, sess *openSession, rec *recorder) (*sessionPass, error) {
	claim := sess.claim
	out := &sessionPass{batchUs: make([]float64, 0, in.frames)}
	tsl0 := fk.last.Stats()

	fr := session.NewFrameReader(bytes.NewReader(in.ndjson))
	var wire bytes.Buffer
	enc := json.NewEncoder(&wire)
	d := newDigest()
	rs := newRuntimeSample()
	seqs := make([]uint64, 0, in.frames)
	var applyUs []float64
	var passTs float64
	if rec != nil {
		passTs = rec.now()
	}
	gc0, busy0 := rs.cpu()
	ph := startPhase()
	for i := 0; ; i++ {
		// Traced passes read the wall clock and the allocation counter
		// outside the thread-CPU brackets of each call.
		var ts, tsApply, tsEncode float64
		var a0, a1, a2 uint64
		if rec != nil {
			ts, a0 = rec.now(), rs.allocs()
		}
		t0 := threadCPU()
		f, err := fr.Next()
		t1 := threadCPU()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", i+1, err)
		}
		if rec != nil {
			out.parseCPU += t1 - t0
			tsApply, a1 = rec.now(), rs.allocs()
			t1 = threadCPU()
		}
		of, applyErr := claim.Apply(f)
		t2 := threadCPU()
		if rec != nil {
			out.applyCPU += t2 - t1
			applyUs = append(applyUs, float64(t2-t1)/1e3)
			tsEncode, a2 = rec.now(), rs.allocs()
			t2 = threadCPU()
		}
		wire.Reset()
		encErr := enc.Encode(of)
		t3 := threadCPU()
		out.batchUs = append(out.batchUs, float64(t3-t0)/1e3)
		if rec != nil {
			out.encodeCPU += t3 - t2
			out.parseAlloc += a1 - a0
			out.applyAlloc += a2 - a1
			end := rec.now()
			rec.span("parse", "session", ts, tsApply, map[string]any{"frame": i + 1})
			rec.span("apply", "session", tsApply, tsEncode, map[string]any{"frame": i + 1})
			rec.span("encode", "session", tsEncode, end, map[string]any{"frame": i + 1})
		}

		out.attempted++
		seqs = append(seqs, of.Seq)
		v := verdict{of.Outcomes, of.Mispredicts}
		if applyErr != nil || encErr != nil || i >= len(in.want) || of.Batch != f.Seq ||
			of.N != sessionBatch || v != in.want[i] {
			out.failed++
			if out.failed == 1 {
				cfg.printf("frame %d FAILED: apply=%v encode=%v", i+1, applyErr, encErr)
			}
			continue
		}
		d.verdict(f.Seq, of.N, v)
		out.misp += of.Mispredicts
	}
	out.cost = ph.stop()
	gc1, busy1 := rs.cpu()
	out.gcCPU, out.busyCPU = gc1-gc0, busy1-busy0
	out.digest = d.sum()
	out.tslStats = tslDelta(fk.last.Stats(), tsl0)
	if rec != nil {
		rec.span("pass", "session", passTs, rec.now(), map[string]any{
			"journal": sess.journal != "", "frames": out.attempted, "cpu_s": out.cost.cpu})
		// A checkpoint frame lands in the output log right after the
		// predictions frame of the batch that took it, so that batch is
		// followed by a sequence jump of two.
		for i := 0; i+1 < len(seqs); i++ {
			if seqs[i+1]-seqs[i] == 2 {
				out.ckptApplyUs = append(out.ckptApplyUs, applyUs[i])
			}
		}
	}
	return out, nil
}

func runSession(cfg config, wl windowSource) (*result, error) {
	cfg.printf("%s: %s seed=%s offset=%d, %s session warmed on %d branches, %d-branch frames, %d branches per pass",
		cfg.workload, wl.Name(), cfg.seed, cfg.offset, sessionSpec, cfg.warmup, sessionBatch, cfg.measure)
	h, err := cache.New(0).Acquire(wl, cfg.warmup+cfg.measure)
	if err != nil {
		return nil, fmt.Errorf("materialising %s: %w", wl.Name(), err)
	}
	defer h.Release()
	fk := &seededForker{wl: wl, handle: h}
	ph := startPhase()
	in, err := buildSessionInput(cfg, fk)
	if err != nil {
		return nil, err
	}
	cfg.printPhase("input+reference", ph.stop(), cfg.measure)
	want, refOK := cfg.expectedDigest(in.wantDigest)

	// Set-up runs cfg.setups times, each warming afresh; setup_s is the
	// median. Measured passes then open sessions the way later opens of
	// the same (workload, spec, warmup) do: forking the kept warm parent.
	// Sessions run without the journal, whose fsync on the checkout's
	// disk moved the rate by up to a quarter between runs; the traced run
	// prices the journal separately (NOTES.md).
	var setupCPU, opens []float64
	for i := 0; i < cfg.setups; i++ {
		fk.reset()
		sess, err := newSession(cfg, fk, "")
		if err != nil {
			return nil, err
		}
		setupCPU = append(setupCPU, sess.cost.cpu)
		opens = append(opens, sess.openCPU)
		cfg.printPhase(fmt.Sprintf("setup[%d]", i), sess.cost, cfg.warmup)
		if err := sess.close(); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: refOK, Metrics: map[string]metric{}}
	var passes []*sessionPass
	var measured phaseCost
	start := time.Now()
	for i := 0; cfg.measuring(i, start); i++ {
		p, err := runSessionPass(cfg, fk, in, "", nil)
		if err != nil {
			return nil, err
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.failed == 0 && p.digest != want {
			res.Failed += p.attempted
			cfg.printf("pass %d FAILED: digest %s", i, p.digest)
		}
		passes = append(passes, p)
		measured.add(p.cost)
	}
	res.Correct = res.Correct && res.Failed == 0
	cfg.printPhase("measure", measured, cfg.measure*uint64(len(passes)))

	var cpus, allocs []float64
	var batchUs [][]float64
	var gcCPU, busyCPU float64
	for _, p := range passes {
		cpus = append(cpus, p.cost.cpu)
		allocs = append(allocs, float64(p.cost.alloc)/float64(cfg.measure))
		batchUs = append(batchUs, p.batchUs)
		gcCPU += p.gcCPU
		busyCPU += p.busyCPU
	}
	rate := sustainedRate(cfg.measure, cpus)
	e2e := endToEnd{
		rate:       rate,
		setup:      median(setupCPU),
		heapMB:     passes[len(passes)-1].heap / 1e6,
		allocPerBr: median(allocs),
		mpki:       float64(passes[0].misp) * 1000 / float64(in.instructions),
		batchUs:    batchUs,
	}
	cfg.printPasses(cfg.measure, cpus, batchUs)
	if !cfg.trace {
		e2e.fill(res.Metrics)
		return res, nil
	}
	return res, tracedSession(cfg, fk, in, res, rate, gcCPU, busyCPU, opens, passes[0].tslStats)
}

// tracedSession runs two traced passes, without and with the journal
// (under .bench_build/, on the checkout's file system), and the layer
// replays, and prints the per-layer metrics. The per-call metrics come
// from the pass without the journal, like the end-to-end ones; the
// journal's cost is the difference in Apply between the two.
func tracedSession(cfg config, fk *seededForker, in *sessionInput, res *result,
	rate, gcCPU, busyCPU float64, opens []float64, counts tsl.Stats) error {
	rec := newRecorder()
	journal := filepath.Join(filepath.Dir(cfg.traceOut), "perfbench-session.journal")
	var traced [2]*sessionPass
	for i, j := range []string{"", journal} {
		p, err := runSessionPass(cfg, fk, in, j, rec)
		if err != nil {
			return err
		}
		res.Attempted += p.attempted
		res.Failed += p.failed
		if p.failed == 0 && p.digest != in.wantDigest {
			res.Failed += p.attempted
		}
		traced[i] = p
	}
	res.Correct = res.Correct && res.Failed == 0
	p, withJ := traced[0], traced[1]
	br := float64(cfg.measure)
	layers := zeroLayers()
	layers["session.open_s"] = median(opens)
	layers["sim.warm_ns_per_branch"] = fk.warmCPU * 1e9 / float64(cfg.warmup)
	layers["session.parse_ns_per_branch"] = float64(p.parseCPU) / br
	layers["session.apply_ns_per_branch"] = float64(p.applyCPU) / br
	layers["session.encode_ns_per_branch"] = float64(p.encodeCPU) / br
	layers["session.checkpoint_apply_us"] = median(p.ckptApplyUs)
	layers["harness.journal_ns_per_branch"] = float64(withJ.applyCPU-p.applyCPU) / br
	layers["session.parse_alloc_b_per_branch"] = float64(p.parseAlloc) / br
	layers["session.apply_alloc_b_per_branch"] = float64(p.applyAlloc) / br
	layers["runtime.gc_cpu_share"] = ratio(gcCPU, busyCPU)
	fillTSLCounts(layers, counts, br)
	procNs := p.cost.cpu * 1e9
	sum := float64(p.parseCPU + p.applyCPU + p.encodeCPU)
	layers["ledger.residual_pct"] = 100 * (procNs - sum) / procNs
	layers["tracing.overhead_pct"] = 100 * (rate - sustainedRate(cfg.measure, []float64{p.cost.cpu})) / rate
	cfg.printf("traced: %d checkpoint batches; live heap %.1f MB without the journal, %.1f MB with it; Apply allocates %.1f B/branch with it",
		len(p.ckptApplyUs), p.heap/1e6, withJ.heap/1e6, float64(withJ.applyAlloc)/br)

	bare, err := bareReplays(cfg, fk.handle, fk.handle.Tail(cfg.warmup), uint64(in.frames)*sessionBatch)
	if err != nil {
		return err
	}
	layers["tage.ns_per_branch"] = bare.tageNs - bare.nullNs
	layers["tsl.sc_loop_ns_per_branch"] = bare.tslNs - bare.tageNs
	cfg.printf("bare replays ns/branch: null=%.1f tage=%.1f tsl=%.1f", bare.nullNs, bare.tageNs, bare.tslNs)
	microbenches(cfg, layers)
	if err := rec.write(cfg.traceOut, "perfbench "+cfg.workload); err != nil {
		return err
	}
	cfg.printf("trace written to %s (%d spans)", cfg.traceOut, len(rec.spans))
	setLayers(cfg, res.Metrics, layers)
	return nil
}
