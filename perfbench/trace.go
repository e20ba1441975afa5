package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"llbp/internal/predictor"
	"llbp/internal/telemetry"
	"llbp/internal/trace"
)

// recorder keeps a traced run's spans in memory; write emits them through
// telemetry.Tracer when the run ends, so tracing does no I/O while the
// measured calls run. Timestamps are wall-clock microseconds since the
// recorder started, on the harness (wall-clock) pid.
type recorder struct {
	start time.Time
	spans []spanRec
}

type spanRec struct {
	name, cat string
	ts, dur   float64
	args      map[string]any
}

func newRecorder() *recorder { return &recorder{start: time.Now()} }

// now returns microseconds since the recorder started.
func (r *recorder) now() float64 { return float64(time.Since(r.start).Nanoseconds()) / 1e3 }

// span records [ts, end) under name.
func (r *recorder) span(name, cat string, ts, end float64, args map[string]any) {
	r.spans = append(r.spans, spanRec{name: name, cat: cat, ts: ts, dur: end - ts, args: args})
}

// write emits every span to path as a Chrome trace-event array.
func (r *recorder) write(path, process string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr := telemetry.NewTracer(f)
	tr.ProcessName(telemetry.PidHarness, process)
	tr.ThreadName(telemetry.PidHarness, 1, "driver")
	for _, s := range r.spans {
		tr.Span(telemetry.PidHarness, 1, s.name, s.cat, s.ts, s.dur, s.args)
	}
	err = tr.Close()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	return nil
}

// mono is a monotonic nanosecond clock: time.Since on a monotonic
// reading costs one vDSO clock read, cheap enough to bracket single
// predictor calls.
var monoBase = time.Now()

func mono() int64 { return int64(time.Since(monoBase)) }

// monoOverhead measures what one bracketed mono() pair adds to a timed
// interval, so per-call sums can subtract it.
func monoOverhead() int64 {
	const n = 200_000
	var sum int64
	for i := 0; i < n; i++ {
		s := mono()
		sum += mono() - s
	}
	return sum / n
}

// callTimes accumulates wall-clock time and calls per predictor entry
// point.
type callTimes struct {
	predictNs, updateNs, trackNs, resetNs int64
	predicts, updates, tracks, resets     uint64
}

func (c *callTimes) add(o callTimes) {
	c.predictNs += o.predictNs
	c.updateNs += o.updateNs
	c.trackNs += o.trackNs
	c.resetNs += o.resetNs
	c.predicts += o.predicts
	c.updates += o.updates
	c.tracks += o.tracks
	c.resets += o.resets
}

func (c *callTimes) sub(o callTimes) callTimes {
	return callTimes{
		predictNs: c.predictNs - o.predictNs, updateNs: c.updateNs - o.updateNs,
		trackNs: c.trackNs - o.trackNs, resetNs: c.resetNs - o.resetNs,
		predicts: c.predicts - o.predicts, updates: c.updates - o.updates,
		tracks: c.tracks - o.tracks, resets: c.resets - o.resets,
	}
}

// fullPredictor is the interface set the traced predictor forwards. The
// wrapper is built only around predictors that implement exactly these
// optional interfaces (core.Predictor does), so sim.Run sees the same
// capabilities traced and untraced.
type fullPredictor interface {
	predictor.Predictor
	predictor.TargetUpdater
	predictor.Resettable
	predictor.Detailer
}

// timedPredictor times each call into the wrapped predictor.
type timedPredictor struct {
	p fullPredictor
	t callTimes
}

func newTimedPredictor(p predictor.Predictor) (*timedPredictor, error) {
	fp, ok := p.(fullPredictor)
	if !ok {
		return nil, fmt.Errorf("trace: %s lacks an interface the timing wrapper forwards", p.Name())
	}
	if _, forkable := p.(predictor.Forkable); !forkable {
		return nil, fmt.Errorf("trace: %s is not forkable", p.Name())
	}
	return &timedPredictor{p: fp}, nil
}

func (w *timedPredictor) Name() string { return w.p.Name() }

func (w *timedPredictor) Predict(pc uint64) bool {
	s := mono()
	r := w.p.Predict(pc)
	w.t.predictNs += mono() - s
	w.t.predicts++
	return r
}

func (w *timedPredictor) Update(pc uint64, taken bool) {
	s := mono()
	w.p.Update(pc, taken)
	w.t.updateNs += mono() - s
	w.t.updates++
}

func (w *timedPredictor) UpdateWithTarget(pc, target uint64, taken bool) {
	s := mono()
	w.p.UpdateWithTarget(pc, target, taken)
	w.t.updateNs += mono() - s
	w.t.updates++
}

func (w *timedPredictor) TrackOther(pc, target uint64, t trace.BranchType) {
	s := mono()
	w.p.TrackOther(pc, target, t)
	w.t.trackNs += mono() - s
	w.t.tracks++
}

func (w *timedPredictor) OnPipelineReset() {
	s := mono()
	w.p.OnPipelineReset()
	w.t.resetNs += mono() - s
	w.t.resets++
}

func (w *timedPredictor) LastDetail() predictor.Detail { return w.p.LastDetail() }

// Fork forks the wrapped predictor; the child is untimed.
func (w *timedPredictor) Fork(clock *predictor.Clock) predictor.Predictor {
	return w.p.(predictor.Forkable).Fork(clock)
}

// timedSource wraps a batch source so every ReadBatch is a "decode" span
// timed in thread CPU, and the replay work between two decodes is a
// "step" span carrying the predictor time spent in it.
type timedSource struct {
	src  trace.BatchSource
	rec  *recorder
	pred *timedPredictor

	decodeCPU int64 // ns of thread CPU inside the wrapped ReadBatch

	stepTs   float64
	stepFrom callTimes
	stepOpen bool
}

func newTimedSource(src trace.Source, rec *recorder, pred *timedPredictor) (*timedSource, error) {
	bs, ok := src.(trace.BatchSource)
	if !ok {
		return nil, fmt.Errorf("trace: source %s is not a batch source", src.Name())
	}
	return &timedSource{src: bs, rec: rec, pred: pred}, nil
}

func (s *timedSource) Name() string { return s.src.Name() }

func (s *timedSource) Open() trace.Reader { return s.src.Open() }

func (s *timedSource) OpenBatch() trace.BatchReader {
	return &timedReader{s: s, br: s.src.OpenBatch()}
}

// closeStep ends the open step span, attributing the predictor calls it
// contained.
func (s *timedSource) closeStep() {
	if !s.stepOpen {
		return
	}
	d := s.pred.t.sub(s.stepFrom)
	s.rec.span("step", "sim", s.stepTs, s.rec.now(), map[string]any{
		"predict_ns": d.predictNs, "update_ns": d.updateNs,
		"track_other_ns": d.trackNs, "reset_ns": d.resetNs,
		"conds": d.predicts, "unconds": d.tracks, "resets": d.resets,
	})
	s.stepOpen = false
}

type timedReader struct {
	s  *timedSource
	br trace.BatchReader
}

func (r *timedReader) ReadBatch(dst []trace.Branch) (int, error) {
	s := r.s
	s.closeStep()
	ts := s.rec.now()
	c0 := threadCPU()
	n, err := r.br.ReadBatch(dst)
	cpu := threadCPU() - c0
	s.decodeCPU += cpu
	s.rec.span("decode", "trace", ts, s.rec.now(), map[string]any{"branches": n, "cpu_ns": cpu})
	s.stepTs, s.stepFrom, s.stepOpen = s.rec.now(), s.pred.t, true
	return n, err
}
