package experiments

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"llbp/internal/core"
	"llbp/internal/predictor"
	"llbp/internal/sim"
	"llbp/internal/trace"
	"llbp/internal/workload"
)

// Warm-snapshot fork cache. Experiment matrices share warmup prefixes:
// every extScale budget row, every cell of a sweep family and every
// streamed session bound to the same (workload, predictor, warmup) triple
// replays an identical warmup before diverging in its measure phase. For
// forkable predictors (predictor.Forkable) the harness warms one parent
// per triple, then serves each cell a copy-on-write fork that resumes
// with a measure-only replay over the stream's tail. Results are
// byte-identical to the monolithic path — the fork property tests pin
// that down per family — so journaled cells stay interchangeable across
// the two execution strategies.

// warmCacheCap bounds retained warm parents. Each parent is a fully
// warmed predictor (tens of MB for the infinite configurations), so the
// cache evicts oldest-first past the cap; an evicted triple simply
// rewarms on next use. Children outlive eviction: copy-on-write shares
// keep the pattern storage alive through the children's own references.
const warmCacheCap = 24

// warmState is one (workload, predictor, warmup) snapshot, singleflight:
// the creating goroutine warms while concurrent requesters block on done.
type warmState struct {
	done chan struct{}

	// forkMu serializes Fork calls: forking marks the parent's directory
	// entries copy-on-write, so two concurrent forks of one parent would
	// race on those flags.
	forkMu sync.Mutex
	parent predictor.Forkable

	// notForkable records that the spec's predictor does not implement
	// predictor.Forkable, so cells fall back to the monolithic path
	// without rebuilding a probe instance each time.
	notForkable bool
	err         error
}

// warmKey is the snapshot identity; distinct from CellSpec.Key because
// the measure budget is deliberately absent — that is the sharing.
func warmKey(wl *workload.Source, spec PredictorSpec, warm uint64) string {
	return wl.Name() + "|" + spec.Key + "|" + strconv.FormatUint(warm, 10)
}

// warmFor returns the ready snapshot for (wl, spec, warm), warming it if
// this is the first request. It returns nil when the fork path does not
// apply (predictor not forkable, or warmup failed — the caller falls
// back to the monolithic path, which reports the authoritative error).
func (h *Harness) warmFor(ctx context.Context, wl *workload.Source, spec PredictorSpec, warm uint64) *warmState {
	key := warmKey(wl, spec, warm)
	h.warmMu.Lock()
	ws, ok := h.warmCache[key]
	if ok {
		h.warmMu.Unlock()
		<-ws.done
	} else {
		ws = &warmState{done: make(chan struct{})}
		h.warmCache[key] = ws
		h.warmOrder = append(h.warmOrder, key)
		h.evictWarmLocked()
		h.warmMu.Unlock()

		h.fillWarm(ctx, ws, wl, spec, warm)
		close(ws.done)
		if ws.err != nil {
			// Don't pin a failed warmup (e.g. the first requester's
			// context was cancelled mid-warm); later cells retry.
			h.warmMu.Lock()
			if h.warmCache[key] == ws {
				delete(h.warmCache, key)
			}
			h.warmMu.Unlock()
		}
	}
	if ws.err != nil || ws.notForkable {
		return nil
	}
	return ws
}

// evictWarmLocked drops oldest snapshots past the cap. Callers hold
// warmMu. In-flight waiters keep their warmState pointer; eviction only
// forgets the key so a future request rewarms.
func (h *Harness) evictWarmLocked() {
	for len(h.warmOrder) > warmCacheCap {
		old := h.warmOrder[0]
		h.warmOrder = h.warmOrder[1:]
		delete(h.warmCache, old)
	}
}

// fillWarm builds the parent and replays the warmup prefix through it.
func (h *Harness) fillWarm(ctx context.Context, ws *warmState, wl *workload.Source, spec PredictorSpec, warm uint64) {
	clock := &predictor.Clock{}
	p, err := spec.Build(clock)
	if err != nil {
		ws.err = fmt.Errorf("experiments: building %s: %w", spec.Key, err)
		return
	}
	f, ok := p.(predictor.Forkable)
	if !ok {
		ws.notForkable = true
		return
	}
	src, release := h.source(wl, warm)
	err = sim.Warm(src, p, sim.Options{
		WarmupBranches: warm,
		Clock:          clock,
		Context:        ctx,
	})
	release()
	if err != nil {
		ws.err = err
		return
	}
	ws.parent = f
	h.Cfg.progress("  warmed %-10s on %-10s (%d branches, fork snapshot)", spec.Key, wl.Name(), warm)
}

// Fork clones the snapshot's parent for one cell or session. Forks are
// serialized because marking the parent copy-on-write mutates it.
func (ws *warmState) Fork(clock *predictor.Clock) predictor.Predictor {
	ws.forkMu.Lock()
	defer ws.forkMu.Unlock()
	return ws.parent.Fork(clock)
}

// tailSource returns the replay source for branches [skip, skip+meas) of
// wl — a positioned view of the materialized trace cache when available,
// a batched skip over direct replay otherwise. Either way the branches
// are exactly the ones a monolithic warm+measure run would measure.
func (h *Harness) tailSource(wl *workload.Source, skip, meas uint64) (trace.Source, func()) {
	hd, err := h.traceCache().Acquire(wl, skip+meas)
	if err != nil || hd == nil {
		return trace.Skip(wl, skip), func() {}
	}
	return hd.Tail(skip), hd.Release
}

// ForkWarm returns an independent predictor warmed on the first warmup
// branches of the named workload, plus the clock it is driven by. It is
// the session-facing face of the warm-snapshot cache: streaming
// prediction sessions bound to a (workload, predictor, warmup) triple
// fork the same parent the experiment matrix forks, so opening ten
// sessions over one warmed predictor costs one warmup. Predictors that
// do not implement predictor.Forkable are warmed fresh per call — same
// result, no sharing.
func (h *Harness) ForkWarm(ctx context.Context, workloadName, specKey string, warmup uint64) (predictor.Predictor, *predictor.Clock, error) {
	spec, err := SpecByKey(specKey)
	if err != nil {
		return nil, nil, err
	}
	clock := &predictor.Clock{}
	if warmup == 0 {
		p, err := spec.Build(clock)
		if err != nil {
			return nil, nil, fmt.Errorf("experiments: building %s: %w", specKey, err)
		}
		return p, clock, nil
	}
	wl, err := workload.ByName(workloadName)
	if err != nil {
		return nil, nil, err
	}
	if ws := h.warmFor(ctx, wl, spec, warmup); ws != nil {
		return ws.Fork(clock), clock, nil
	}
	// Monolithic fallback: warm a private instance.
	p, err := spec.Build(clock)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: building %s: %w", specKey, err)
	}
	src, release := h.source(wl, warmup)
	err = sim.Warm(src, p, sim.Options{WarmupBranches: warmup, Clock: clock, Context: ctx})
	release()
	if err != nil {
		return nil, nil, err
	}
	return p, clock, nil
}

// simulateForked is the fork-path body of one cell: fork the shared warm
// snapshot, replay only the measure tail. ok=false means the fork path
// does not apply and the caller must run the monolithic path.
func (h *Harness) simulateForked(ctx context.Context, wl *workload.Source, spec PredictorSpec, warm, meas uint64) (out *RunOutput, ok bool, err error) {
	ws := h.warmFor(ctx, wl, spec, warm)
	if ws == nil {
		return nil, false, nil
	}
	clock := &predictor.Clock{}
	p := ws.Fork(clock)

	opt := sim.Options{
		MeasureBranches: meas,
		Clock:           clock,
		Context:         ctx,
	}
	if h.Cfg.CellProgress != nil {
		cs := CellSpec{Workload: wl.Name(), Predictor: spec.Key, Warmup: warm, Measure: meas}
		key, total := cs.Key(), warm+meas
		opt.Hook = func(processed uint64) {
			// The fork skipped the warmup; report absolute stream progress
			// so watchers see the same 0..total scale as the direct path.
			h.Cfg.CellProgress(key, warm+processed, total)
		}
	}
	src, release := h.tailSource(wl, warm, meas)
	res, rerr := sim.Run(src, p, opt)
	release()
	if rerr != nil {
		return nil, true, fmt.Errorf("experiments: %s on %s: %w", spec.Key, wl.Name(), rerr)
	}
	out = &RunOutput{Res: res}
	if lp, isCore := p.(*core.Predictor); isCore {
		out.LLBP = lp.Stats()
		out.HasLLBP = true
	}
	h.Cfg.progress("  ran %-10s on %-10s MPKI=%.3f (forked)", spec.Key, wl.Name(), res.MPKI)
	return out, true, nil
}
