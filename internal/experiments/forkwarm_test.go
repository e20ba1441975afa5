package experiments

import (
	"reflect"
	"testing"

	"llbp/internal/core"
	"llbp/internal/predictor"
	"llbp/internal/sim"
	"llbp/internal/workload"
)

func forkwarmHarness(t *testing.T) *Harness {
	t.Helper()
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	return NewHarness(Config{
		Warmup:       10_000,
		Measure:      30_000,
		SweepWarmup:  5_000,
		SweepMeasure: 15_000,
		Workloads:    []*workload.Source{wl},
	})
}

// directRun is the monolithic run a forked cell stands in for: a fresh
// predictor replays warmup and measure in one sim.Run over the
// harness's trace-cache source.
func directRun(tb testing.TB, h *Harness, wl *workload.Source, spec PredictorSpec, warm, meas uint64) *RunOutput {
	tb.Helper()
	clock := &predictor.Clock{}
	p, err := spec.Build(clock)
	if err != nil {
		tb.Fatal(err)
	}
	src, release := h.source(wl, warm+meas)
	defer release()
	res, err := sim.Run(src, p, sim.Options{WarmupBranches: warm, MeasureBranches: meas, Clock: clock})
	if err != nil {
		tb.Fatal(err)
	}
	out := &RunOutput{Res: res}
	if lp, ok := p.(*core.Predictor); ok {
		out.LLBP, out.HasLLBP = lp.Stats(), true
	}
	return out
}

// TestForkWarmMatchesDirect is the acceptance property of the fork-warm
// cache: cells computed by forking a shared warm snapshot must be
// byte-identical to a direct warm+measure run of the same spec —
// headline result, cycle ledger and the LLBP internal stats alike.
// Otherwise journaled cells would stop being interchangeable between the
// fork path and the monolithic path faulted cells take.
func TestForkWarmMatchesDirect(t *testing.T) {
	h := forkwarmHarness(t)
	wl := h.Cfg.workloads()[0]

	for _, spec := range []PredictorSpec{Spec64K(), SpecLLBPDefault(), SpecInfTAGE()} {
		a, err := h.Run(wl, spec)
		if err != nil {
			t.Fatalf("forked %s: %v", spec.Key, err)
		}
		b := directRun(t, h, wl, spec, h.Cfg.Warmup, h.Cfg.Measure)
		if !reflect.DeepEqual(a.Res, b.Res) {
			t.Errorf("%s: forked result diverged from direct:\n got %+v\nwant %+v", spec.Key, a.Res, b.Res)
		}
		if !reflect.DeepEqual(a.LLBP, b.LLBP) || a.HasLLBP != b.HasLLBP {
			t.Errorf("%s: forked LLBP stats diverged from direct:\n got %+v\nwant %+v", spec.Key, a.LLBP, b.LLBP)
		}
	}

	// The harness must actually have taken the fork path.
	h.warmMu.Lock()
	warmed := len(h.warmCache)
	h.warmMu.Unlock()
	if warmed != 3 {
		t.Errorf("expected 3 warm snapshots (one per spec), found %d", warmed)
	}
}

// TestForkWarmSharesSnapshots: cells differing only in measure budget
// share one warm snapshot — the whole point of keying by (workload,
// predictor, warmup) instead of the full cell key.
func TestForkWarmSharesSnapshots(t *testing.T) {
	h := forkwarmHarness(t)
	wl := h.Cfg.workloads()[0]
	spec := Spec64K()

	for _, meas := range []uint64{10_000, 20_000, 30_000} {
		if _, err := h.runBudget(wl, spec, 8_000, meas); err != nil {
			t.Fatal(err)
		}
	}
	h.warmMu.Lock()
	defer h.warmMu.Unlock()
	if len(h.warmCache) != 1 {
		t.Errorf("3 cells sharing one prefix should warm once, found %d snapshots", len(h.warmCache))
	}
	if _, ok := h.warmCache[warmKey(wl, spec, 8_000)]; !ok {
		t.Error("warm cache missing the shared (workload, spec, warmup) key")
	}
}

// TestForkWarmFaultedBypasses: fault-injected cells must not take the
// fork path — the injector has to see the warmup phase.
func TestForkWarmFaultedBypasses(t *testing.T) {
	h := forkwarmHarness(t)
	wl := h.Cfg.workloads()[0]
	if _, err := h.RunFaulted(wl, Spec64K(), FaultSpec{Rate: 50, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	h.warmMu.Lock()
	defer h.warmMu.Unlock()
	if len(h.warmCache) != 0 {
		t.Errorf("faulted run must bypass the fork cache, found %d snapshots", len(h.warmCache))
	}
}

// benchMatrix runs an extScale-shaped matrix — several predictors, one
// pinned warmup, a sweep of measure budgets — so the two benchmarks
// below quantify the wall-clock win of forking the shared warm snapshot
// instead of rewarming per cell. cell computes one (spec, measure) cell
// on the iteration's harness.
func benchMatrix(b *testing.B, cell func(h *Harness, wl *workload.Source, spec PredictorSpec, warm, meas uint64)) {
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewHarness(Config{
			Warmup:    100_000,
			Measure:   40_000,
			Workloads: []*workload.Source{wl},
		})
		for _, spec := range []PredictorSpec{Spec64K(), SpecLLBPDefault(), SpecInfTAGE()} {
			for _, meas := range []uint64{20_000, 40_000, 60_000} {
				cell(h, wl, spec, 100_000, meas)
			}
		}
	}
}

func BenchmarkMatrixForkWarm(b *testing.B) {
	benchMatrix(b, func(h *Harness, wl *workload.Source, spec PredictorSpec, warm, meas uint64) {
		if _, err := h.runBudget(wl, spec, warm, meas); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkMatrixDirect(b *testing.B) {
	benchMatrix(b, func(h *Harness, wl *workload.Source, spec PredictorSpec, warm, meas uint64) {
		directRun(b, h, wl, spec, warm, meas)
	})
}
