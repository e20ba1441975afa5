package experiments

import (
	"reflect"
	"testing"

	"llbp/internal/workload"
)

func forkwarmHarness(t *testing.T, disable bool) *Harness {
	t.Helper()
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	return NewHarness(Config{
		Warmup:          10_000,
		Measure:         30_000,
		SweepWarmup:     5_000,
		SweepMeasure:    15_000,
		Workloads:       []*workload.Source{wl},
		DisableForkWarm: disable,
	})
}

// TestForkWarmMatchesDirect is the acceptance property of the fork-warm
// cache: cells computed by forking a shared warm snapshot must be
// byte-identical to cells computed by the monolithic warm+measure path —
// headline result, cycle ledger and the LLBP internal stats alike.
// Otherwise journaled cells would stop being interchangeable between the
// two execution strategies.
func TestForkWarmMatchesDirect(t *testing.T) {
	forked := forkwarmHarness(t, false)
	direct := forkwarmHarness(t, true)
	wl := forked.Cfg.workloads()[0]

	for _, spec := range []PredictorSpec{Spec64K(), SpecLLBPDefault(), SpecInfTAGE()} {
		a, err := forked.Run(wl, spec)
		if err != nil {
			t.Fatalf("forked %s: %v", spec.Key, err)
		}
		b, err := direct.Run(wl, spec)
		if err != nil {
			t.Fatalf("direct %s: %v", spec.Key, err)
		}
		if !reflect.DeepEqual(a.Res, b.Res) {
			t.Errorf("%s: forked result diverged from direct:\n got %+v\nwant %+v", spec.Key, a.Res, b.Res)
		}
		if !reflect.DeepEqual(a.LLBP, b.LLBP) || a.HasLLBP != b.HasLLBP {
			t.Errorf("%s: forked LLBP stats diverged from direct:\n got %+v\nwant %+v", spec.Key, a.LLBP, b.LLBP)
		}
	}

	// The forked harness must actually have taken the fork path.
	forked.warmMu.Lock()
	warmed := len(forked.warmCache)
	forked.warmMu.Unlock()
	if warmed != 3 {
		t.Errorf("expected 3 warm snapshots (one per spec), found %d", warmed)
	}
}

// TestForkWarmSharesSnapshots: cells differing only in measure budget
// share one warm snapshot — the whole point of keying by (workload,
// predictor, warmup) instead of the full cell key.
func TestForkWarmSharesSnapshots(t *testing.T) {
	h := forkwarmHarness(t, false)
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
	h := forkwarmHarness(t, false)
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
// instead of rewarming per cell.
func benchMatrix(b *testing.B, disable bool) {
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := NewHarness(Config{
			Warmup:          100_000,
			Measure:         40_000,
			Workloads:       []*workload.Source{wl},
			DisableForkWarm: disable,
		})
		for _, spec := range []PredictorSpec{Spec64K(), SpecLLBPDefault(), SpecInfTAGE()} {
			for _, meas := range []uint64{20_000, 40_000, 60_000} {
				if _, err := h.runBudget(wl, spec, 100_000, meas); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkMatrixForkWarm(b *testing.B) { benchMatrix(b, false) }
func BenchmarkMatrixDirect(b *testing.B)   { benchMatrix(b, true) }
