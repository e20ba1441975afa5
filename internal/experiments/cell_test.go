package experiments

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"llbp/internal/predictor"
	"llbp/internal/sim"
	"llbp/internal/workload"
)

// TestCellSpecKeyRoundTrip: Key() must match the historical journal key
// format exactly (journals written by earlier releases must keep
// resolving), and ParseCellKey must invert it.
func TestCellSpecKeyRoundTrip(t *testing.T) {
	cs := CellSpec{Workload: "Tomcat", Predictor: "llbp", Warmup: 200_000, Measure: 1_000_000}
	if got, want := cs.Key(), "Tomcat|llbp|200000|1000000"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
	back, err := ParseCellKey(cs.Key())
	if err != nil || back != cs {
		t.Errorf("ParseCellKey round-trip = %+v, %v", back, err)
	}
	for _, bad := range []string{"", "a|b", "a|b|x|1", "a|b|1|x", "a|b|1|1|extra"} {
		if _, err := ParseCellKey(bad); err == nil {
			t.Errorf("ParseCellKey(%q) accepted", bad)
		}
	}
}

// TestSpecByKey: every registered key builds a predictor whose spec Key
// matches the registry key and that replays a short run; unknown keys
// error.
func TestSpecByKey(t *testing.T) {
	keys := SpecKeys()
	if len(keys) < 14 {
		t.Fatalf("SpecKeys() = %v, want at least the 14 registered specs", keys)
	}
	wl, err := workload.ByName("Tomcat")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		ps, err := SpecByKey(k)
		if err != nil {
			t.Fatalf("SpecByKey(%s): %v", k, err)
		}
		if ps.Key != k {
			t.Errorf("spec %q reports key %q", k, ps.Key)
		}
		clock := &predictor.Clock{}
		p, err := ps.Build(clock)
		if err != nil {
			t.Fatalf("spec %q: build: %v", k, err)
		}
		res, err := sim.Run(wl, p, sim.Options{WarmupBranches: 1_000, MeasureBranches: 1_000, Clock: clock})
		if err != nil {
			t.Fatalf("spec %q: run: %v", k, err)
		}
		if res.CondBranches == 0 {
			t.Errorf("spec %q measured no conditional branches", k)
		}
	}
	if _, err := SpecByKey("tage9000"); err == nil {
		t.Error("unknown spec key must error")
	}
}

// TestCellSpecValidate: bad workloads, predictors and budgets are
// rejected before any simulation starts.
func TestCellSpecValidate(t *testing.T) {
	good := CellSpec{Workload: "Tomcat", Predictor: "64k", Warmup: 10, Measure: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("valid cell rejected: %v", err)
	}
	for _, bad := range []CellSpec{
		{Workload: "NoSuch", Predictor: "64k", Measure: 100},
		{Workload: "Tomcat", Predictor: "nope", Measure: 100},
		{Workload: "Tomcat", Predictor: "64k", Measure: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("cell %+v accepted", bad)
		}
	}
}

// TestRunCellMatchesRunBudget: RunCell and the classic Run path must
// produce the same memoized cell — same key, same cached value — so the
// served and local worlds agree on cell identity.
func TestRunCellMatchesRunBudget(t *testing.T) {
	h := NewHarness(Config{Warmup: 2_000, Measure: 10_000})
	cs := CellSpec{Workload: "Kafka", Predictor: "64k", Warmup: 2_000, Measure: 10_000}
	out1, err := h.RunCell(context.Background(), cs)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.ByName("Kafka")
	if err != nil {
		t.Fatal(err)
	}
	out2, err := h.Run(wl, Spec64K())
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Error("RunCell and Run must share one memoized cell")
	}
	if out1.Res.MPKI <= 0 {
		t.Errorf("MPKI = %v, want positive", out1.Res.MPKI)
	}
}

// TestRemoteBackend: with Cfg.Remote set, headline cells are computed by
// the remote runner (exactly once per unique cell, memoized), and the
// results flow through the normal cache.
func TestRemoteBackend(t *testing.T) {
	var calls atomic.Int32
	local := NewHarness(Config{Warmup: 2_000, Measure: 10_000})
	cfg := Config{Warmup: 2_000, Measure: 10_000}
	cfg.Remote = func(ctx context.Context, spec CellSpec) (*RunOutput, error) {
		calls.Add(1)
		return local.RunCell(ctx, spec)
	}
	h := NewHarness(cfg)
	wl, err := workload.ByName("Kafka")
	if err != nil {
		t.Fatal(err)
	}
	out1, err := h.Run(wl, Spec64K())
	if err != nil {
		t.Fatal(err)
	}
	out2, err := h.Run(wl, Spec64K())
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("remote called %d times for one unique cell, want 1 (memoized)", calls.Load())
	}
	if out1 != out2 {
		t.Error("repeated remote cell must hit the memo cache")
	}

	// The remote value must round-trip to the same bytes a local run
	// journals — the byte-identity contract of served execution.
	ref, err := local.RunCell(context.Background(), CellSpec{Workload: "Kafka", Predictor: "64k", Warmup: 2_000, Measure: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(out1)
	b, _ := json.Marshal(ref)
	if string(a) != string(b) {
		t.Error("remote and local cell values must serialize identically")
	}
}

// TestCellProgress: locally simulated cells report periodic progress
// with the cell key and a final processed count equal to the budget.
func TestCellProgress(t *testing.T) {
	type tick struct {
		key              string
		processed, total uint64
	}
	var ticks []tick
	cfg := Config{Warmup: 2_000, Measure: 10_000}
	cfg.CellProgress = func(key string, processed, total uint64) {
		ticks = append(ticks, tick{key, processed, total})
	}
	h := NewHarness(cfg)
	cs := CellSpec{Workload: "Kafka", Predictor: "64k", Warmup: 2_000, Measure: 10_000}
	if _, err := h.RunCell(context.Background(), cs); err != nil {
		t.Fatal(err)
	}
	if len(ticks) == 0 {
		t.Fatal("no progress ticks for a 12k-branch cell")
	}
	for i, tk := range ticks {
		if tk.key != cs.Key() || tk.total != 12_000 {
			t.Fatalf("tick %d = %+v, want key %s total 12000", i, tk, cs.Key())
		}
		if i > 0 && tk.processed <= ticks[i-1].processed {
			t.Fatalf("progress not monotonic at tick %d: %d then %d", i, ticks[i-1].processed, tk.processed)
		}
	}
}
