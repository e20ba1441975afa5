package tsl

import (
	"testing"

	"llbp/internal/lint"
	"llbp/internal/telemetry"
)

// TestStatsAndTelemetryAgree drives a mixed stream through the composite
// and checks the two observability surfaces — the public Stats() snapshot
// and the counters ReportCounts publishes through a telemetry.Publisher
// — report identical values.
func TestStatsAndTelemetryAgree(t *testing.T) {
	p := MustNew(Config64K())
	reg := telemetry.NewRegistry()
	pub := telemetry.NewPublisher(reg)
	p.ReportCounts(pub) // baseline

	const n = 30000
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pc := 0x1000 + (rng%31)*4
		taken := (rng>>8)&7 != 0
		p.Predict(pc)
		p.Update(pc, taken)
	}
	p.ReportCounts(pub)

	s := p.Stats()
	if s.Predictions != n {
		t.Fatalf("Stats().Predictions = %d, want %d", s.Predictions, n)
	}
	if sum := s.ProviderBimodal + s.ProviderTAGE + s.ProviderLoop + s.ProviderSC; sum != s.Predictions {
		t.Errorf("provider breakdown sums to %d, want %d", sum, s.Predictions)
	}

	snap := reg.Snapshot()
	mirror := map[string]uint64{
		"tsl_predictions":     s.Predictions,
		"loop_uses":           s.LoopUses,
		"sc_reversals":        s.SCReversals,
		"tage_allocs":         s.TAGEAllocs,
		"tage_alloc_failures": s.TAGEAllocFailures,
		"provider_bimodal":    s.ProviderBimodal,
		"provider_tage":       s.ProviderTAGE,
		"provider_loop":       s.ProviderLoop,
		"provider_sc":         s.ProviderSC,
	}
	for name, want := range mirror {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, Stats says %d", name, got, want)
		}
	}
	if s.TAGEAllocs == 0 {
		t.Error("stream too tame: no TAGE allocations exercised")
	}
	// Names reach the registry at run time, where the telemetrysafe
	// analyzer cannot check them.
	for name := range snap.Counters {
		if !lint.SnakeCase.MatchString(name) {
			t.Errorf("counter name %q is not snake_case", name)
		}
	}
	for name := range snap.Histograms {
		if !lint.SnakeCase.MatchString(name) {
			t.Errorf("histogram name %q is not snake_case", name)
		}
	}
}
