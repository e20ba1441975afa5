package service

// Cost bound for the service instrumentation (ISSUE acceptance): with
// telemetry disabled — nil Registry, nil EventLog, nil Tracer — the
// observability hooks on the service hot path must cost under 2% of the
// work they observe. The bound is derived the same way the predictor's
// telemetry bound is (bench_test.go): measure one nil-instrument
// operation, multiply by the operation count on the path, and compare
// against the measured cost of the real path — two end-to-end timings
// would be hopelessly noisy in shared CI.

import (
	"math"
	"testing"
	"time"

	"llbp/internal/experiments"
	"llbp/internal/telemetry"
)

// svcTelOpsPerTick is the number of instrument operations the per-cell
// accounting path adds per progress tick with telemetry disabled: the
// cellDur.Observe in runJob. The event/span emissions are pointer-nil
// branches, cheaper still, and CellProgress itself deliberately carries
// no instruments.
const svcTelOpsPerTick = 1

// Each round of TestDisabledServiceTelemetryOverhead times this many
// nil instrument operations, then this many progress ticks: about 0.3 s
// each on an idle 2-vCPU host.
const (
	overheadRounds = 5
	overheadNilOps = 1 << 27
	overheadTicks  = 1 << 20
)

// progressServer boots a telemetry-configured server with one wedged
// single-cell job so its cell is tracked in the running set, and returns
// the server plus the cell key for CellProgress ticks.
func progressServer(tb testing.TB, reg *telemetry.Registry) (*Server, string) {
	tb.Helper()
	stub := newStubRunner()
	s, err := New(Options{Runner: stub, Workers: 1, LeaseTTL: time.Hour, Registry: reg})
	if err != nil {
		tb.Fatal(err)
	}
	s.Start()
	tb.Cleanup(s.Kill)
	cell := testCell(999)
	if _, _, err := s.Submit(JobRequest{Schema: JobSchema, Cells: []experiments.CellSpec{cell}}); err != nil {
		tb.Fatal(err)
	}
	waitStart(tb, stub)
	return s, cell.Key()
}

// nsPerOp runs loop, which performs n operations, and returns the
// wall-clock nanoseconds per operation.
func nsPerOp(n int, loop func()) float64 {
	t0 := time.Now()
	loop()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// TestDisabledServiceTelemetryOverhead bounds the disabled-telemetry
// cost of the service hot path: one nil Histogram.Observe per progress
// tick against the measured cost of a real CellProgress tick (lease
// heartbeat included), the finest-grained unit of per-cell work the
// service performs. The two loops alternate over overheadRounds rounds
// and the bound compares each loop's fastest round, so load from other
// processes can raise the ratio only by slowing every nil-op round.
func TestDisabledServiceTelemetryOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing bound is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing test")
	}
	s, key := progressServer(t, nil)
	var h *telemetry.Histogram
	var processed uint64
	total := uint64(overheadRounds*overheadTicks) + 1
	nilNs, tickNs := math.Inf(1), math.Inf(1)
	for r := 0; r < overheadRounds; r++ {
		nilNs = min(nilNs, nsPerOp(overheadNilOps, func() {
			for i := 0; i < overheadNilOps; i++ {
				h.Observe(1)
			}
		}))
		tickNs = min(tickNs, nsPerOp(overheadTicks, func() {
			for i := 0; i < overheadTicks; i++ {
				processed++
				s.CellProgress(key, processed, total)
			}
		}))
	}
	frac := svcTelOpsPerTick * nilNs / tickNs
	t.Logf("fastest of %d rounds: nil instrument op: %.3gns, progress tick: %.4gns, derived overhead: %.3g%%",
		overheadRounds, nilNs, tickNs, frac*100)
	if frac >= 0.02 {
		t.Errorf("disabled service telemetry costs %.2f%% of a progress tick, want < 2%%", frac*100)
	}
}

// BenchmarkServiceProgressOverhead times the CellProgress tick with
// telemetry disabled and enabled side by side; CI publishes both next to
// the derived bound above.
func BenchmarkServiceProgressOverhead(b *testing.B) {
	for _, variant := range []struct {
		name string
		reg  *telemetry.Registry
	}{
		{"disabled", nil},
		{"enabled", telemetry.NewRegistry()},
	} {
		b.Run(variant.name, func(b *testing.B) {
			s, key := progressServer(b, variant.reg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.CellProgress(key, uint64(i), uint64(b.N)+1)
			}
		})
	}
}
