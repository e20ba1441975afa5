package core

import "testing"

// BenchmarkMicro exposes the per-component hot-path benchmarks to
// `go test -bench` under stable sub-benchmark names.
func BenchmarkMicro(b *testing.B) {
	for _, m := range Microbenches() {
		b.Run(m.Name, func(b *testing.B) { m.Run(b.N) })
	}
}

// TestMicrobenchesRun smoke-runs every microbenchmark closure so a
// broken fabrication (e.g. a config change that invalidates the
// fabricated context) fails in tests, not first in CI's bench job.
func TestMicrobenchesRun(t *testing.T) {
	for _, m := range Microbenches() {
		m.Run(16)
	}
}
