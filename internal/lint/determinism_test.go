package lint_test

import (
	"testing"

	"llbp/internal/lint"
	"llbp/internal/lint/analysistest"
)

// TestDeterminism covers flagged wall-clock/RNG/map-order cases in a
// simulation package and in the chaos harness, and the harness and cmd
// allowlists (no findings).
func TestDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Determinism, "sim", "chaos", "harness", "cmd/tool")
}

// TestInjectable covers determinism's service rule, which keeps the
// service stack's clocks and randomness injectable: sleeps and global
// RNG draws are flagged; timers, clock reads, seeded sources, injected
// clocks and map loops are not; a justified suppression holds.
func TestInjectable(t *testing.T) {
	analysistest.Run(t, "testdata", lint.Determinism, "service")
}

// TestOneFindingPerCall runs every per-package analyzer over the chaos
// and service fixtures, whose wants are all determinism-scoped: each
// sleep and global RNG draw is reported exactly once, by determinism,
// and any other analyzer's report there is unexpected.
func TestOneFindingPerCall(t *testing.T) {
	for _, a := range lint.All() {
		if a.Run != nil {
			analysistest.Run(t, "testdata", a, "chaos", "service")
		}
	}
}
