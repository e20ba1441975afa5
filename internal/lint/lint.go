// Package lint is the llbplint analyzer suite: custom static checks that
// enforce the simulator's cross-cutting invariants at compile time rather
// than by convention. See DESIGN.md §8 for the policy rationale.
//
// Four per-package analyzers:
//
//   - determinism: no wall clocks, global RNG or map-order loops inside
//     simulation packages (results must be bit-exact and
//     seed-reproducible, PAPER.md §5), and no time.Sleep or global RNG
//     draw in service packages (failure timing and chaos randomness must
//     be injectable, Options.Now and seeded streams, so scenarios replay
//     from a seed).
//   - bitmask: indices into power-of-two-sized tables must be masked or
//     reduced modulo the table size; constant mask/size mismatches are
//     flagged (the static counterpart of internal/history's runtime
//     width panics).
//   - telemetrysafe: instruments from internal/telemetry are constructed
//     only by a Registry; literal instrument names must be snake_case
//     (the scheme cmd/telemetrycheck requires in CI); instrument updates
//     in service packages do not allocate.
//   - nopanic: library code must not panic outside constructor-time
//     config validation (New*/Must*/init); hot-path contract violations
//     go through internal/assert or the PR-1 RunError machinery.
//
// Four whole-program analyzers run on the summary-based dataflow engine
// in internal/lint/dataflow (DESIGN.md §13):
//
//   - detflow: interprocedural taint from nondeterminism sources to
//     determinism-critical sinks, with //llbplint:source / sink /
//     sanitizer annotations in the code.
//   - fencecheck: writes to //llbplint:leased state reachable from
//     worker goroutines must be dominated by an epoch guard.
//   - lockorder: lock-acquisition cycles, mutex re-entry, and
//     telemetry-updates-under-held-locks at call-graph depth in
//     service + telemetry.
//   - hotpath: no allocation and no map access reachable from the
//     per-branch entry points core.Predictor.Predict/UpdateWithTarget
//     and sim.Stepper.Step — the packed hot-path layouts and the shared
//     replay step stay flat array arithmetic; cold miss-driven layers
//     carry //llbplint:allow hotpath justifications.
//
// determinism and detflow read one table of nondeterministic stdlib
// calls (dataflow.Std); telemetrysafe and lockorder share one
// instrument classifier (dataflow.Instrument, dataflow.InstrumentUpdate).
//
// Scope is decided by import-path segments so that both the real module
// ("llbp/internal/harness") and the analysistest fixtures ("harness")
// classify identically. A finding that is intentional is silenced only
// by an in-code justification:
//
//	//llbplint:allow determinism -- commutative reduction; order cannot leak
package lint

import (
	"strings"

	"llbp/internal/lint/analysis"
)

// All returns the llbplint analyzer suite in stable order: the
// per-package analyzers first, then the whole-program dataflow
// analyzers.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Determinism, Bitmask, TelemetrySafe, NoPanic, Detflow, Fencecheck, Lockorder, Hotpath}
}

// hasSegment reports whether any "/"-separated segment of the import
// path equals one of segs.
func hasSegment(path string, segs ...string) bool {
	for _, part := range strings.Split(path, "/") {
		for _, s := range segs {
			if part == s {
				return true
			}
		}
	}
	return false
}

// lastSegment returns the final "/"-separated segment of the path.
func lastSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
