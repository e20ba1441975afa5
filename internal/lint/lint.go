// Package lint is the llbplint analyzer suite: custom static checks that
// enforce the simulator's cross-cutting invariants at compile time rather
// than by convention. See DESIGN.md §8 for the policy rationale.
//
// Analyzers:
//
//   - determinism: no wall clocks, global RNG or map-iteration-order
//     dependence inside simulation packages (results must be bit-exact
//     and seed-reproducible, PAPER.md §5).
//   - bitmask: indices into power-of-two-sized tables must be masked or
//     reduced modulo the table size; constant mask/size mismatches are
//     flagged (the static counterpart of internal/history's runtime
//     width panics).
//   - telemetrysafe: instruments from internal/telemetry are used only
//     through their nil-safe methods and constructed only by a Registry;
//     literal instrument names must be snake_case (the scheme
//     cmd/telemetrycheck requires in CI).
//   - nopanic: library code must not panic outside constructor-time
//     config validation (New*/Must*/init); hot-path contract violations
//     go through internal/assert or the PR-1 RunError machinery.
//   - injectable: the service stack (service, chaos segments) must not
//     call time.Sleep or draw from the global math/rand — failure timing
//     and chaos randomness have to be injectable (Options.Now, seeded
//     streams) so scenarios replay deterministically from a seed.
//
// On top of the per-package analyzers, three whole-program analyzers
// run on the summary-based dataflow engine in internal/lint/dataflow
// (DESIGN.md §13):
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
// Scope is decided by import-path segments so that both the real module
// ("llbp/internal/harness") and the analysistest fixtures ("harness")
// classify identically. Findings that are intentional carry an in-code
// justification:
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
	return []*analysis.Analyzer{Determinism, Bitmask, TelemetrySafe, NoPanic, Injectable, Detflow, Fencecheck, Lockorder, Hotpath}
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
