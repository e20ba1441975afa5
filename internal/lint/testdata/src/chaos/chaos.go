// Package chaos is the determinism fixture for the chaos harness: its
// import path carries no exempt segment, so every determinism rule
// applies, and a sleep or a global-RNG draw is reported exactly once.
// The wants are determinism-scoped so that TestOneFindingPerCall can run
// the other analyzers over this package and expect nothing from them.
package chaos

import (
	"math/rand"
	"time"
)

// Stall sleeps on the wall clock — flagged once.
func Stall() {
	time.Sleep(time.Millisecond) // want determinism:`time\.Sleep depends on the wall clock`
}

// Pick draws from the global RNG — flagged once.
func Pick(n int) int {
	return rand.Intn(n) // want determinism:`math/rand\.Intn uses the global auto-seeded RNG`
}

// Scenario owns a generator seeded from configuration — the sanctioned
// shape.
func Scenario(seed int64, n int) int {
	return rand.New(rand.NewSource(seed)).Intn(n)
}
