// Package service is the determinism fixture for the service rule: its
// import path carries the "service" segment, so failure timing must flow
// through injectable clocks and seeded randomness. Wall-clock reads,
// timers and map loops are the service's business and stay quiet. The
// wants are determinism-scoped so that TestOneFindingPerCall can run the
// other analyzers over this package and expect nothing from them.
package service

import (
	"context"
	"math/rand"
	"time"
)

// BadWait blocks on the wall clock — flagged.
func BadWait() {
	time.Sleep(100 * time.Millisecond) // want determinism:`time\.Sleep blocks on the wall clock`
}

// BadJitter draws from the global auto-seeded RNG — flagged.
func BadJitter() int {
	return rand.Intn(100) // want determinism:`math/rand\.Intn uses the global auto-seeded RNG`
}

// GoodWait selects on a timer and the context: tests can cancel it, and
// nothing hides from the scheduler.
func GoodWait(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// GoodJitter owns a seeded generator; replayable from the seed.
func GoodJitter(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(100)
}

// JustifiedSleep carries an in-code justification and is suppressed.
func JustifiedSleep() {
	time.Sleep(time.Millisecond) //llbplint:allow determinism -- fixture: demonstrating the suppression syntax
}

// Clocked reads the wall clock through an injected now func — the
// sanctioned pattern for lease arithmetic.
func Clocked(now func() time.Time, ttl time.Duration) time.Time {
	return now().Add(ttl)
}

// Stamp reads the wall clock: service business, not flagged.
func Stamp() time.Time { return time.Now() }

// Pending ranges over a map: not flagged in a service package either.
func Pending(m map[string]bool) int {
	n := 0
	for _, waiting := range m {
		if waiting {
			n++
		}
	}
	return n
}
