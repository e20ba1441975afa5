// Package sim is a determinism fixture standing in for a simulation
// package (its import path has no allowlisted segment).
package sim

import (
	"maps"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// Clock reads the wall clock — forbidden in simulation code.
func Clock() int64 {
	t := time.Now() // want `time\.Now depends on the wall clock`
	return t.UnixNano()
}

// Jitter sleeps — timing-dependent, forbidden.
func Jitter() {
	time.Sleep(time.Millisecond) // want `time\.Sleep depends on the wall clock`
}

// PureTime uses only pure time constructors — allowed.
func PureTime() time.Duration {
	return 3 * time.Millisecond
}

// Draw uses the global auto-seeded RNG — forbidden.
func Draw() int {
	return rand.Intn(10) // want `global auto-seeded RNG`
}

// Shuffle uses the global RNG too.
func Shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `global auto-seeded RNG`
}

// Seeded owns an explicitly seeded generator — the sanctioned pattern.
func Seeded(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(10)
}

// Sum iterates a map directly — order-dependent, forbidden.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m { // want `map iteration order is nondeterministic`
		total += v
	}
	return total
}

// SumSorted uses the collect-then-sort idiom; the key-collecting range
// is recognized and allowed.
func SumSorted(m map[string]int) int {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

// SumCollected ranges over maps.Keys collected into a slice: the slice
// is still in map order, so the two-statement loop is flagged like a
// range over the map itself.
func SumCollected(m map[string]int) (int, string) {
	total, last := 0, ""
	for _, k := range slices.Collect(maps.Keys(m)) { // want `loop follows the map order maps\.Keys yields`
		total += m[k]
		last = k
	}
	return total, last
}

// SumKeysSorted ranges over sorted keys, the shape -fix writes:
// allowed.
func SumKeysSorted(m map[string]int) (int, string) {
	total, last := 0, ""
	for _, k := range slices.Sorted(maps.Keys(m)) {
		total += m[k]
		last = k
	}
	return total, last
}

// Clear deletes every entry — order cannot matter, allowed.
func Clear(m map[string]int) {
	for k := range m {
		delete(m, k)
	}
}

// Count carries a justified allow directive — suppressed.
func Count(m map[string]int) int {
	n := 0
	//llbplint:allow determinism -- commutative count; iteration order cannot affect the result
	for range m {
		n++
	}
	return n
}

// Bad carries an unjustified directive: it suppresses nothing and is
// itself diagnosed.
func Bad(m map[string]int) int {
	n := 0
	//llbplint:allow determinism // want `missing justification`
	for range m { // want `map iteration order is nondeterministic`
		n++
	}
	return n
}
