// Package history implements the branch-history machinery shared by the
// TAGE-SC-L baseline and LLBP: a long global history register (GHR) and
// the Engine that maintains every folded (cyclic-shift-register) history
// the predictors hash thousands of history bits through.
//
// One Engine per predictor owns the GHR and all folds, so TAGE, the
// statistical corrector and LLBP compute identical hashes for identical
// history lengths — a requirement for the paper's longest-match
// arbitration between TAGE and LLBP (§V-B).
package history

import "llbp/internal/assert"

// MaxLength is the capacity of the global history register in bits.
// Supported fold lengths are [0, MaxLength): a fold of length L retires
// Bit(L) on every push, and Bit(MaxLength) would alias the newest bit.
// The paper's longest table uses 3000 bits; 4096 leaves headroom.
const MaxLength = 4096

// Global is a global branch-history register of up to MaxLength bits,
// stored as a circular bit buffer. Bit 0 is the most recent outcome.
type Global struct {
	bits [MaxLength / 64]uint64
	head int // index of the most recent bit
}

// NewGlobal returns an empty global history register.
func NewGlobal() *Global { return &Global{} }

// Push shifts a new outcome bit into the history.
func (g *Global) Push(taken bool) {
	g.head = (g.head + 1) & (MaxLength - 1)
	word, off := g.head/64, uint(g.head%64)
	if taken {
		g.bits[word] |= 1 << off
	} else {
		g.bits[word] &^= 1 << off
	}
}

// Bit returns the i-th most recent outcome (i=0 is the last pushed bit).
// i must be < MaxLength.
func (g *Global) Bit(i int) uint64 {
	// MaxLength is a power of two, so the unsigned wrap-around of
	// head-i masks to the right circular position branch-free, and the
	// masked value proves the array index in range to the compiler.
	pos := uint(g.head-i) & (MaxLength - 1)
	return (g.bits[pos/64] >> (pos % 64)) & 1
}

// Hash folds the most recent length bits of history into a width-bit value
// by XOR-folding. This is the "recompute from scratch" reference the
// Engine's incrementally maintained folds are validated against (and
// seeded from on late registration); predictors read the Engine.
// Callers must pass a validated width in [1,63]; debug builds
// (-tags llbpdebug) panic on violations, release builds return 0.
func (g *Global) Hash(length, width int) uint64 {
	if width <= 0 || width > 63 {
		assert.Failf("history: invalid fold width %d", width)
		return 0
	}
	var h, chunk uint64
	n := 0
	for i := 0; i < length; i++ {
		chunk |= g.Bit(i) << uint(n)
		n++
		if n == width {
			h ^= chunk
			chunk, n = 0, 0
		}
	}
	return h ^ chunk
}
