// Package tage implements the TAGE (TAgged GEometric history length)
// conditional branch predictor at the heart of TAGE-SC-L, in both its
// finite-capacity form and the paper's infinite-capacity construction
// (patterns tagged with the full branch PC, unbounded associativity,
// unchanged hash functions — §II-C).
package tage

import (
	"fmt"

	"llbp/internal/history"
)

// DefaultHistLengths is the geometric history-length series of the
// modelled 64KiB TAGE-SC-L: 21 tagged tables spanning 4..3000 bits of
// global history. The series is chosen so that it contains, as an exact
// subset, the 12 base history lengths LLBP uses (12, 26, 54, 78, 112, 161,
// 232, 336, 482, 695, 1444, 3000 — §VI), which the paper requires for the
// longest-match arbitration between TAGE and LLBP.
var DefaultHistLengths = []int{
	4, 6, 8, 10, 12, 17, 21, 26, 38, 54, 78, 112,
	161, 232, 336, 482, 695, 1002, 1444, 2081, 3000,
}

// Config parameterizes a TAGE instance.
type Config struct {
	// HistLengths holds the global-history length of each tagged table,
	// in increasing order.
	HistLengths []int
	// TagBits holds the partial-tag width of each tagged table. Must be
	// the same length as HistLengths.
	TagBits []int
	// LogEntries holds log2 of the number of entries of each tagged
	// table (ignored in Infinite mode). Must match HistLengths.
	LogEntries []int
	// BimodalLog is log2 of the bimodal table size.
	BimodalLog int
	// CounterBits is the width of the signed prediction counter
	// (3 in the modelled design: values -4..+3).
	CounterBits int
	// Infinite selects the unbounded-capacity mode: every pattern is
	// additionally tagged with its full branch PC and tables have
	// unbounded associativity, exactly the paper's Inf construction.
	Infinite bool
	// PathBits is the length of the path-history register.
	PathBits int
	// Seed initializes the allocator's PRNG; simulations are
	// deterministic for a fixed seed.
	Seed uint64
}

// DefaultConfig returns the 64KiB-budget configuration: 21 tagged tables of
// 1K entries each (the paper's 64K TSL baseline; §VI notes 1K entries per
// table, and the energy model charges 21 tables × (12b tag + 3b ctr + 1b
// useful)).
func DefaultConfig() Config {
	n := len(DefaultHistLengths)
	cfg := Config{
		HistLengths: append([]int(nil), DefaultHistLengths...),
		TagBits:     make([]int, n),
		LogEntries:  make([]int, n),
		BimodalLog:  14,
		CounterBits: 3,
		PathBits:    27,
		Seed:        0x5eed_11bb,
	}
	for i := range cfg.TagBits {
		// Tag width grows with history length, as in the CBP-5
		// design: 9 bits for the short tables up to 13 bits for the
		// longest ones (13 is also LLBP's pattern-tag width).
		switch {
		case i < 7:
			cfg.TagBits[i] = 9
		case i < 14:
			cfg.TagBits[i] = 11
		default:
			cfg.TagBits[i] = 13
		}
		cfg.LogEntries[i] = 10
	}
	return cfg
}

// Scaled returns a copy of the configuration with every tagged table's
// entry count multiplied by 2^logFactor (the paper's 512K TSL scales the
// 64K design by 8×, i.e. logFactor=3). The bimodal table is not scaled,
// matching §VI ("the number of table entries is scaled up ... from 1K
// entries to 8K entries per table").
func (c Config) Scaled(logFactor int) Config {
	out := c
	out.LogEntries = make([]int, len(c.LogEntries))
	for i, l := range c.LogEntries {
		out.LogEntries[i] = l + logFactor
	}
	return out
}

// InfiniteConfig returns the unbounded-capacity variant of c.
func (c Config) InfiniteConfig() Config {
	out := c
	out.Infinite = true
	return out
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	n := len(c.HistLengths)
	if n == 0 {
		return fmt.Errorf("tage: no tagged tables configured")
	}
	if len(c.TagBits) != n || len(c.LogEntries) != n {
		return fmt.Errorf("tage: TagBits/LogEntries length mismatch (%d/%d vs %d tables)",
			len(c.TagBits), len(c.LogEntries), n)
	}
	prev := 0
	for i, h := range c.HistLengths {
		if h <= prev {
			return fmt.Errorf("tage: history lengths must be strictly increasing (table %d: %d after %d)", i, h, prev)
		}
		if h >= history.MaxLength {
			return fmt.Errorf("tage: table %d history length %d out of range [1,%d)", i, h, history.MaxLength)
		}
		prev = h
		if c.TagBits[i] < 4 || c.TagBits[i] > 16 {
			return fmt.Errorf("tage: table %d tag width %d out of range [4,16]", i, c.TagBits[i])
		}
		if !c.Infinite && (c.LogEntries[i] < 4 || c.LogEntries[i] > 24) {
			return fmt.Errorf("tage: table %d logEntries %d out of range [4,24]", i, c.LogEntries[i])
		}
	}
	if c.BimodalLog < 2 || c.BimodalLog > 28 {
		return fmt.Errorf("tage: bimodalLog %d out of range [2,28]", c.BimodalLog)
	}
	if c.CounterBits < 2 || c.CounterBits > 7 {
		return fmt.Errorf("tage: counterBits %d out of range [2,7]", c.CounterBits)
	}
	if c.PathBits <= 0 || c.PathBits > 32 {
		return fmt.Errorf("tage: pathBits %d out of range [1,32]", c.PathBits)
	}
	return nil
}

// StorageBits returns the storage cost of the tagged tables plus the
// bimodal table, in bits. Infinite configurations return -1 (unbounded).
func (c Config) StorageBits() int {
	if c.Infinite {
		return -1
	}
	bits := 0
	for i := range c.HistLengths {
		entry := c.TagBits[i] + c.CounterBits + 1 // tag + ctr + useful
		bits += entry << uint(c.LogEntries[i])
	}
	bits += (1 << uint(c.BimodalLog)) + (1 << uint(c.BimodalLog-2)) // bimodal pred + shared hyst
	return bits
}
