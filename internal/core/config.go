package core

import (
	"fmt"

	"llbp/internal/history"
)

// Config parameterizes an LLBP instance. DefaultConfig returns the
// evaluated design point of §VI; the Figure 13/14 studies vary CtxType,
// D, NumContexts, PatternsPerSet, FullAssocCD and Buckets.
type Config struct {
	// HistLengths are LLBP's allowed pattern history lengths (16 in the
	// evaluated design, a subset of the baseline TAGE's lengths).
	HistLengths []HistLen
	// TagBits is the pattern-tag width (13).
	TagBits int
	// CtrBits is the prediction-counter width (3).
	CtrBits int
	// PatternsPerSet is the pattern-set size (16).
	PatternsPerSet int
	// Buckets is the number of history-length buckets per set (4);
	// 0 disables bucketing (free-form sets, the Figure 14 study mode).
	Buckets int
	// NumContexts is the pattern-set capacity of LLBP storage (14336 =
	// 2048 CD sets × 7 ways).
	NumContexts int
	// CDSets is the number of context-directory sets (2048). Ignored
	// when FullAssocCD is set.
	CDSets int
	// CIDBits is the context-ID width (14; the Figure 14 study uses 31).
	CIDBits int
	// FullAssocCD selects the fully associative context index of the
	// Figure 14 study.
	FullAssocCD bool
	// PBEntries and PBWays size the pattern buffer (64, 4).
	PBEntries int
	PBWays    int
	// W is the RCR hash window and D the prefetch distance, both counted
	// in context-feeding branches (8 and 4).
	W int
	D int
	// CtxType selects which branches feed the RCR (Figure 13).
	CtxType ContextType
	// PrefetchDelay is the CD+LLBP sequential access latency in cycles
	// (6, from the CACTI study plus one logic cycle); 0 models the
	// LLBP-0Lat configuration.
	PrefetchDelay float64
	// ShiftedHash enables the position-shifted CID hash (§V-E3); false
	// is the plain-XOR ablation.
	ShiftedHash bool
	// ReplacementLRU replaces the confidence-based pattern-set
	// replacement with plain LRU — the policy §V-D found to be poor;
	// kept as an ablation.
	ReplacementLRU bool
	// AutoDisable implements the §V power optimization ("when the
	// accuracy of TAGE is sufficiently high, LLBP can be disabled to
	// save power"): prediction-side LLBP activity is monitored over
	// windows of DisableWindow conditional branches. LLBP powers down
	// for a few windows when either (a) the baseline alone mispredicted
	// less than DisableMissFrac of the window — TAGE is sufficiently
	// accurate — or (b) LLBP was matching frequently yet its net
	// override benefit stayed below DisableThreshold. The first few
	// windows are a warm-up grace period, and every sleep ends in a
	// probation window so phase changes re-enable LLBP.
	AutoDisable bool
	// DisableWindow is the evaluation window in conditional branches
	// (default 32768 when AutoDisable is set).
	DisableWindow int
	// DisableThreshold is the minimum net useful overrides (good minus
	// bad) per window that keeps a frequently-matching LLBP enabled
	// (default 8).
	DisableThreshold int
	// DisableMissFrac is the baseline misprediction fraction below
	// which TAGE counts as "sufficiently accurate" (default 0.002).
	DisableMissFrac float64
	// Label overrides the derived name.
	Label string
}

// DefaultConfig returns the paper's evaluated 512KB LLBP design point.
func DefaultConfig() Config {
	return Config{
		HistLengths:    append([]HistLen(nil), DefaultHistLengths...),
		TagBits:        13,
		CtrBits:        3,
		PatternsPerSet: 16,
		Buckets:        4,
		NumContexts:    14336,
		CDSets:         2048,
		CIDBits:        14,
		PBEntries:      64,
		PBWays:         4,
		W:              8,
		D:              4,
		CtxType:        CtxUncond,
		PrefetchDelay:  6,
		ShiftedHash:    true,
		Label:          "LLBP",
	}
}

// ZeroLatConfig returns the LLBP-0Lat configuration used to quantify the
// cost of late prefetches (§VI).
func ZeroLatConfig() Config {
	c := DefaultConfig()
	c.PrefetchDelay = 0
	c.Label = "LLBP-0Lat"
	return c
}

// VirtualizedConfig models the §V-A future-work variant in which LLBP's
// bulk storage is virtualized into the L2 cache instead of a dedicated
// array: pattern-set transfers pay an L2-like access latency, and the
// prefetch distance is doubled to buy the prefetcher more lead time.
func VirtualizedConfig() Config {
	c := DefaultConfig()
	c.PrefetchDelay = 16 // L2 hit latency at 4GHz
	c.D = 8
	c.Label = "LLBP-Virt"
	return c
}

// AutoDisableConfig returns the default design with the §V power
// optimization enabled.
func AutoDisableConfig() Config {
	c := DefaultConfig()
	c.AutoDisable = true
	c.DisableWindow = 32768
	c.DisableThreshold = 8
	c.DisableMissFrac = 0.002
	c.Label = "LLBP-AutoOff"
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.HistLengths) == 0 {
		return fmt.Errorf("core: no history lengths configured")
	}
	prev := 0
	for i, h := range c.HistLengths {
		if h.Len < prev {
			return fmt.Errorf("core: history lengths must be non-decreasing (index %d: %d after %d)", i, h.Len, prev)
		}
		if h.Len == prev && !h.AltHash && i > 0 && !c.HistLengths[i-1].AltHash {
			return fmt.Errorf("core: duplicate history length %d without AltHash", h.Len)
		}
		if h.Len >= history.MaxLength {
			return fmt.Errorf("core: history length %d (index %d) out of range [0,%d)", h.Len, i, history.MaxLength)
		}
		prev = h.Len
	}
	if len(c.HistLengths) > 256 {
		return fmt.Errorf("core: at most 256 history lengths supported")
	}
	if c.TagBits < 4 || c.TagBits > 31 {
		return fmt.Errorf("core: tagBits %d out of range [4,31]", c.TagBits)
	}
	if c.CtrBits < 2 || c.CtrBits > 7 {
		return fmt.Errorf("core: ctrBits %d out of range [2,7]", c.CtrBits)
	}
	if c.PatternsPerSet <= 0 || c.PatternsPerSet > 256 {
		return fmt.Errorf("core: patternsPerSet %d out of range [1,256]", c.PatternsPerSet)
	}
	if c.Buckets > 0 && c.PatternsPerSet%c.Buckets != 0 {
		return fmt.Errorf("core: patternsPerSet %d not divisible by %d buckets", c.PatternsPerSet, c.Buckets)
	}
	if c.NumContexts <= 0 {
		return fmt.Errorf("core: numContexts %d must be positive", c.NumContexts)
	}
	if !c.FullAssocCD {
		if c.CDSets <= 0 || c.CDSets&(c.CDSets-1) != 0 {
			return fmt.Errorf("core: CDSets %d must be a positive power of two", c.CDSets)
		}
		if c.NumContexts%c.CDSets != 0 {
			return fmt.Errorf("core: numContexts %d not divisible by CDSets %d", c.NumContexts, c.CDSets)
		}
	}
	if c.CIDBits < 4 || c.CIDBits > 63 {
		return fmt.Errorf("core: cidBits %d out of range [4,63]", c.CIDBits)
	}
	if c.PBEntries <= 0 || c.PBWays <= 0 || c.PBEntries%c.PBWays != 0 {
		return fmt.Errorf("core: invalid PB geometry %d/%d", c.PBEntries, c.PBWays)
	}
	if c.W <= 0 || c.D < 0 {
		return fmt.Errorf("core: invalid RCR window W=%d D=%d", c.W, c.D)
	}
	if c.PrefetchDelay < 0 {
		return fmt.Errorf("core: negative prefetch delay %v", c.PrefetchDelay)
	}
	return nil
}

// PatternBits returns the storage cost of one pattern in bits
// (counter + tag + in-bucket length field).
func (c Config) PatternBits() int {
	lenBits := 2
	if c.Buckets <= 0 {
		// Free-form sets need the full length index.
		lenBits = bitsFor(len(c.HistLengths))
	}
	return c.CtrBits + c.TagBits + lenBits
}

// PatternSetBits returns the storage cost of one pattern set in bits
// (288 in the evaluated design).
func (c Config) PatternSetBits() int { return c.PatternBits() * c.PatternsPerSet }

// StorageBits returns (llbpBits, cdBits, pbBits): the bulk LLBP storage,
// the context directory, and the pattern buffer, in bits. The evaluated
// design is 504KiB + 8.75KiB + 2.25KiB (§VI).
func (c Config) StorageBits() (llbpBits, cdBits, pbBits int) {
	llbpBits = c.PatternSetBits() * c.NumContexts
	cdTag := 3
	if c.FullAssocCD {
		cdTag = c.CIDBits
	} else {
		cdTag = c.CIDBits - bitsFor(c.CDSets-1)
	}
	cdBits = c.NumContexts * (cdTag + 2 + 1) // tag + 2b conf + valid
	pbBits = c.PBEntries * (c.PatternSetBits() + c.CIDBits + 2)
	return
}

// bitsFor returns the number of bits needed to represent values 0..n-1
// (at least 1).
func bitsFor(n int) int {
	b := 1
	for 1<<uint(b) < n {
		b++
	}
	return b
}
