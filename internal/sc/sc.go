// Package sc implements the statistical corrector of TAGE-SC-L: a
// GEHL-style ensemble of signed-counter tables indexed by the branch PC
// hashed with several global-history lengths, plus a bias table. The
// corrector observes TAGE's prediction and flips it when the weighted vote
// disagrees with sufficient confidence — catching statistically biased
// branches that partial matching mispredicts (§II-B).
//
// The corrector keeps no global history of its own: its component folds
// live in the history.Engine of the TAGE it corrects, which advances them
// with the rest of the composite's folds in its one push per branch.
package sc

import (
	"fmt"

	"llbp/internal/history"
)

// Config parameterizes the corrector.
type Config struct {
	// HistLengths are the global-history lengths of the GEHL components
	// in non-decreasing order (0 means a PC-only component).
	HistLengths []int
	// LogEntries is log2 the entry count of every component table.
	LogEntries int
	// CounterBits is the signed counter width.
	CounterBits int
	// DisableLocal removes the local-history component.
	DisableLocal bool
	// DisableIMLI removes the inner-most-loop-iteration component.
	DisableIMLI bool
}

// DefaultConfig returns the corrector configuration used by the modelled
// 64K TSL (sizes chosen so the total predictor budget lands at ~64KiB).
func DefaultConfig() Config {
	return Config{
		HistLengths: []int{0, 3, 8, 16, 27, 44},
		LogEntries:  10,
		CounterBits: 6,
	}
}

// Scaled returns the configuration with component tables scaled by
// 2^logFactor (used by the Inf TSL construction, which grows the auxiliary
// components too).
func (c Config) Scaled(logFactor int) Config {
	out := c
	out.LogEntries += logFactor
	return out
}

// Corrector is a statistical corrector instance.
type Corrector struct {
	cfg    Config
	tables [][]int8
	bias   []int8
	// folds[i] locates component i's (HistLengths[i], LogEntries) fold in
	// the history engine. Locations are fixed at construction and valid
	// in every clone of the engine. Lengths ascend, so the direct
	// components come first: direct[i] is direct component i's window
	// and step count (a PC-only component folds the empty window in no
	// steps), and sched the schedule of their LogEntries-bit folds.
	folds  []history.Loc
	direct []directFold
	sched  history.Schedule

	// Dynamic update threshold (Seznec's adaptive threshold): the
	// corrector trains when |sum| < threshold or on a misprediction, and
	// the threshold adapts to keep flips profitable.
	threshold    int
	thresholdCtr int8

	// Local-history and IMLI components (TAGE-SC-L's corrector votes
	// with more than global history).
	local *localState
	imli  *imliState

	// Scratch between Predict and Update.
	lastSum  int
	lastIdx  []uint32
	lastBias uint32
	lastTage bool
	lastFlip bool
	lastPC   uint64
}

// directFold is one direct component's fold: the window bits it reads,
// 1<<length - 1, and its log-step count (history.FoldSteps).
type directFold struct {
	window uint64
	steps  int
}

// New constructs a corrector whose component folds are registered on eng.
// The corrector never pushes eng: its owner advances it exactly once per
// branch — the outcome of a conditional branch, taken for any other —
// after Update, and passes the same engine (or a clone of it) to Correct.
func New(cfg Config, eng *history.Engine) (*Corrector, error) {
	if len(cfg.HistLengths) == 0 {
		return nil, fmt.Errorf("sc: no components configured")
	}
	if cfg.LogEntries < 4 || cfg.LogEntries > 24 {
		return nil, fmt.Errorf("sc: logEntries %d out of range [4,24]", cfg.LogEntries)
	}
	if cfg.CounterBits < 2 || cfg.CounterBits > 7 {
		return nil, fmt.Errorf("sc: counterBits %d out of range [2,7]", cfg.CounterBits)
	}
	c := &Corrector{
		cfg:       cfg,
		threshold: 5,
		lastIdx:   make([]uint32, len(cfg.HistLengths)),
	}
	c.tables = make([][]int8, len(cfg.HistLengths))
	c.folds = make([]history.Loc, len(cfg.HistLengths))
	for i, h := range cfg.HistLengths {
		if h < 0 || h >= history.MaxLength {
			return nil, fmt.Errorf("sc: history length %d out of range [0,%d)", h, history.MaxLength)
		}
		if i > 0 && h < cfg.HistLengths[i-1] {
			return nil, fmt.Errorf("sc: history lengths must be non-decreasing (component %d: %d after %d)", i, h, cfg.HistLengths[i-1])
		}
		c.tables[i] = make([]int8, 1<<uint(cfg.LogEntries))
		c.folds[i] = eng.Loc(eng.Register(h, cfg.LogEntries))
		if c.folds[i].Direct() {
			c.direct = append(c.direct, directFold{
				window: uint64(1)<<uint(h) - 1,
				steps:  history.FoldSteps(h, cfg.LogEntries),
			})
		}
	}
	c.sched = history.NewSchedule(cfg.LogEntries)
	c.bias = make([]int8, 1<<uint(cfg.LogEntries))
	if !cfg.DisableLocal {
		c.local = newLocalState(8, 11, cfg.LogEntries)
	}
	if !cfg.DisableIMLI {
		c.imli = newIMLIState(cfg.LogEntries)
	}
	return c, nil
}

func (c *Corrector) mask() uint32 { return uint32(1)<<uint(c.cfg.LogEntries) - 1 }

func (c *Corrector) ctrMax() int8 { return int8(1)<<(c.cfg.CounterBits-1) - 1 }
func (c *Corrector) ctrMin() int8 { return -int8(1) << (c.cfg.CounterBits - 1) }

// Correct computes the corrected prediction given TAGE's prediction for
// pc, reading the component folds from eng — the engine New registered
// them on, or a clone of it — before this branch's push. It must be
// followed by exactly one Update for the same branch.
func (c *Corrector) Correct(eng *history.Engine, pc uint64, tageTaken bool, tageConfident bool) bool {
	// The loop state lives in locals; the re-slices prove the per-component
	// indexes in range (New sizes all three per component). The direct
	// components come first and fold the recent window masked to their
	// length; the packed ones read their field. A fold's field mask equals
	// the index mask (each fold is registered at LogEntries bits), so the
	// final mask clears the neighbouring fields' bits and a direct fold's
	// partial sums above its width (AND distributes over XOR). Fold shifts
	// are below 64 (a fold's field lies inside its 64-bit word), so masking
	// the count with 63 changes no value and lets the compiler drop its
	// shift guard.
	tables := c.tables
	folds := c.folds[:len(tables)]
	lastIdx := c.lastIdx[:len(tables)]
	mask := c.mask()
	base := (pc >> 2) ^ (pc >> 7)
	sum := 0
	rec := eng.Recent()
	direct := c.direct
	dTables, dIdx := tables[:len(direct)], lastIdx[:len(direct)]
	sched := &c.sched
	for i := range direct {
		d := &direct[i]
		idx := uint32(base^uint64(i)*0x9e37^sched.Fold(rec&d.window, d.steps)) & mask
		dIdx[i] = idx
		sum += int(dTables[i][idx])
	}
	words := eng.Words()
	for i := len(direct); i < len(folds); i++ {
		l := &folds[i]
		idx := uint32(base^uint64(i)*0x9e37^(words[l.Word]>>(l.Shift&63))) & mask
		lastIdx[i] = idx
		sum += int(tables[i][idx])
	}
	tb := uint64(0)
	if tageTaken {
		tb = 1
	}
	c.lastBias = uint32((pc>>2)<<1|tb) & mask
	sum += 2*int(c.bias[c.lastBias]) + 1
	if c.local != nil {
		sum += c.local.vote(pc)
	}
	if c.imli != nil {
		sum += c.imli.vote(pc)
	}
	c.lastSum = sum
	c.lastTage = tageTaken
	c.lastPC = pc
	scTaken := sum >= 0
	// Flip only when the corrector is confident and TAGE is not: a
	// confident TAGE provider usually beats the corrector.
	flip := scTaken != tageTaken && abs(sum) >= c.threshold && !tageConfident
	c.lastFlip = flip
	if flip {
		return scTaken
	}
	return tageTaken
}

// Update trains the corrector with the resolved direction and adapts the
// flip threshold. The branch target is unknown here; UpdateWithTarget
// feeds the IMLI component when the caller has it.
func (c *Corrector) Update(pc uint64, taken bool) {
	c.UpdateWithTarget(pc, pc+4, taken)
}

// UpdateWithTarget is Update plus the resolved branch target (backward
// targets drive the IMLI loop-iteration counter).
func (c *Corrector) UpdateWithTarget(pc, target uint64, taken bool) {
	scTaken := c.lastSum >= 0
	finalTaken := c.lastTage
	if c.lastFlip {
		finalTaken = scTaken
	}
	// Adaptive threshold: when a flip decision was borderline, tune the
	// threshold toward profitable flipping (Seznec's dynamic threshold
	// fitting).
	if scTaken != c.lastTage && abs(c.lastSum) >= c.threshold-2 && abs(c.lastSum) <= c.threshold+2 {
		if finalTaken == taken {
			if c.thresholdCtr > -64 {
				c.thresholdCtr--
			}
		} else if c.thresholdCtr < 63 {
			c.thresholdCtr++
		}
		if c.thresholdCtr >= 32 && c.threshold < 127 {
			c.threshold++
			c.thresholdCtr = 0
		} else if c.thresholdCtr <= -32 && c.threshold > 3 {
			c.threshold--
			c.thresholdCtr = 0
		}
	}
	// GEHL update rule: train on mispredictions and low-confidence
	// correct predictions.
	if finalTaken != taken || abs(c.lastSum) < c.threshold*4 {
		for i := range c.tables {
			e := &c.tables[i][c.lastIdx[i]]
			if taken {
				if *e < c.ctrMax() {
					*e++
				}
			} else if *e > c.ctrMin() {
				*e--
			}
		}
		e := &c.bias[c.lastBias]
		if taken {
			if *e < c.ctrMax() {
				*e++
			}
		} else if *e > c.ctrMin() {
			*e--
		}
		if c.local != nil {
			c.local.train(pc, taken, c.ctrMax(), c.ctrMin())
		}
	}
	// The IMLI loop counter tracks control flow regardless of the
	// training filter.
	if c.imli != nil {
		c.imli.train(pc, target, taken, c.ctrMax(), c.ctrMin())
	}
}

// Flipped reports whether the last Correct call overrode TAGE.
func (c *Corrector) Flipped() bool { return c.lastFlip }

// StorageBits returns the storage cost in bits.
func (c *Corrector) StorageBits() int {
	perTable := c.cfg.CounterBits << uint(c.cfg.LogEntries)
	n := len(c.tables) + 1 // components + bias
	if c.local != nil {
		n++ // local counter bank
	}
	if c.imli != nil {
		n++ // IMLI counter bank
	}
	bits := perTable * n
	if c.local != nil {
		bits += len(c.local.histories) * c.local.histBits
	}
	return bits
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
