// Package predictor defines the interfaces through which the simulation
// driver talks to branch direction predictors, plus the clock abstraction
// used by latency-aware predictors (LLBP's prefetch pipeline).
//
// The protocol mirrors the Championship Branch Prediction (CBP) harness the
// paper's artifact is built on: for every conditional branch the driver
// calls Predict then Update (in that order, exactly once each); for every
// other control transfer it calls TrackOther so predictors can maintain
// their histories. Predictors may keep per-branch scratch state between
// Predict and Update — the driver is single-threaded per predictor.
package predictor

import "llbp/internal/trace"

// Predictor is a conditional-branch direction predictor.
type Predictor interface {
	// Name identifies the configuration for reporting (e.g. "64K TSL").
	Name() string

	// Predict returns the predicted direction of the conditional branch
	// at pc. It must be followed by exactly one Update for the same pc.
	Predict(pc uint64) bool

	// Update trains the predictor with the resolved direction of the
	// conditional branch last passed to Predict.
	Update(pc uint64, taken bool)

	// TrackOther informs the predictor of a non-conditional control
	// transfer (jump, call, return, indirect) so it can update global,
	// path, and context histories.
	TrackOther(pc, target uint64, t trace.BranchType)
}

// TargetUpdater is implemented by predictors whose training uses the
// resolved branch target (the statistical corrector's IMLI component
// needs to see backward-taken branches). The driver prefers
// UpdateWithTarget over Update when available; Update remains the
// fallback with an unknown (forward) target.
type TargetUpdater interface {
	// UpdateWithTarget is Update plus the resolved branch target.
	UpdateWithTarget(pc, target uint64, taken bool)
}

// Resettable is implemented by predictors that react to pipeline resets
// (branch mispredictions and BTB/target misses). The paper's LLBP squashes
// its in-flight pattern-set prefetches on a reset.
type Resettable interface {
	// OnPipelineReset notifies the predictor that the front end was
	// flushed at the current clock cycle.
	OnPipelineReset()
}

// Detailer is implemented by predictors that expose per-prediction
// provenance, used by the working-set and breakdown experiments
// (Figures 3b, 5 and 15).
type Detailer interface {
	// LastDetail describes the most recent Predict/Update pair. Valid
	// only until the next Predict call.
	LastDetail() Detail
}

// Counted is implemented by predictors that keep cumulative event
// counters. ReportCounts hands each total to sink under its metric name,
// then cascades to the predictor's components.
type Counted interface {
	ReportCounts(sink CountSink)
}

// CountSink receives a Counted predictor's totals: counters, and
// histograms of integer observations (a count per inclusive upper bound,
// an overflow count, and the observations' sum).
type CountSink interface {
	Count(name string, total uint64)
	Buckets(name string, bounds []float64, counts []uint64, sum uint64)
}

// Component identifies which structure provided the final prediction.
type Component uint8

// Provider components, from weakest to strongest.
const (
	ProviderBimodal Component = iota
	ProviderTAGE
	ProviderLoop
	ProviderSC
	ProviderLLBP
)

// String returns the short provider name.
func (c Component) String() string {
	switch c {
	case ProviderBimodal:
		return "bimodal"
	case ProviderTAGE:
		return "tage"
	case ProviderLoop:
		return "loop"
	case ProviderSC:
		return "sc"
	case ProviderLLBP:
		return "llbp"
	default:
		return "unknown"
	}
}

// Detail is the provenance of one prediction.
type Detail struct {
	// Provider is the component whose prediction was finally used.
	Provider Component
	// ProviderLen is the history length of the providing pattern
	// (0 for bimodal).
	ProviderLen int
	// AltTaken is the alternate prediction (next-longest match or
	// bimodal) — needed for the paper's "useful pattern" definition.
	AltTaken bool
	// PatternKey uniquely identifies the providing pattern (table,
	// index and tag folded together); 0 when the bimodal provided.
	PatternKey uint64
	// BaselineTaken is the prediction the baseline (TAGE-SC-L) would
	// have made, recorded even when LLBP overrides — the input to the
	// Figure 15 override breakdown.
	BaselineTaken bool
	// LLBPMatched reports whether LLBP found any matching pattern.
	LLBPMatched bool
	// LLBPOverrode reports whether LLBP's match won the length
	// arbitration and supplied the final prediction.
	LLBPOverrode bool
}

// Forkable is implemented by predictors whose complete training state
// can be duplicated into an independent instance. Fork must be called at
// a branch boundary (after Update, before the next Predict) and returns
// a predictor whose future trajectory is byte-identical to what an
// independently warmed twin would produce — the contract the fork
// property tests assert per family.
//
// The child is detached from the parent: subsequent training of either
// never affects the other (implementations may share storage
// copy-on-write as long as that isolation holds). The child inherits the
// parent's cumulative counters (Counted); a run that publishes them
// publishes only their growth from its own start.
//
// Latency-aware predictors (LLBP's prefetch pipeline) read simulation
// time from a Clock: the caller passes the clock the child will be
// driven by, and Fork aligns it with the parent's current cycle so
// in-flight prefetch deadlines stay meaningful. Clock-free predictors
// ignore the argument (nil is fine).
type Forkable interface {
	// Fork returns an independent deep copy of the predictor, driven by
	// clock (which is advanced to the parent's current cycle).
	Fork(clock *Clock) Predictor
}

// Clock is the simulation time base shared between the driver and
// latency-aware predictors. The driver advances it; predictors read it.
type Clock struct {
	cycle float64
}

// Now returns the current cycle.
func (c *Clock) Now() uint64 { return uint64(c.cycle) }

// NowF returns the current time in fractional cycles.
func (c *Clock) NowF() float64 { return c.cycle }

// Advance moves time forward by the given number of cycles (fractional
// cycles accumulate).
func (c *Clock) Advance(cycles float64) { c.cycle += cycles }

// Reset rewinds the clock to zero (used between warmup and measurement
// only for statistics that derive from cycle deltas; predictors must not
// assume monotonic restarts).
func (c *Clock) Reset() { c.cycle = 0 }
