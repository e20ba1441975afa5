// Package tsl composes TAGE, the statistical corrector and the loop
// predictor into the TAGE-SC-L predictor family evaluated by the paper:
// the 64K baseline, the capacity-scaled 128K..1M variants, and the
// infinite-capacity Inf TAGE / Inf TSL constructions (§VI).
package tsl

import (
	"fmt"

	"llbp/internal/assert"
	"llbp/internal/looppred"
	"llbp/internal/predictor"
	"llbp/internal/sc"
	"llbp/internal/tage"
	"llbp/internal/trace"
)

// Stats are the composite predictor's event counters: how often each
// component supplied the final prediction, how often the corrector
// reversed it, and how the TAGE allocator fared. This is the public
// statistics surface — experiments and CLIs read it instead of reaching
// into predictor internals, and ReportCounts hands the same counters to
// the simulation driver, which publishes them to a telemetry registry.
type Stats struct {
	Predictions uint64 // conditional predictions made
	SCReversals uint64 // statistical-corrector flips of the base prediction
	LoopUses    uint64 // loop-predictor overrides of TAGE

	// Final-provider usage breakdown (sums to Predictions).
	ProviderBimodal uint64
	ProviderTAGE    uint64
	ProviderLoop    uint64
	ProviderSC      uint64

	// TAGE allocator outcomes.
	TAGEAllocs        uint64
	TAGEAllocFailures uint64
}

// Config parameterizes a TAGE-SC-L instance.
type Config struct {
	// TAGE is the core predictor configuration.
	TAGE tage.Config
	// SC is the statistical corrector configuration.
	SC sc.Config
	// LoopLogSets/LoopWays size the loop predictor.
	LoopLogSets int
	LoopWays    int
	// DisableSC / DisableLoop turn the auxiliary components off
	// (used for ablation).
	DisableSC   bool
	DisableLoop bool
	// Label overrides the derived name.
	Label string
}

// Config64K returns the paper's baseline 64KiB TAGE-SC-L ("64K TSL").
func Config64K() Config {
	return Config{
		TAGE:        tage.DefaultConfig(),
		SC:          sc.DefaultConfig(),
		LoopLogSets: 4,
		LoopWays:    4,
		Label:       "64K TSL",
	}
}

// ConfigScaled returns the 64K design with TAGE tables scaled by
// 2^logFactor: logFactor 1..4 gives the paper's 128K, 256K, 512K and 1M
// configurations (auxiliary components unchanged, §VI).
func ConfigScaled(logFactor int) Config {
	c := Config64K()
	c.TAGE = c.TAGE.Scaled(logFactor)
	c.Label = fmt.Sprintf("%dK TSL", 64<<uint(logFactor))
	return c
}

// ConfigInfTAGE returns the configuration with unbounded TAGE tables but
// baseline-sized auxiliary components ("Inf TAGE", §II-C).
func ConfigInfTAGE() Config {
	c := Config64K()
	c.TAGE = c.TAGE.InfiniteConfig()
	c.Label = "Inf TAGE"
	return c
}

// ConfigInfTSL returns the configuration with unbounded TAGE tables and
// enlarged auxiliary components ("Inf TSL", §VI: statistical corrector and
// loop predictor grown to millions of entries).
func ConfigInfTSL() Config {
	c := Config64K()
	c.TAGE = c.TAGE.InfiniteConfig()
	c.SC = c.SC.Scaled(8) // 1K -> 256K entries per component
	c.LoopLogSets = 10    // 4K sets x 4 ways
	c.Label = "Inf TSL"
	return c
}

// Predictor is a TAGE-SC-L instance. It implements predictor.Predictor and
// predictor.Detailer.
type Predictor struct {
	cfg  Config
	tage *tage.Predictor
	sc   *sc.Corrector
	loop *looppred.Predictor

	detail predictor.Detail

	// loopUseCtr gates loop-predictor overrides: it tracks whether the
	// loop predictor has been beating TAGE when they disagree (the
	// WITHLOOP chooser of TAGE-SC-L).
	loopUseCtr int8

	// Scratch between Predict and Update.
	lastPC     uint64
	tageTaken  bool
	loopTaken  bool
	loopValid  bool
	loopUsed   bool
	finalTaken bool

	loopUses    uint64
	predictions uint64
	providers   [5]uint64 // indexed by predictor.Component
}

var (
	_ predictor.Predictor = (*Predictor)(nil)
	_ predictor.Detailer  = (*Predictor)(nil)
	_ predictor.Counted   = (*Predictor)(nil)
)

// New constructs a TAGE-SC-L predictor.
func New(cfg Config) (*Predictor, error) {
	t, err := tage.New(cfg.TAGE)
	if err != nil {
		return nil, fmt.Errorf("tsl: %w", err)
	}
	p := &Predictor{cfg: cfg, tage: t}
	if !cfg.DisableSC {
		// The corrector's folds join TAGE's in one history engine, which
		// TAGE (or an LLBP composite that adopts it) pushes once per
		// branch — the same bit the corrector needs.
		c, err := sc.New(cfg.SC, t.HistoryEngine())
		if err != nil {
			return nil, fmt.Errorf("tsl: %w", err)
		}
		p.sc = c
	}
	if !cfg.DisableLoop {
		if cfg.LoopLogSets == 0 {
			cfg.LoopLogSets, cfg.LoopWays = 4, 4
		}
		l, err := looppred.New(cfg.LoopLogSets, cfg.LoopWays)
		if err != nil {
			return nil, fmt.Errorf("tsl: %w", err)
		}
		p.loop = l
	}
	return p, nil
}

// MustNew is New panicking on configuration errors; for use with the
// package-level Config constructors, which are always valid.
func MustNew(cfg Config) *Predictor {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements predictor.Predictor.
func (p *Predictor) Name() string {
	if p.cfg.Label != "" {
		return p.cfg.Label
	}
	return "TAGE-SC-L"
}

// TAGE exposes the underlying TAGE core (the LLBP composite needs its
// provider length for the longest-match arbitration).
func (p *Predictor) TAGE() *tage.Predictor { return p.tage }

// Stats returns a snapshot of the composite predictor's event counters.
func (p *Predictor) Stats() Stats {
	s := Stats{
		Predictions:       p.predictions,
		LoopUses:          p.loopUses,
		ProviderBimodal:   p.providers[predictor.ProviderBimodal],
		ProviderTAGE:      p.providers[predictor.ProviderTAGE],
		ProviderLoop:      p.providers[predictor.ProviderLoop],
		ProviderSC:        p.providers[predictor.ProviderSC],
		TAGEAllocs:        p.tage.Allocations(),
		TAGEAllocFailures: p.tage.AllocFailures(),
	}
	// The corrector supplies the final prediction exactly when it flips
	// the base one, so one slot counts both.
	s.SCReversals = s.ProviderSC
	return s
}

// ReportCounts implements predictor.Counted: predictions, loop-chooser
// overrides and provider usage, then the TAGE core's counters and, when
// the corrector is present, its flips (the provider_sc slot again).
func (p *Predictor) ReportCounts(sink predictor.CountSink) {
	sink.Count("tsl_predictions", p.predictions)
	sink.Count("loop_uses", p.loopUses)
	sink.Count("provider_bimodal", p.providers[predictor.ProviderBimodal])
	sink.Count("provider_tage", p.providers[predictor.ProviderTAGE])
	sink.Count("provider_loop", p.providers[predictor.ProviderLoop])
	sink.Count("provider_sc", p.providers[predictor.ProviderSC])
	sink.Count("provider_llbp", p.providers[predictor.ProviderLLBP])
	p.tage.ReportCounts(sink)
	if p.sc != nil {
		sink.Count("sc_reversals", p.providers[predictor.ProviderSC])
	}
}

// Predict implements predictor.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	p.predictions++
	p.lastPC = pc
	p.tageTaken = p.tage.Predict(pc)
	base := p.tageTaken
	provider := predictor.ProviderTAGE
	if p.tage.LastProviderTable() < 0 {
		provider = predictor.ProviderBimodal
	}
	p.loopValid, p.loopUsed = false, false
	if p.loop != nil {
		lt, lv := p.loop.Predict(pc)
		p.loopTaken, p.loopValid = lt, lv
		if lv && p.loopUseCtr >= 0 && lt != base {
			base = lt
			provider = predictor.ProviderLoop
			p.loopUsed = true
			p.loopUses++
		}
	}
	final := base
	if p.sc != nil {
		final = p.sc.Correct(p.tage.HistoryEngine(), pc, base, p.tage.LastConfident() || provider == predictor.ProviderLoop)
		if p.sc.Flipped() {
			provider = predictor.ProviderSC
		}
	}
	p.finalTaken = final
	p.providers[provider]++
	p.detail = predictor.Detail{
		Provider:      provider,
		ProviderLen:   p.tage.ProviderLen(),
		AltTaken:      p.tage.LastAltTaken(),
		PatternKey:    p.tage.LastPatternKey(),
		BaselineTaken: final,
	}
	return final
}

// Update implements predictor.Predictor (unknown target; see
// UpdateWithTarget).
//
//llbplint:sink -- predictor tables define simulated accuracy; training on a nondeterministic value forks the trajectory
func (p *Predictor) Update(pc uint64, taken bool) {
	p.UpdateWithTarget(pc, pc+4, taken)
}

// UpdateWithTarget implements predictor.TargetUpdater: the resolved
// target feeds the corrector's IMLI component.
//
//llbplint:sink -- predictor tables define simulated accuracy; training on a nondeterministic value forks the trajectory
func (p *Predictor) UpdateWithTarget(pc, target uint64, taken bool) {
	p.updateAux(pc, target, taken)
	p.tage.Update(pc, taken)
}

// UpdateAsOverridden trains the predictor for a conditional branch whose
// final prediction was supplied by LLBP: the auxiliary components observe
// the outcome, histories advance, but TAGE's counters and allocator are
// cancelled (§V-D).
func (p *Predictor) UpdateAsOverridden(pc, target uint64, taken bool) {
	p.updateAux(pc, target, taken)
	p.tage.UpdateHistoryOnly(pc, taken)
}

func (p *Predictor) updateAux(pc, target uint64, taken bool) {
	if pc != p.lastPC {
		assert.Failf("tsl: Update(%#x) without matching Predict (last %#x)", pc, p.lastPC)
	}
	if p.sc != nil {
		p.sc.UpdateWithTarget(pc, target, taken)
	}
	if p.loop != nil {
		// Train the chooser whenever a confident loop prediction
		// disagreed with TAGE: reward the side that was right.
		if p.loopValid && p.loopTaken != p.tageTaken {
			if p.loopTaken == taken {
				if p.loopUseCtr < 63 {
					p.loopUseCtr++
				}
			} else if p.loopUseCtr > -64 {
				p.loopUseCtr--
			}
		}
		p.loop.Update(pc, taken, p.tageTaken != taken)
	}
}

// TrackOther implements predictor.Predictor.
func (p *Predictor) TrackOther(pc, target uint64, t trace.BranchType) {
	p.tage.TrackOther(pc, target, t)
}

// LastDetail implements predictor.Detailer.
func (p *Predictor) LastDetail() predictor.Detail { return p.detail }

// LastTaken returns the final prediction of the last Predict call.
func (p *Predictor) LastTaken() bool { return p.finalTaken }

// StorageBits returns the predictor's total storage budget in bits
// (-1 for infinite configurations).
func (p *Predictor) StorageBits() int {
	t := p.cfg.TAGE.StorageBits()
	if t < 0 {
		return -1
	}
	if p.sc != nil {
		t += p.sc.StorageBits()
	}
	if p.loop != nil {
		t += p.loop.StorageBits()
	}
	return t
}
