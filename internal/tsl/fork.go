package tsl

import "llbp/internal/predictor"

var _ predictor.Forkable = (*Predictor)(nil)

// Fork implements predictor.Forkable: it returns an independent deep
// copy of the composite — the TAGE core, statistical corrector, loop
// predictor, the loop chooser, the provider counters and the
// Predict/Update scratch. TAGE-SC-L is latency-free, so the clock is
// ignored (nil is fine). Call at a branch boundary.
//
// The concrete type of the returned predictor is always *Predictor
// (composites holding a *tsl.Predictor fork through this and assert).
func (p *Predictor) Fork(clock *predictor.Clock) predictor.Predictor {
	_ = clock
	out := *p
	out.tage = p.tage.Fork()
	if p.sc != nil {
		out.sc = p.sc.Fork()
	}
	if p.loop != nil {
		out.loop = p.loop.Fork()
	}
	return &out
}
