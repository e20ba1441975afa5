package sim

import (
	"llbp/internal/pipeline"
	"llbp/internal/predictor"
	"llbp/internal/trace"
)

// Stepper applies branch records to one predictor: the per-branch replay
// step that batch replay (Run, Warm), streamed sessions and the predictor
// benchmarks share. LLBP times its pattern prefetches on the simulated
// clock and squashes them on every pipeline reset, so its predictions
// depend on exactly how a driver advances that clock and dispatches
// resets; with one step, no two drivers can disagree about either.
//
// The predictor's optional interfaces are resolved once, when the
// stepper is built.
type Stepper struct {
	// ledger is the Table II cycle ledger every step charges. Run resets
	// it where measurement starts.
	ledger pipeline.Accounting

	pred  predictor.Predictor
	tu    predictor.TargetUpdater
	reset predictor.Resettable
	clock *predictor.Clock
}

// NewStepper returns a step over p driven by clock, the clock p was built
// against (or forked onto).
func NewStepper(p predictor.Predictor, clock *predictor.Clock) *Stepper {
	s := &Stepper{ledger: pipeline.DefaultAccounting(), pred: p, clock: clock}
	s.tu, _ = p.(predictor.TargetUpdater)
	s.reset, _ = p.(predictor.Resettable)
	return s
}

// Step applies b and returns the predicted direction (false for a
// non-conditional record). The straight-line instructions before b
// retire at base CPI first, so prefetch timestamps see realistic gaps.
// A conditional branch is predicted, then trained — through
// UpdateWithTarget when the predictor has it — and any other transfer
// is tracked. A misprediction or a trace-flagged target miss charges its
// redirect penalty to the ledger, advances the clock by the same cycles
// and resets the pipeline.
func (s *Stepper) Step(b *trace.Branch) (predicted bool) {
	s.clock.Advance(s.ledger.Retire(uint64(b.Instructions)))
	if b.Type.IsConditional() {
		predicted = s.pred.Predict(b.PC)
		if s.tu != nil {
			s.tu.UpdateWithTarget(b.PC, b.Target, b.Taken)
		} else {
			s.pred.Update(b.PC, b.Taken)
		}
		if predicted == b.Taken {
			return predicted
		}
		s.clock.Advance(s.ledger.Mispredict())
	} else {
		s.pred.TrackOther(b.PC, b.Target, b.Type)
		if !b.MispredictedTarget {
			return false
		}
		s.clock.Advance(s.ledger.TargetMiss())
	}
	if s.reset != nil {
		s.reset.OnPipelineReset()
	}
	return predicted
}
