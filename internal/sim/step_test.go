package sim

import (
	"fmt"
	"reflect"
	"testing"

	"llbp/internal/predictor"
	"llbp/internal/trace"
)

// loggingPredictor records every call the step makes, stamped with the
// simulated cycle the call saw. It predicts taken and trains with the
// target, like the TAGE-SC-L family.
type loggingPredictor struct {
	clock *predictor.Clock
	log   []string
}

func (p *loggingPredictor) rec(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf("%s@%g", fmt.Sprintf(format, args...), p.clock.NowF()))
}

func (p *loggingPredictor) Name() string { return "logging" }
func (p *loggingPredictor) Predict(pc uint64) bool {
	p.rec("predict %#x", pc)
	return true
}
func (p *loggingPredictor) Update(pc uint64, taken bool) { p.rec("update %#x", pc) }
func (p *loggingPredictor) UpdateWithTarget(pc, target uint64, taken bool) {
	p.rec("update %#x->%#x", pc, target)
}
func (p *loggingPredictor) TrackOther(pc, target uint64, _ trace.BranchType) {
	p.rec("track %#x", pc)
}
func (p *loggingPredictor) OnPipelineReset() { p.rec("reset") }

// TestStepOrder pins the step LLBP's prefetch timing depends on: the
// straight-line instructions retire at base CPI (0.5) before the branch
// is seen, training goes through UpdateWithTarget, and a misprediction
// or flagged target miss charges 20 cycles to the ledger and the clock
// before the predictor is reset.
func TestStepOrder(t *testing.T) {
	clock := &predictor.Clock{}
	p := &loggingPredictor{clock: clock}
	st := NewStepper(p, clock)
	steps := []struct {
		b    trace.Branch
		want bool
	}{
		{trace.Branch{PC: 0x10, Target: 0x40, Type: trace.CondDirect, Taken: true, Instructions: 4}, true},
		{trace.Branch{PC: 0x20, Target: 0x50, Type: trace.CondDirect, Taken: false, Instructions: 2}, true},
		{trace.Branch{PC: 0x30, Target: 0x60, Type: trace.Jump, Taken: true, Instructions: 6}, false},
		{trace.Branch{PC: 0x38, Target: 0x70, Type: trace.Jump, Taken: true, Instructions: 2, MispredictedTarget: true}, false},
	}
	for i := range steps {
		if got := st.Step(&steps[i].b); got != steps[i].want {
			t.Errorf("step %d predicted %v, want %v", i, got, steps[i].want)
		}
	}
	want := []string{
		"predict 0x10@2", "update 0x10->0x40@2",
		"predict 0x20@3", "update 0x20->0x50@3", "reset@23",
		"track 0x30@26",
		"track 0x38@27", "reset@47",
	}
	if !reflect.DeepEqual(p.log, want) {
		t.Errorf("calls:\n got %q\nwant %q", p.log, want)
	}
	l := st.ledger
	if l.Instructions != 14 || l.Mispredictions != 1 || l.TargetMisses != 1 || l.Cycles() != 47 {
		t.Errorf("ledger: %d instructions, %d mispredictions, %d target misses, %g cycles; want 14, 1, 1, 47",
			l.Instructions, l.Mispredictions, l.TargetMisses, l.Cycles())
	}
}
