package sim

import (
	"context"
	"errors"
	"testing"

	"llbp/internal/pipeline"
	"llbp/internal/predictor"
	"llbp/internal/trace"
)

// staticPredictor always predicts `taken` and records calls; it also
// implements Resettable to observe reset notifications.
type staticPredictor struct {
	taken    bool
	predicts int
	updates  int
	others   int
	resets   int
	lastPC   uint64
}

func (p *staticPredictor) Name() string { return "static" }
func (p *staticPredictor) Predict(pc uint64) bool {
	p.predicts++
	p.lastPC = pc
	return p.taken
}
func (p *staticPredictor) Update(pc uint64, taken bool) { p.updates++ }
func (p *staticPredictor) TrackOther(pc, target uint64, t trace.BranchType) {
	p.others++
}
func (p *staticPredictor) OnPipelineReset() { p.resets++ }

// mkSource builds a source of n conditional branches (all taken, 5
// instructions each) with an unconditional jump every 4th record; every
// 8th jump is a target miss.
func mkSource(n int) trace.Source {
	branches := make([]trace.Branch, n)
	for i := range branches {
		if i%4 == 3 {
			branches[i] = trace.Branch{
				PC: 0x9000, Target: 0x100, Type: trace.Jump, Taken: true,
				Instructions: 5, MispredictedTarget: i%32 == 31,
			}
		} else {
			branches[i] = trace.Branch{
				PC: uint64(0x1000 + (i%8)*4), Target: 0x2000,
				Type: trace.CondDirect, Taken: true, Instructions: 5,
			}
		}
	}
	return &trace.SliceSource{SourceName: "mock", Branches: branches}
}

func TestRunBasicAccounting(t *testing.T) {
	p := &staticPredictor{taken: true} // always right
	res, err := Run(mkSource(1000), p, Options{WarmupBranches: 200, MeasureBranches: 800})
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches != 800 {
		t.Errorf("Branches = %d, want 800", res.Branches)
	}
	if res.CondBranches != 600 {
		t.Errorf("CondBranches = %d, want 600", res.CondBranches)
	}
	if res.Mispredicts != 0 {
		t.Errorf("Mispredicts = %d, want 0", res.Mispredicts)
	}
	if res.Instructions != 800*5 {
		t.Errorf("Instructions = %d", res.Instructions)
	}
	if p.predicts != 750 || p.updates != 750 {
		t.Errorf("predict/update counts %d/%d, want 750 (warmup included)", p.predicts, p.updates)
	}
	if res.MPKI != 0 {
		t.Errorf("MPKI = %v", res.MPKI)
	}
}

func TestRunCountsMispredictions(t *testing.T) {
	p := &staticPredictor{taken: false} // always wrong
	res, err := Run(mkSource(1000), p, Options{WarmupBranches: 200, MeasureBranches: 800})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mispredicts != 600 {
		t.Errorf("Mispredicts = %d, want 600", res.Mispredicts)
	}
	wantMPKI := 600.0 * 1000 / 4000
	if res.MPKI != wantMPKI {
		t.Errorf("MPKI = %v, want %v", res.MPKI, wantMPKI)
	}
	// Every misprediction and every target miss resets the pipeline
	// (warmup included: 750 cond + ~31 target misses).
	if p.resets < 750 {
		t.Errorf("resets = %d, want >= 750", p.resets)
	}
	if res.WastedFraction <= 0 || res.WastedFraction >= 1 {
		t.Errorf("WastedFraction = %v", res.WastedFraction)
	}
}

func TestRunErrorsOnShortStream(t *testing.T) {
	p := &staticPredictor{taken: true}
	if _, err := Run(mkSource(100), p, Options{WarmupBranches: 50, MeasureBranches: 100}); err == nil {
		t.Error("short stream must error")
	}
	if _, err := Run(mkSource(100), p, Options{}); err == nil {
		t.Error("zero MeasureBranches must error")
	}
}

func TestObserversInvoked(t *testing.T) {
	p := &staticPredictor{taken: true}
	conds, unconds := 0, 0
	_, err := Run(mkSource(1000), p, Options{
		WarmupBranches:  200,
		MeasureBranches: 800,
		Observer: func(b *trace.Branch, pred bool, det predictor.Detail) {
			conds++
			if !pred {
				t.Fatal("observer saw a prediction the static predictor never made")
			}
		},
		UncondObserver: func(b *trace.Branch) { unconds++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if conds != 600 || unconds != 200 {
		t.Errorf("observer counts %d/%d, want 600/200 (measured only)", conds, unconds)
	}
}

func TestClockAdvances(t *testing.T) {
	p := &staticPredictor{taken: true}
	clock := &predictor.Clock{}
	res, err := Run(mkSource(1000), p, Options{
		WarmupBranches: 100, MeasureBranches: 800, Clock: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if clock.NowF() <= 0 {
		t.Error("clock must advance")
	}
	if res.Cycles <= 0 || res.IPC <= 0 {
		t.Errorf("cycles/IPC not computed: %v/%v", res.Cycles, res.IPC)
	}
}

func TestSpeedupAndPerfectCycles(t *testing.T) {
	good := &staticPredictor{taken: true}
	bad := &staticPredictor{taken: false}
	resGood, err := Run(mkSource(2000), good, Options{WarmupBranches: 100, MeasureBranches: 1800})
	if err != nil {
		t.Fatal(err)
	}
	resBad, err := Run(mkSource(2000), bad, Options{WarmupBranches: 100, MeasureBranches: 1800})
	if err != nil {
		t.Fatal(err)
	}
	if s := resGood.Speedup(resBad); s <= 1 {
		t.Errorf("perfect predictor speedup over always-wrong = %v, want > 1", s)
	}
	cfg := pipeline.Default()
	pc := resBad.PerfectCycles(cfg)
	if pc >= resBad.Cycles {
		t.Error("perfect cycles must be below actual cycles for a mispredicting run")
	}
	if pc < float64(resBad.Instructions)*cfg.BaseCPI {
		t.Error("perfect cycles cannot beat the base CPI bound")
	}
}

func TestWarmupExcludedFromStats(t *testing.T) {
	// A predictor wrong only during the first 300 conditionals: with a
	// 400-branch warmup (300 cond), measured MPKI must be 0.
	n := 0
	p := &phasePredictor{flipAfter: 300}
	res, err := Run(mkSource(1000), p, Options{WarmupBranches: 400, MeasureBranches: 600})
	if err != nil {
		t.Fatal(err)
	}
	_ = n
	if res.Mispredicts != 0 {
		t.Errorf("warmup mispredictions leaked into measurement: %d", res.Mispredicts)
	}
}

// phasePredictor is wrong for the first flipAfter conditional branches,
// then perfect.
type phasePredictor struct {
	seen      int
	flipAfter int
}

func (p *phasePredictor) Name() string { return "phase" }
func (p *phasePredictor) Predict(pc uint64) bool {
	p.seen++
	return p.seen > p.flipAfter
}
func (p *phasePredictor) Update(uint64, bool)                        {}
func (p *phasePredictor) TrackOther(_, _ uint64, _ trace.BranchType) {}

// TestRunCancellation: a cancelled context aborts the run promptly with
// an error wrapping context.Canceled.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts
	p := &staticPredictor{taken: true}
	_, err := Run(mkSource(100_000), p, Options{
		MeasureBranches: 100_000,
		Context:         ctx,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if p.predicts > cancelCheckMask+1 {
		t.Errorf("run processed %d branches after cancellation", p.predicts)
	}
}

// TestRunMidwayCancellation cancels from the hook partway through and
// checks the run stops near the cancellation point.
func TestRunMidwayCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &staticPredictor{taken: true}
	_, err := Run(mkSource(1_000_000), p, Options{
		MeasureBranches: 1_000_000,
		Context:         ctx,
		Hook: func(processed uint64) {
			if processed >= 20_000 {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if p.predicts > 40_000 {
		t.Errorf("run continued long after cancellation: %d branches", p.predicts)
	}
}

// TestRunHookCadence: the hook fires every HookEvery branches with a
// monotone processed count, warmup included.
func TestRunHookCadence(t *testing.T) {
	var calls []uint64
	p := &staticPredictor{taken: true}
	_, err := Run(mkSource(10_000), p, Options{
		WarmupBranches:  2_000,
		MeasureBranches: 8_000,
		Hook:            func(n uint64) { calls = append(calls, n) },
		HookEvery:       1_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 10 {
		t.Fatalf("hook fired %d times, want 10", len(calls))
	}
	for i, n := range calls {
		if n != uint64(i+1)*1_000 {
			t.Fatalf("hook call %d saw processed=%d", i, n)
		}
	}
}
