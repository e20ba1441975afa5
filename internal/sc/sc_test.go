package sc

import (
	"math/rand"
	"testing"

	"llbp/internal/history"
)

// mustNew returns a default corrector and the history engine its folds
// live on. Tests push the engine once per branch after Update, as the
// corrector's owner does.
func mustNew(t *testing.T) (*Corrector, *history.Engine) {
	t.Helper()
	eng := history.NewEngine()
	c, err := New(DefaultConfig(), eng)
	if err != nil {
		t.Fatal(err)
	}
	return c, eng
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{},
		{HistLengths: []int{0, 4}, LogEntries: 2, CounterBits: 6},
		{HistLengths: []int{0, 4}, LogEntries: 10, CounterBits: 1},
		{HistLengths: []int{0, 4}, LogEntries: 25, CounterBits: 6},
		{HistLengths: []int{0, history.MaxLength}, LogEntries: 10, CounterBits: 6},
		{HistLengths: []int{0, history.MaxLength + 1}, LogEntries: 10, CounterBits: 6},
		{HistLengths: []int{-1, 4}, LogEntries: 10, CounterBits: 6},
		// Lengths must not decrease: the direct components come first.
		{HistLengths: []int{0, 8, 4}, LogEntries: 10, CounterBits: 6},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, history.NewEngine()); err == nil {
			t.Errorf("config %d must fail validation", i)
		}
	}
}

func TestScaled(t *testing.T) {
	cfg := DefaultConfig().Scaled(3)
	if cfg.LogEntries != DefaultConfig().LogEntries+3 {
		t.Errorf("Scaled(3) logEntries = %d", cfg.LogEntries)
	}
}

// TestLearnsAntiCorrelation: a branch whose outcome is the opposite of
// what a (deliberately wrong) primary prediction says, with no
// history-dependence — the statistically biased case the corrector is for.
func TestLearnsAntiCorrelation(t *testing.T) {
	c, eng := mustNew(t)
	pc := uint64(0x4400)
	flips := 0
	const rounds = 2000
	for i := 0; i < rounds; i++ {
		// TAGE (simulated) always predicts not-taken with low
		// confidence; the real outcome is always taken.
		got := c.Correct(eng, pc, false, false)
		c.Update(pc, true)
		eng.Push(true)
		if got {
			flips++
		}
	}
	if flips < rounds/2 {
		t.Errorf("corrector flipped only %d/%d times on a fully biased branch", flips, rounds)
	}
}

// TestRespectsConfidentTAGE: the corrector must not flip confident
// primary predictions.
func TestRespectsConfidentTAGE(t *testing.T) {
	c, eng := mustNew(t)
	pc := uint64(0x4400)
	// Train the corrector toward taken.
	for i := 0; i < 500; i++ {
		c.Correct(eng, pc, false, false)
		c.Update(pc, true)
		eng.Push(true)
	}
	if got := c.Correct(eng, pc, false, true); got {
		t.Error("must not override a confident TAGE prediction")
	}
	c.Update(pc, true)
}

// TestDoesNotHurtRandom: on an unpredictable branch the corrector's flips
// must be neutral — accuracy with the corrector must stay within noise of
// the raw primary prediction accuracy (flipping on noise is allowed, net
// damage is not).
func TestDoesNotHurtRandom(t *testing.T) {
	c, eng := mustNew(t)
	rng := rand.New(rand.NewSource(3))
	pc := uint64(0x999000)
	rawCorrect, scCorrect := 0, 0
	const rounds = 20000
	for i := 0; i < rounds; i++ {
		taken := rng.Intn(2) == 0
		tagePred := rng.Intn(2) == 0
		got := c.Correct(eng, pc, tagePred, false)
		c.Update(pc, taken)
		eng.Push(taken)
		if tagePred == taken {
			rawCorrect++
		}
		if got == taken {
			scCorrect++
		}
	}
	if delta := rawCorrect - scCorrect; delta > rounds*2/100 {
		t.Errorf("corrector cost %d correct predictions of %d on random data", delta, rounds)
	}
}

// TestHistoryCorrelation: outcome equals the outcome 3 branches ago; the
// GEHL components see folded history and can pick up the correlation that
// a (simulated weak) primary predictor misses.
func TestHistoryCorrelation(t *testing.T) {
	c, eng := mustNew(t)
	pc := uint64(0x5500)
	hist := []bool{true, true, false}
	correct := 0
	const rounds = 4000
	for i := 0; i < rounds; i++ {
		taken := hist[len(hist)-3]
		got := c.Correct(eng, pc, false, false)
		c.Update(pc, taken)
		eng.Push(taken)
		hist = append(hist, taken)
		if i > rounds/2 && got == taken {
			correct++
		}
	}
	// hist[n-3] of a period-... wait: outcome = outcome 3 back, so the
	// sequence becomes periodic; the corrector must beat 60% in the
	// second half.
	if correct < rounds/2*60/100 {
		t.Errorf("corrector got %d/%d on history-correlated branch", correct, rounds/2)
	}
}

func TestFlippedAccessor(t *testing.T) {
	c, eng := mustNew(t)
	pc := uint64(0x4400)
	for i := 0; i < 500; i++ {
		c.Correct(eng, pc, false, false)
		c.Update(pc, true)
		eng.Push(true)
	}
	got := c.Correct(eng, pc, false, false)
	if got && !c.Flipped() {
		t.Error("Flipped() must report the override")
	}
	c.Update(pc, true)
}

func TestStorageBits(t *testing.T) {
	c, _ := mustNew(t)
	cfg := DefaultConfig()
	// Components + bias + local bank + IMLI bank, plus the local
	// history registers.
	want := (len(cfg.HistLengths)+3)*cfg.CounterBits<<uint(cfg.LogEntries) + 256*11
	if got := c.StorageBits(); got != want {
		t.Errorf("StorageBits = %d, want %d", got, want)
	}
	lean := cfg
	lean.DisableLocal = true
	lean.DisableIMLI = true
	cl, err := New(lean, history.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	if cl.StorageBits() >= c.StorageBits() {
		t.Error("disabling components must shrink storage")
	}
}

// TestIMLILearnsIterationCorrelatedBranch: a branch inside a loop whose
// outcome fires only on iteration 5 of 8 — invisible to the bias table,
// directly indexed by the IMLI counter.
func TestIMLILearnsIterationCorrelatedBranch(t *testing.T) {
	c, eng := mustNew(t)
	loopPC := uint64(0x7000)
	bodyPC := uint64(0x7004)
	correct, total := 0, 0
	const rounds = 3000
	for r := 0; r < rounds; r++ {
		for iter := 0; iter < 8; iter++ {
			// Loop back-edge: taken 7 times, then falls through.
			backTaken := iter < 7
			got := c.Correct(eng, loopPC, true, false)
			_ = got
			c.UpdateWithTarget(loopPC, loopPC-0x40, backTaken)
			eng.Push(backTaken)
			// Body branch: taken only on iteration 5; TAGE
			// (simulated) blindly predicts not-taken with low
			// confidence.
			taken := iter == 5
			pred := c.Correct(eng, bodyPC, false, false)
			c.UpdateWithTarget(bodyPC, bodyPC+4, taken)
			eng.Push(taken)
			if r > rounds/2 {
				total++
				if pred == taken {
					correct++
				}
			}
		}
	}
	if rate := float64(correct) / float64(total); rate < 0.9 {
		t.Errorf("IMLI-correlated branch accuracy %.3f, want >= 0.9", rate)
	}
}
