package core

import (
	"llbp/internal/assert"
	"testing"

	"llbp/internal/history"
	"llbp/internal/predictor"
	"llbp/internal/trace"
	"llbp/internal/tsl"
)

func newTestLLBP(t *testing.T, cfg Config) (*Predictor, *predictor.Clock) {
	t.Helper()
	clock := &predictor.Clock{}
	p, err := New(cfg, tsl.MustNew(tsl.Config64K()), clock)
	if err != nil {
		t.Fatal(err)
	}
	return p, clock
}

// pushContext feeds n unconditional branches so the RCR window has
// deterministic content.
func pushContext(p *Predictor, clock *predictor.Clock, pcs ...uint64) {
	for _, pc := range pcs {
		p.TrackOther(pc, pc+0x100, trace.Call)
		clock.Advance(10)
	}
}

func TestNewValidations(t *testing.T) {
	clock := &predictor.Clock{}
	base := tsl.MustNew(tsl.Config64K())
	if _, err := New(DefaultConfig(), nil, clock); err == nil {
		t.Error("nil base must fail")
	}
	if _, err := New(DefaultConfig(), base, nil); err == nil {
		t.Error("nil clock must fail")
	}
	bad := DefaultConfig()
	bad.PatternsPerSet = 0
	if _, err := New(bad, base, clock); err == nil {
		t.Error("invalid config must fail")
	}
}

func TestConfigValidationTable(t *testing.T) {
	mods := []struct {
		name string
		mod  func(*Config)
		ok   bool
	}{
		{"default", func(*Config) {}, true},
		{"zerolat", func(c *Config) { c.PrefetchDelay = 0 }, true},
		{"fullassoc", func(c *Config) { c.FullAssocCD = true; c.CIDBits = 31 }, true},
		{"no lengths", func(c *Config) { c.HistLengths = nil }, false},
		{"decreasing lengths", func(c *Config) {
			c.HistLengths = []HistLen{{26, false}, {12, false}}
		}, false},
		{"dup without althash", func(c *Config) {
			c.HistLengths = []HistLen{{12, false}, {12, false}}
		}, false},
		{"dup with althash", func(c *Config) {
			c.HistLengths = []HistLen{{12, false}, {12, true}}
		}, true},
		{"length at the history capacity", func(c *Config) {
			c.HistLengths = []HistLen{{12, false}, {history.MaxLength, false}}
		}, false},
		{"bad tag", func(c *Config) { c.TagBits = 40 }, false},
		{"bad ctr", func(c *Config) { c.CtrBits = 1 }, false},
		{"indivisible buckets", func(c *Config) { c.PatternsPerSet = 10; c.Buckets = 4 }, false},
		{"zero contexts", func(c *Config) { c.NumContexts = 0 }, false},
		{"cdsets not pow2", func(c *Config) { c.CDSets = 1000 }, false},
		{"contexts not divisible", func(c *Config) { c.NumContexts = 1000 }, false},
		{"bad pb geometry", func(c *Config) { c.PBEntries = 10; c.PBWays = 4 }, false},
		{"negative delay", func(c *Config) { c.PrefetchDelay = -1 }, false},
		{"zero window", func(c *Config) { c.W = 0 }, false},
	}
	for _, m := range mods {
		cfg := DefaultConfig()
		m.mod(&cfg)
		err := cfg.Validate()
		if (err == nil) != m.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", m.name, err, m.ok)
		}
	}
}

func TestStorageBitsMatchPaper(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.PatternBits(); got != 18 {
		t.Errorf("pattern bits = %d, want 18 (§VI)", got)
	}
	if got := cfg.PatternSetBits(); got != 288 {
		t.Errorf("pattern-set bits = %d, want 288 (§VI)", got)
	}
	llbpBits, cdBits, pbBits := cfg.StorageBits()
	if kib := float64(llbpBits) / 8 / 1024; kib != 504 {
		t.Errorf("LLBP storage = %.2f KiB, want 504 (§VI)", kib)
	}
	if kib := float64(cdBits) / 8 / 1024; kib < 8 || kib > 12 {
		t.Errorf("CD storage = %.2f KiB, want ≈8.75 (§VI)", kib)
	}
	if kib := float64(pbBits) / 8 / 1024; kib < 2 || kib > 3 {
		t.Errorf("PB storage = %.2f KiB, want ≈2.25 (§VI)", kib)
	}
}

func TestGeometryMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumContexts != 14336 || cfg.CDSets != 2048 {
		t.Error("CD geometry deviates from §VI (2048 sets × 7 ways)")
	}
	if cfg.NumContexts/cfg.CDSets != 7 {
		t.Error("CD associativity must be 7")
	}
	if len(cfg.HistLengths) != 16 || cfg.Buckets != 4 {
		t.Error("16 lengths in 4 buckets per §VI")
	}
	if cfg.W != 8 || cfg.D != 4 {
		t.Error("W=8, D=4 per §VI")
	}
	if cfg.PrefetchDelay != 6 {
		t.Error("6-cycle prefetch delay per §VI")
	}
}

// TestAllocationCreatesContext: a provider misprediction must install the
// current context in the CD and a pattern in its set.
func TestAllocationCreatesContext(t *testing.T) {
	p, clock := newTestLLBP(t, DefaultConfig())
	pushContext(p, clock, 0x100, 0x200, 0x300, 0x400, 0x500, 0x600, 0x700, 0x800)
	// Force mispredictions: alternate a branch the cold TAGE cannot
	// know.
	for i := 0; i < 10; i++ {
		p.Predict(0x4040)
		p.Update(0x4040, i%2 == 0)
		clock.Advance(10)
	}
	if p.Stats().PatternAllocs == 0 {
		t.Error("mispredictions must allocate LLBP patterns")
	}
	if p.Stats().CDLive == 0 {
		t.Error("allocation must install a context")
	}
}

// TestLLBPOverrideFlow trains a context-specific pattern and verifies the
// override machinery end to end, including Figure 15 accounting.
func TestLLBPOverrideFlow(t *testing.T) {
	p, clock := newTestLLBP(t, ZeroLatConfig())
	// A stable context and an alternating branch: LLBP learns patterns
	// at length >= 12; TAGE learns too, but LLBP must at least match and
	// the stats must be internally consistent.
	ctx := []uint64{0x100, 0x200, 0x300, 0x400, 0x500, 0x600, 0x700, 0x800, 0x900, 0xa00, 0xb00, 0xc00}
	pushContext(p, clock, ctx...)
	for i := 0; i < 3000; i++ {
		pred := p.Predict(0x4040)
		_ = pred
		p.Update(0x4040, i%2 == 0)
		clock.Advance(3)
	}
	s := p.Stats()
	if s.CondPredictions != 3000 {
		t.Errorf("CondPredictions = %d", s.CondPredictions)
	}
	if s.Matches == 0 {
		t.Error("LLBP never matched a trained pattern")
	}
	if s.Overrides != s.GoodOverride+s.BadOverride+s.BothCorrect+s.BothWrong {
		t.Errorf("override breakdown inconsistent: %d != %d+%d+%d+%d",
			s.Overrides, s.GoodOverride, s.BadOverride, s.BothCorrect, s.BothWrong)
	}
	if s.Matches != s.Overrides+s.NoOverride {
		t.Errorf("matches %d != overrides %d + noOverride %d", s.Matches, s.Overrides, s.NoOverride)
	}
}

// TestPrefetchLatencyGatesUse: with an enormous prefetch delay and a
// freshly fetched context, predictions must not use the set until ready.
func TestPrefetchLatencyGatesUse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDelay = 1_000_000
	p, clock := newTestLLBP(t, cfg)
	ctx := []uint64{0x100, 0x200, 0x300, 0x400, 0x500, 0x600, 0x700, 0x800, 0x900, 0xa00, 0xb00, 0xc00}
	pushContext(p, clock, ctx...)
	// Train patterns into the current context (allocation bypasses the
	// fetch delay: sets are created core-side).
	for i := 0; i < 200; i++ {
		p.Predict(0x4040)
		p.Update(0x4040, i%2 == 0)
		clock.Advance(3)
	}
	// Rotate to a fresh context and back: the set must be re-fetched
	// from LLBP with the huge latency and stay unusable.
	other := []uint64{0x9100, 0x9200, 0x9300, 0x9400, 0x9500, 0x9600, 0x9700, 0x9800, 0x9900, 0x9a00, 0x9b00, 0x9c00}
	// Flood the PB with other contexts to evict the trained set.
	for k := 0; k < 40; k++ {
		for i, pc := range other {
			pushContext(p, clock, pc+uint64(k*0x10000+i))
		}
	}
	before := p.Stats().NotReady
	pushContext(p, clock, ctx...)
	for i := 0; i < 50; i++ {
		p.Predict(0x4040)
		p.Update(0x4040, i%2 == 0)
		clock.Advance(3)
	}
	s := p.Stats()
	if s.NotReady == before && s.PBMisses == 0 {
		t.Error("with infinite delay, re-fetched sets must be unusable (NotReady or PB miss)")
	}
}

// TestZeroLatNeverNotReady: LLBP-0Lat must never report a not-ready set.
func TestZeroLatNeverNotReady(t *testing.T) {
	p, clock := newTestLLBP(t, ZeroLatConfig())
	ctx := []uint64{0x100, 0x200, 0x300, 0x400, 0x500, 0x600, 0x700, 0x800}
	pushContext(p, clock, ctx...)
	for i := 0; i < 2000; i++ {
		p.Predict(uint64(0x4000 + (i%13)*4))
		p.Update(uint64(0x4000+(i%13)*4), i%3 == 0)
		if i%7 == 0 {
			pushContext(p, clock, uint64(0x8000+(i%5)*0x100))
		}
		clock.Advance(2)
	}
	if n := p.Stats().NotReady; n != 0 {
		t.Errorf("0Lat config reported %d not-ready accesses", n)
	}
}

// TestPipelineResetSquashes: OnPipelineReset must squash clean in-flight
// prefetches and count the reset.
func TestPipelineResetSquashes(t *testing.T) {
	p, clock := newTestLLBP(t, DefaultConfig())
	ctx := []uint64{0x100, 0x200, 0x300, 0x400, 0x500, 0x600, 0x700, 0x800, 0x900, 0xa00, 0xb00, 0xc00}
	pushContext(p, clock, ctx...)
	for i := 0; i < 500; i++ {
		p.Predict(0x4040)
		p.Update(0x4040, i%2 == 0)
		clock.Advance(3)
	}
	before := p.Stats().Resets
	p.OnPipelineReset()
	if p.Stats().Resets != before+1 {
		t.Error("reset not counted")
	}
}

// TestUpdateWithoutPredictPanics guards the harness contract.
func TestUpdateWithoutPredictPanics(t *testing.T) {
	if !assert.Enabled {
		t.Skip("contract panics are debug assertions; run with -tags llbpdebug")
	}
	p, _ := newTestLLBP(t, DefaultConfig())
	p.Predict(0x40)
	defer func() {
		if recover() == nil {
			t.Error("mismatched Update must panic")
		}
	}()
	p.Update(0x44, true)
}

// TestDetailConsistency: the Detail exposed must agree with the returned
// prediction and the stats counters.
func TestDetailConsistency(t *testing.T) {
	p, clock := newTestLLBP(t, ZeroLatConfig())
	pushContext(p, clock, 0x100, 0x200, 0x300, 0x400, 0x500, 0x600, 0x700, 0x800)
	overrides := uint64(0)
	for i := 0; i < 5000; i++ {
		got := p.Predict(0x4040)
		det := p.LastDetail()
		if det.LLBPOverrode {
			overrides++
			if det.Provider != predictor.ProviderLLBP {
				t.Fatal("override must set the LLBP provider")
			}
			if det.PatternKey == 0 {
				t.Fatal("override must carry a pattern key")
			}
		}
		if det.LLBPOverrode && !det.LLBPMatched {
			t.Fatal("override without match")
		}
		if !det.LLBPOverrode && got != det.BaselineTaken {
			t.Fatal("without override the final prediction must be the baseline's")
		}
		p.Update(0x4040, i%2 == 0)
		clock.Advance(2)
	}
	if overrides != p.Stats().Overrides {
		t.Errorf("observed %d overrides, stats say %d", overrides, p.Stats().Overrides)
	}
}

// TestBandwidthCountersMove: reads and writebacks must be accounted once
// contexts rotate through the PB.
func TestBandwidthCountersMove(t *testing.T) {
	p, clock := newTestLLBP(t, ZeroLatConfig())
	// Rotate through many contexts, training a branch whose outcome is
	// an unlearnable function of (context, step) so the provider keeps
	// mispredicting and LLBP keeps allocating — forcing PB churn.
	h := func(k, i int) bool {
		x := uint64(k)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
		x ^= x >> 31
		return x&1 == 1
	}
	for k := 0; k < 300; k++ {
		base := uint64(0x1000 * (k + 1))
		pushContext(p, clock, base, base+8, base+16, base+24, base+32, base+40, base+48, base+56)
		for i := 0; i < 12; i++ {
			p.Predict(0x4040)
			p.Update(0x4040, h(k, i))
			clock.Advance(2)
		}
	}
	s := p.Stats()
	if s.LLBPReads == 0 {
		t.Error("no LLBP reads counted despite context churn")
	}
	if s.LLBPWrites == 0 {
		t.Error("no writebacks counted despite dirty evictions")
	}
	if s.CDLookups == 0 {
		t.Error("no CD lookups counted")
	}
}

// TestMustNewPanics covers the panic wrapper.
func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config must panic")
		}
	}()
	bad := DefaultConfig()
	bad.W = 0
	MustNew(bad, tsl.MustNew(tsl.Config64K()), &predictor.Clock{})
}

// TestZeroLatConfigLabel checks the derived labels.
func TestZeroLatConfigLabel(t *testing.T) {
	p, _ := newTestLLBP(t, ZeroLatConfig())
	if p.Name() != "LLBP-0Lat" {
		t.Errorf("Name = %q", p.Name())
	}
	q, _ := newTestLLBP(t, DefaultConfig())
	if q.Name() != "LLBP" {
		t.Errorf("Name = %q", q.Name())
	}
}
