package tage

import (
	"llbp/internal/assert"
	"testing"

	"llbp/internal/history"
	"llbp/internal/trace"
)

func mustNew(t *testing.T, cfg Config) *Predictor {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// train runs predict/update over a deterministic outcome function and
// returns the misprediction rate over the last half.
func train(p *Predictor, n int, next func(i int) (pc uint64, taken bool)) float64 {
	miss, cnt := 0, 0
	for i := 0; i < n; i++ {
		pc, taken := next(i)
		pred := p.Predict(pc)
		p.Update(pc, taken)
		if i >= n/2 {
			cnt++
			if pred != taken {
				miss++
			}
		}
	}
	return float64(miss) / float64(cnt)
}

func TestAlwaysTaken(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	mr := train(p, 2000, func(int) (uint64, bool) { return 0x1000, true })
	if mr > 0.01 {
		t.Errorf("always-taken missrate %.3f", mr)
	}
}

func TestShortPattern(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	pat := []bool{true, true, false, true, false, false, true}
	mr := train(p, 40000, func(i int) (uint64, bool) { return 0x2000, pat[i%len(pat)] })
	if mr > 0.03 {
		t.Errorf("period-7 missrate %.3f", mr)
	}
}

func TestLongPattern(t *testing.T) {
	// Period-40 pattern needs a longer-history table.
	p := mustNew(t, DefaultConfig())
	pat := make([]bool, 40)
	seed := uint64(0x9E3779B97F4A7C15)
	for i := range pat {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		pat[i] = seed&1 == 1
	}
	mr := train(p, 120000, func(i int) (uint64, bool) { return 0x3000, pat[i%len(pat)] })
	if mr > 0.05 {
		t.Errorf("period-40 missrate %.3f", mr)
	}
}

func TestManyBiasedBranches(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	mr := train(p, 300000, func(i int) (uint64, bool) {
		pc := uint64(0x1000 + (i%2000)*4)
		return pc, pc%3 != 0
	})
	if mr > 0.01 {
		t.Errorf("static-biased missrate %.3f", mr)
	}
}

func TestHistoryCorrelatedAcrossBranches(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: global
	// history catches it where per-PC state cannot.
	p := mustNew(t, DefaultConfig())
	seed := uint64(12345)
	lastA := false
	miss, cnt := 0, 0
	for i := 0; i < 40000; i++ {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		a := seed&1 == 1
		predA := p.Predict(0xA000)
		_ = predA
		p.Update(0xA000, a)
		predB := p.Predict(0xB000)
		p.Update(0xB000, a) // B copies A, visible via 1-deep history
		if i > 20000 {
			cnt++
			if predB != a {
				miss++
			}
		}
		lastA = a
	}
	_ = lastA
	if mr := float64(miss) / float64(cnt); mr > 0.05 {
		t.Errorf("cross-branch correlation missrate %.3f", mr)
	}
}

func TestInfiniteModeNoCapacityLoss(t *testing.T) {
	// A pattern working set far beyond any single finite table: each of
	// 3000 branches carries a distinct periodic pattern. Infinite TAGE
	// must do strictly better than the finite baseline.
	gen := func(i int) (uint64, bool) {
		b := i % 3000
		phase := (i / 3000) % 4
		return uint64(0x10000 + b*4), (uint64(b)*2654435761+uint64(phase))&2 == 0
	}
	fin := mustNew(t, DefaultConfig())
	inf := mustNew(t, DefaultConfig().InfiniteConfig())
	mrF := train(fin, 400000, gen)
	mrI := train(inf, 400000, gen)
	if mrI > mrF {
		t.Errorf("infinite mode (%.4f) must not lose to finite (%.4f)", mrI, mrF)
	}
	if inf.PatternCount() == 0 {
		t.Error("infinite mode must have allocated patterns")
	}
}

func TestUpdateWithoutPredictPanics(t *testing.T) {
	if !assert.Enabled {
		t.Skip("contract panics are debug assertions; run with -tags llbpdebug")
	}
	p := mustNew(t, DefaultConfig())
	p.Predict(0x40)
	defer func() {
		if recover() == nil {
			t.Error("Update with wrong pc must panic")
		}
	}()
	p.Update(0x44, true)
}

func TestUpdateHistoryOnlyAdvancesHistory(t *testing.T) {
	// After UpdateHistoryOnly, the same (pc, history) must hash
	// differently than before — i.e. history moved — while no counters
	// trained (prediction unchanged for a cold branch).
	p := mustNew(t, DefaultConfig())
	p.Predict(0x40)
	idxBefore := p.index(0x40, 5)
	p.UpdateHistoryOnly(0x40, true)
	p.Predict(0x40)
	idxAfter := p.index(0x40, 5)
	if idxBefore == idxAfter {
		t.Error("history did not advance (index hash unchanged); possible but unlikely — investigate")
	}
	p.Update(0x40, true)
}

func TestTrackOtherAdvancesHistory(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	p.Predict(0x40)
	h1 := p.tagHash(0x40, 8)
	p.Update(0x40, true)
	p.TrackOther(0x999, 0x1234, trace.Call)
	if h2 := p.tagHash(0x40, 8); h1 == h2 {
		t.Error("TrackOther must advance folded histories (tag unchanged)")
	}
}

func TestProviderDetailConsistency(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	// Cold predictor: bimodal provides.
	p.Predict(0x4000)
	if p.LastProviderTable() != -1 {
		t.Error("cold prediction must come from the bimodal")
	}
	if p.ProviderLen() != 0 {
		t.Error("bimodal provider length must be 0")
	}
	if p.LastPatternKey() != 0 {
		t.Error("bimodal must have no pattern key")
	}
	p.Update(0x4000, true)
	// Train an alternating branch until a tagged provider appears.
	sawTagged := false
	for i := 0; i < 2000 && !sawTagged; i++ {
		p.Predict(0x4000)
		if p.LastProviderTable() >= 0 {
			sawTagged = true
			if p.ProviderLen() != p.Config().HistLengths[p.LastProviderTable()] {
				t.Error("ProviderLen must match the provider table's history length")
			}
			if p.LastPatternKey() == 0 {
				t.Error("tagged provider must have a pattern key")
			}
		}
		p.Update(0x4000, i%2 == 0)
	}
	if !sawTagged {
		t.Error("alternating branch never got a tagged provider")
	}
}

func TestAllocationsAdvance(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	train(p, 5000, func(i int) (uint64, bool) { return 0x7000, i%2 == 0 })
	if p.Allocations() == 0 {
		t.Error("training an alternating branch must allocate tagged entries")
	}
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.HistLengths = nil },
		func(c *Config) { c.TagBits = c.TagBits[:3] },
		func(c *Config) { c.HistLengths[3] = c.HistLengths[2] },
		func(c *Config) { c.TagBits[0] = 2 },
		func(c *Config) { c.LogEntries[0] = 30 },
		func(c *Config) { c.BimodalLog = 1 },
		func(c *Config) { c.CounterBits = 1 },
		func(c *Config) { c.PathBits = 0 },
		func(c *Config) { c.HistLengths[len(c.HistLengths)-1] = history.MaxLength },
	}
	for i, mod := range bad {
		cfg := DefaultConfig()
		// Deep-copy the slices so mutations do not leak across cases.
		cfg.HistLengths = append([]int(nil), cfg.HistLengths...)
		cfg.TagBits = append([]int(nil), cfg.TagBits...)
		cfg.LogEntries = append([]int(nil), cfg.LogEntries...)
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d passed validation", i)
		}
	}
}

func TestScaledStorage(t *testing.T) {
	base := DefaultConfig()
	scaled := base.Scaled(3)
	if scaled.StorageBits() <= base.StorageBits()*7 {
		t.Errorf("8x scaling grew storage only %d -> %d bits",
			base.StorageBits(), scaled.StorageBits())
	}
	// The 64K budget should be in the tens-of-KB range (tables only).
	kb := base.StorageBits() / 8 / 1024
	if kb < 40 || kb > 80 {
		t.Errorf("baseline storage %dKB out of the 64K-class range", kb)
	}
	if DefaultConfig().InfiniteConfig().StorageBits() != -1 {
		t.Error("infinite storage must report -1")
	}
}

func TestDefaultLengthsContainLLBPSubset(t *testing.T) {
	// §VI: LLBP's 12 base lengths must be a subset of TAGE's lengths
	// for the longest-match arbitration to compare like with like.
	llbp := []int{12, 26, 54, 78, 112, 161, 232, 336, 482, 695, 1444, 3000}
	have := map[int]bool{}
	for _, l := range DefaultHistLengths {
		have[l] = true
	}
	for _, l := range llbp {
		if !have[l] {
			t.Errorf("LLBP length %d missing from TAGE lengths", l)
		}
	}
}

func TestDeterminism(t *testing.T) {
	gen := func(i int) (uint64, bool) {
		return uint64(0x1000 + (i%97)*4), (i*2654435761)%7 < 3
	}
	a := mustNew(t, DefaultConfig())
	b := mustNew(t, DefaultConfig())
	for i := 0; i < 20000; i++ {
		pc, taken := gen(i)
		pa := a.Predict(pc)
		pb := b.Predict(pc)
		if pa != pb {
			t.Fatalf("step %d: predictors diverged", i)
		}
		a.Update(pc, taken)
		b.Update(pc, taken)
	}
}

func TestInfiniteConfigLabelAndCount(t *testing.T) {
	p := mustNew(t, DefaultConfig().InfiniteConfig())
	if p.Name() != "Inf TAGE" {
		t.Errorf("Name = %q", p.Name())
	}
	if p.PatternCount() != 0 {
		t.Error("fresh infinite TAGE must hold no patterns")
	}
}

func BenchmarkPredictUpdate(b *testing.B) {
	p, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%97)*4)
		p.Predict(pc)
		p.Update(pc, (i*2654435761)%7 < 3)
	}
}

func BenchmarkPredictUpdateInfinite(b *testing.B) {
	p, err := New(DefaultConfig().InfiniteConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint64(0x1000 + (i%97)*4)
		p.Predict(pc)
		p.Update(pc, (i*2654435761)%7 < 3)
	}
}

func BenchmarkTrackOther(b *testing.B) {
	p, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.TrackOther(uint64(0x8000+(i%31)*4), 0x9000, trace.Call)
	}
}

func TestUpdateNoAllocTrainsWithoutAllocating(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	// Alternating branch via UpdateNoAlloc only: counters/bimodal train,
	// but the tagged tables stay empty.
	for i := 0; i < 1000; i++ {
		p.Predict(0x6000)
		p.UpdateNoAlloc(0x6000, i%2 == 0)
	}
	if p.Allocations() != 0 {
		t.Errorf("UpdateNoAlloc allocated %d entries", p.Allocations())
	}
	// Mismatched pairing still panics in debug builds.
	if assert.Enabled {
		p.Predict(0x6000)
		defer func() {
			if recover() == nil {
				t.Error("mismatched UpdateNoAlloc must panic")
			}
		}()
		p.UpdateNoAlloc(0x6004, true)
	}
}

func TestLastConfidentTracksTraining(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	p.Predict(0x4000)
	if p.LastConfident() {
		t.Error("cold bimodal entry must not be confident")
	}
	p.Update(0x4000, true)
	for i := 0; i < 50; i++ {
		p.Predict(0x4000)
		p.Update(0x4000, true)
	}
	p.Predict(0x4000)
	if !p.LastConfident() {
		t.Error("heavily reinforced branch must be confident")
	}
	p.Update(0x4000, true)
}

func TestLastTakenAndAltAccessors(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	for i := 0; i < 500; i++ {
		got := p.Predict(0x4100)
		if p.LastTaken() != got {
			t.Fatal("LastTaken must mirror the returned prediction")
		}
		_ = p.LastAltTaken() // exercised; value depends on table state
		p.Update(0x4100, i%2 == 0)
	}
}

func TestAllocFailuresAndTickReset(t *testing.T) {
	// A tiny TAGE whose tables saturate quickly: allocation failures
	// must be counted, and the tick-based useful-bit reset must
	// eventually allow allocations again (allocations keep growing).
	cfg := DefaultConfig()
	cfg.LogEntries = make([]int, len(cfg.HistLengths))
	for i := range cfg.LogEntries {
		cfg.LogEntries[i] = 4 // 16 entries per table
	}
	p := mustNew(t, cfg)
	// Phase 1: predictable alternating branches fill the tiny tables
	// with entries whose useful bits get set (provider right, alt
	// wrong).
	for i := 0; i < 60000; i++ {
		pc := uint64(0x1000 + (i%500)*4)
		p.Predict(pc)
		p.Update(pc, (i/500)%2 == 0)
	}
	// Phase 2: a flood of fresh unpredictable branches must collide
	// with the useful entries: allocation failures get counted, and the
	// tick reset must keep the allocator moving.
	seed := uint64(99)
	for i := 0; i < 120000; i++ {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		pc := uint64(0x90000 + (i%3000)*4)
		p.Predict(pc)
		p.Update(pc, seed&1 == 1)
	}
	if p.AllocFailures() == 0 {
		t.Error("oversubscribed tables must produce allocation failures")
	}
	if p.Allocations() < 1000 {
		t.Errorf("allocations stalled at %d — tick reset not recycling useful bits", p.Allocations())
	}
}

// TestPathHistory: the path register is PathBits wide, takes one low PC
// bit (bit 2, the lowest non-alignment bit) per pushed branch, and drops
// its oldest bit once full.
func TestPathHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PathBits = 8
	p := mustNew(t, cfg)
	for _, bit := range []uint64{1, 0, 1, 1, 0, 0, 1, 0} {
		p.TrackOther(0x1000|bit<<2, 0x2000, trace.Jump)
	}
	// Oldest bit first when reading MSB->LSB: 10110010.
	if p.path != 0b10110010 {
		t.Errorf("path = %#b, want 0b10110010", p.path)
	}
	// A PC with every bit set still shifts in exactly one bit, and
	// pushing beyond PathBits drops the oldest bit.
	p.TrackOther(^uint64(0), 0x2000, trace.Jump)
	if p.path != 0b01100101 {
		t.Errorf("path after extra push = %#b, want 0b01100101", p.path)
	}
}

// TestPathBitsBounds: New builds path registers of 1 to 32 bits (the
// register is a masked uint64 shifted one PC bit per branch) and rejects
// widths of 0 and 33.
func TestPathBitsBounds(t *testing.T) {
	for _, bits := range []int{1, 32} {
		cfg := DefaultConfig()
		cfg.PathBits = bits
		mustNew(t, cfg)
	}
	for _, bits := range []int{0, 33} {
		cfg := DefaultConfig()
		cfg.PathBits = bits
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted PathBits %d", bits)
		}
	}
}

func TestPatternCountFinite(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	want := 21 * 1024
	if got := p.PatternCount(); got != want {
		t.Errorf("finite PatternCount = %d, want %d", got, want)
	}
}

// sinkRecorder keeps the totals of the last ReportCounts call.
type sinkRecorder struct {
	counts  map[string]uint64
	bounds  []float64
	buckets []uint64
	sum     uint64
}

func (r *sinkRecorder) Count(name string, total uint64) { r.counts[name] = total }

func (r *sinkRecorder) Buckets(name string, bounds []float64, counts []uint64, sum uint64) {
	r.bounds, r.buckets, r.sum = bounds, append([]uint64(nil), counts...), sum
}

// TestProviderLenBuckets: every prediction lands in the provider-length
// bucket of its provider's history length (0 for the bimodal), the sum
// totals those lengths, and ReportCounts reports them with the
// allocator's counters.
func TestProviderLenBuckets(t *testing.T) {
	p := mustNew(t, DefaultConfig())
	want := make([]uint64, len(providerLenBounds)+1)
	var wantSum uint64
	const n = 20000
	for i := 0; i < n; i++ {
		pc := 0x4000 + uint64(i%37)*4
		p.Predict(pc)
		l := p.ProviderLen()
		b := 0
		for b < len(providerLenBounds) && providerLenBounds[b] < float64(l) {
			b++
		}
		want[b]++
		wantSum += uint64(l)
		p.Update(pc, (i/3)%2 == 0)
	}
	r := &sinkRecorder{counts: map[string]uint64{}}
	p.ReportCounts(r)
	if len(r.bounds) != 10 || r.bounds[0] != 4 || r.bounds[9] != 2048 {
		t.Errorf("bounds = %v, want 4, 8, ..., 2048", r.bounds)
	}
	var total uint64
	for i := range want {
		total += r.buckets[i]
		if r.buckets[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, r.buckets[i], want[i])
		}
	}
	if total != n || r.sum != wantSum {
		t.Errorf("buckets total %d (want %d), sum %d (want %d)", total, n, r.sum, wantSum)
	}
	if want[0] == n {
		t.Error("stream too tame: no tagged provider")
	}
	if r.counts["tage_allocs"] != p.Allocations() || r.counts["tage_alloc_failures"] != p.AllocFailures() {
		t.Errorf("reported %v, want tage_allocs %d, tage_alloc_failures %d",
			r.counts, p.Allocations(), p.AllocFailures())
	}
}
