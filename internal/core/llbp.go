package core

import (
	"fmt"

	"llbp/internal/assert"
	"llbp/internal/history"
	"llbp/internal/predictor"
	"llbp/internal/trace"
	"llbp/internal/tsl"
)

// Stats are LLBP's event counters, the raw material for Figures 11, 12
// and 15.
type Stats struct {
	CondPredictions uint64 // conditional branches predicted
	Matches         uint64 // LLBP found a matching pattern
	Overrides       uint64 // match won the length arbitration
	NoOverride      uint64 // match lost to a longer TAGE pattern

	// Override outcome breakdown (Figure 15).
	GoodOverride uint64 // baseline wrong, LLBP right
	BadOverride  uint64 // baseline right, LLBP wrong
	BothCorrect  uint64 // override redundant, both right
	BothWrong    uint64 // both wrong

	LLBPReads  uint64 // pattern-set fetches LLBP -> PB
	LLBPWrites uint64 // dirty pattern-set writebacks PB -> LLBP
	CDLookups  uint64 // context-directory searches (per context switch)
	PBHits     uint64 // prediction-time PB hits (ready)
	NotReady   uint64 // PB entry present/known but prefetch incomplete
	PBMisses   uint64 // CCID absent from the PB at prediction time

	CtxAllocs     uint64 // new contexts installed in the CD
	PatternAllocs uint64 // patterns allocated into sets
	Resets        uint64 // pipeline resets observed
	Squashes      uint64 // in-flight prefetches squashed by resets

	// Prefetch timeliness (Figure 11 bandwidth and §V-C analysis).
	PrefetchIssued uint64 // context-triggered pattern-set fetches into the PB
	PrefetchFilled uint64 // prefetched sets used at least once while cached
	PrefetchWasted uint64 // prefetched sets evicted or squashed untouched

	// Context churn: distinct CCID transitions observed by the RCR.
	CtxSwitches uint64

	// Structure occupancy, filled in by Stats() at snapshot time.
	CDEvictions uint64 // context-directory evictions
	CDLive      int    // live context-directory entries
	PBLive      int    // live pattern-buffer entries

	// Power gating (Config.AutoDisable, §V).
	DisabledPredictions uint64 // predictions made with LLBP powered down
	DisableEvents       uint64 // enabled -> disabled transitions
}

// Predictor is the composite LLBP + TAGE-SC-L predictor (§V): the
// unmodified baseline runs in parallel with the pattern buffer, and the
// longest matching pattern across the two supplies the final prediction.
// It implements predictor.Predictor, predictor.Detailer and
// predictor.Resettable.
type Predictor struct {
	cfg   Config
	base  *tsl.Predictor
	clock *predictor.Clock

	rcr *RCR
	dir *Directory
	pb  *Buffer

	// Shared folded-history engine (§V-B: LLBP's folds are identical in
	// content to the baseline's, so the composite owns one engine, adopted
	// from the baseline TAGE, and pushes it exactly once per branch for
	// both components). f1Loc/f2Loc cache the locations of LLBP's
	// TagBits and TagBits-1 folds per distinct history length.
	eng   *history.Engine
	f1Loc []history.Loc
	f2Loc []history.Loc
	// lenFold maps a HistLengths index to its distinct-length fold index.
	lenFold []int
	// tagPlan flattens tagFor's per-length state (fold locations resolved
	// through lenFold, AltHash flag) for matchPatterns' key-fill loops.
	// Lengths ascend, so tagPlan[:nDirect] are the direct lengths (below
	// history.RecentBits) and the rest packed; the direct lengths fold
	// with sched1 (TagBits) and sched2 (TagBits-1).
	tagPlan        []tagPlan
	nDirect        int
	sched1, sched2 history.Schedule

	stats  Stats
	detail predictor.Detail

	// lastCCID detects CCID transitions for Stats.CtxSwitches.
	lastCCID uint64
	haveCCID bool

	// Power gating state (Config.AutoDisable).
	gateOff      bool // LLBP prediction path powered down
	sleepLeft    int  // disabled windows remaining before probation
	windowLeft   int
	windowGood   int
	windowBad    int
	windowMatch  int
	windowMisses int // baseline mispredictions this window
	windowsSeen  int

	// Per-prediction scratch.
	lastPC     uint64
	baseTaken  bool
	tageTaken  bool
	tageLen    int
	cid        uint64
	pbe        *PBEntry
	matched    bool
	matchSlot  int
	llbpTaken  bool
	llbpLenIdx int
	llbpWins   bool // match won the length arbitration (LLBP is provider)
	override   bool // provider match was confident enough to override
	finalTaken bool

	// wantKeys[li] is the packed-lane match key (valid | lenIdx | tag)
	// expected for history-length index li at the current PB-hit PC.
	// matchPatterns fills the configured prefix once per PB-hit branch
	// straight from the shared folds — the ≤16 tags reuse the ≤12
	// distinct-length fold pairs — and the set probe reduces to one
	// masked compare per lane.
	wantKeys [maxLengths]uint64
}

var (
	_ predictor.Predictor  = (*Predictor)(nil)
	_ predictor.Detailer   = (*Predictor)(nil)
	_ predictor.Resettable = (*Predictor)(nil)
	_ predictor.Counted    = (*Predictor)(nil)
)

// New composes an LLBP instance over the given baseline predictor. The
// clock supplies simulation time for the prefetch-latency model; pass a
// fresh clock that the simulation driver advances.
func New(cfg Config, base *tsl.Predictor, clock *predictor.Clock) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if base == nil {
		return nil, fmt.Errorf("core: nil baseline predictor")
	}
	if clock == nil {
		return nil, fmt.Errorf("core: nil clock")
	}
	p := &Predictor{
		cfg:   cfg,
		base:  base,
		clock: clock,
		rcr:   NewRCR(cfg.W, cfg.D, cfg.CIDBits, cfg.ShiftedHash),
		dir:   newDirectory(&cfg),
		pb:    newBuffer(cfg.PBEntries, cfg.PBWays),
	}
	// Adopt the baseline's history engine: from here on the composite is
	// the single owner pushing it, and LLBP's folds register into the same
	// packed words (deduping against TAGE's where (length, width) match).
	p.eng = base.TAGE().AdoptHistoryEngine()
	p.lenFold = make([]int, len(cfg.HistLengths))
	seen := map[int]int{}
	for i, h := range cfg.HistLengths {
		fi, ok := seen[h.Len]
		if !ok {
			fi = len(p.f1Loc)
			seen[h.Len] = fi
			p.f1Loc = append(p.f1Loc, p.eng.Loc(p.eng.Register(h.Len, cfg.TagBits)))
			p.f2Loc = append(p.f2Loc, p.eng.Loc(p.eng.Register(h.Len, cfg.TagBits-1)))
		}
		p.lenFold[i] = fi
	}
	p.tagPlan = make([]tagPlan, len(cfg.HistLengths))
	for i, h := range cfg.HistLengths {
		l1, l2 := p.f1Loc[p.lenFold[i]], p.f2Loc[p.lenFold[i]]
		t := &p.tagPlan[i]
		t.alt = h.AltHash
		if l1.Direct() {
			// Both folds share the length, so both are direct.
			p.nDirect = i + 1
			t.win = uint64(1)<<uint(h.Len) - 1
			// The narrower fold takes at least as many steps.
			t.steps = uint8(history.FoldSteps(h.Len, cfg.TagBits-1))
			t.twin = i+1 < len(cfg.HistLengths) && cfg.HistLengths[i+1].Len == h.Len
		} else {
			t.m1, t.m2 = l1.Mask, l2.Mask
			t.w1, t.w2 = l1.Word, l2.Word
			t.s1, t.s2 = l1.Shift, l2.Shift
		}
	}
	p.sched1, p.sched2 = history.NewSchedule(cfg.TagBits), history.NewSchedule(cfg.TagBits-1)
	return p, nil
}

// tagPlan is one history length's flattened tag-hash schedule, laid out
// for sequential reads in matchPatterns' key-fill loops: for a direct
// length the window mask, log-step count and twin flag, for a packed one
// the two fold locations (already resolved through lenFold); and the
// AltHash flag.
type tagPlan struct {
	win    uint64 // direct: 1<<length - 1, the window bits folded
	m1, m2 uint64 // packed: field masks
	w1, w2 int32
	s1, s2 uint8
	steps  uint8 // direct
	alt    bool
	twin   bool // direct: the next length is the same (its AltHash twin), so it reuses these folds
}

// MustNew is New panicking on error, for the always-valid package configs.
func MustNew(cfg Config, base *tsl.Predictor, clock *predictor.Clock) *Predictor {
	p, err := New(cfg, base, clock)
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
	return "LLBP"
}

// Config returns the LLBP configuration.
func (p *Predictor) Config() Config { return p.cfg }

// Base returns the underlying baseline predictor.
func (p *Predictor) Base() *tsl.Predictor { return p.base }

// Stats returns a snapshot of the event counters, including the fields
// derived at snapshot time: CDLive, PBLive, CDEvictions, and
// CondPredictions, the baseline's count (every Predict asks it first).
// It is the composite's public observability surface.
func (p *Predictor) Stats() Stats {
	s := p.stats
	s.CondPredictions = p.base.Stats().Predictions
	s.CDEvictions = p.dir.Evictions()
	s.CDLive = p.dir.Live()
	s.PBLive = p.pb.Live()
	return s
}

// ReportCounts implements predictor.Counted: LLBP's event counters under
// their metric names, then the baseline's.
func (p *Predictor) ReportCounts(sink predictor.CountSink) {
	s := &p.stats
	sink.Count("pb_hits", s.PBHits)
	sink.Count("pb_late", s.NotReady)
	sink.Count("pb_misses", s.PBMisses)
	sink.Count("prefetch_issued", s.PrefetchIssued)
	sink.Count("prefetch_filled", s.PrefetchFilled)
	sink.Count("prefetch_wasted", s.PrefetchWasted)
	sink.Count("rcr_ctx_switches", s.CtxSwitches)
	sink.Count("cd_lookups", s.CDLookups)
	sink.Count("cd_ctx_allocs", s.CtxAllocs)
	sink.Count("llbp_pattern_allocs", s.PatternAllocs)
	sink.Count("llbp_reads", s.LLBPReads)
	sink.Count("llbp_writes", s.LLBPWrites)
	sink.Count("llbp_matches", s.Matches)
	sink.Count("llbp_overrides", s.Overrides)
	sink.Count("llbp_good_overrides", s.GoodOverride)
	sink.Count("llbp_bad_overrides", s.BadOverride)
	sink.Count("pipeline_resets", s.Resets)
	sink.Count("prefetch_squashes", s.Squashes)
	sink.Count("llbp_disable_events", s.DisableEvents)
	sink.Count("llbp_disabled_predictions", s.DisabledPredictions)
	p.base.ReportCounts(sink)
}

// tagFor computes the pattern tag for pc at history-length index lenIdx.
// AltHash variants (the * lengths of §VI) combine the same folded
// histories differently, like the baseline TAGE's modified hash.
func (p *Predictor) tagFor(pc uint64, lenIdx int) uint32 {
	fi := p.lenFold[lenIdx]
	f1, f2 := p.eng.Load(p.f1Loc[fi]), p.eng.Load(p.f2Loc[fi])
	mask := uint64(1)<<uint(p.cfg.TagBits) - 1
	if p.cfg.HistLengths[lenIdx].AltHash {
		rot := (f1 << 3) | (f1 >> uint(p.cfg.TagBits-3))
		return uint32(((pc >> 2) ^ rot ^ (f2 << 2)) & mask)
	}
	return uint32(((pc >> 2) ^ f1 ^ (f2 << 1)) & mask)
}

// Predict implements predictor.Predictor: the baseline predicts, the PB is
// probed with the current context ID, and the longest match wins (§V-B).
func (p *Predictor) Predict(pc uint64) bool {
	p.lastPC = pc
	p.baseTaken = p.base.Predict(pc)
	p.tageTaken = p.base.TAGE().LastTaken()
	p.tageLen = p.base.TAGE().ProviderLen()
	baseDetail := p.base.LastDetail()

	if p.cfg.AutoDisable {
		p.tickGate()
	}
	if p.gateOff {
		// LLBP's prediction path is powered down (§V): the baseline
		// predicts alone. Histories and the RCR keep running (cheap
		// registers), so re-enabling is seamless.
		p.stats.DisabledPredictions++
		p.matched, p.llbpWins, p.override = false, false, false
		p.pbe = nil
		p.finalTaken = p.baseTaken
		p.detail = baseDetail
		p.detail.BaselineTaken = p.baseTaken
		return p.finalTaken
	}

	p.cid = p.rcr.CCID()
	p.matched = false
	p.pbe = p.pb.Lookup(p.cid)
	switch {
	case p.pbe != nil && p.pbe.Ready <= p.clock.NowF():
		p.stats.PBHits++
		p.touchPB(p.pbe)
		p.matchPatterns(pc)
	case p.pbe != nil:
		p.stats.NotReady++
		p.pbe = nil // unusable this cycle
	default:
		p.stats.PBMisses++
	}

	p.override, p.llbpWins = false, false
	p.finalTaken = p.baseTaken
	if p.matched {
		p.stats.Matches++
		p.windowMatch++
		p.llbpWins = p.cfg.HistLengths[p.llbpLenIdx].Len >= p.tageLen
		// Longest history wins (§V-B); but a newly allocated,
		// still-weak pattern defers to the baseline for the final
		// prediction, mirroring TAGE's use-alt-on-newly-allocated
		// heuristic — a weak counter carries no evidence yet. The
		// pattern still trains as the provider.
		ctr := laneCtr(p.pbe.Ent.Set.lanes()[p.matchSlot])
		confident := ctr >= 1 || ctr <= -2
		if p.llbpWins && confident {
			p.override = true
			p.finalTaken = p.llbpTaken
			p.stats.Overrides++
		} else {
			p.stats.NoOverride++
		}
	}

	p.detail = baseDetail
	p.detail.BaselineTaken = p.baseTaken
	p.detail.LLBPMatched = p.matched
	p.detail.LLBPOverrode = p.override
	if p.override {
		p.detail.Provider = predictor.ProviderLLBP
		p.detail.ProviderLen = p.cfg.HistLengths[p.llbpLenIdx].Len
		p.detail.PatternKey = p.llbpPatternKey()
	}
	return p.finalTaken
}

// tickGate advances the power-gating window state machine (§V, see
// Config.AutoDisable): LLBP powers down when TAGE alone is accurate
// enough, or when LLBP keeps matching without net benefit. A warm-up
// grace period protects LLBP's initial training, and every sleep ends in
// a probation window so phase changes re-enable it.
func (p *Predictor) tickGate() {
	if p.windowLeft > 0 {
		p.windowLeft--
		return
	}
	window := p.cfg.DisableWindow
	if window <= 0 {
		window = 32768
	}
	p.windowsSeen++
	const graceWindows = 4
	switch {
	case p.gateOff:
		p.sleepLeft--
		if p.sleepLeft <= 0 {
			p.gateOff = false // probation window
		}
	case p.windowsSeen <= graceWindows:
		// Warm-up grace: let LLBP learn before judging it.
	default:
		baselineAccurate := float64(p.windowMisses) < p.cfg.DisableMissFrac*float64(window)
		matchedALot := p.windowMatch > window/50
		noBenefit := p.windowGood-p.windowBad < p.cfg.DisableThreshold
		if baselineAccurate || (matchedALot && noBenefit) {
			p.gateOff = true
			p.sleepLeft = 4
			p.stats.DisableEvents++
		}
	}
	p.windowGood, p.windowBad, p.windowMatch, p.windowMisses = 0, 0, 0, 0
	p.windowLeft = window - 1
}

// matchPatterns scans the current pattern set for the longest matching
// pattern. Sets are kept in ascending history-length order, so the last
// match in slot order is the longest (§V-B).
//
// The probe is branch-free: the expected key for every configured length
// is computed up front (valid bit, length index and tag packed exactly as
// the lanes store them), then each lane needs one mask, one table load
// and one compare, with the matching slot carried in a conditional move.
func (p *Predictor) matchPatterns(pc uint64) {
	// Key fill: tagFor unrolled over the flattened plan with the plan, the
	// fold sources and the key array in locals (tagFor is the reference
	// formulation of the same hash). A direct length folds the recent
	// window, masked once to its length, at both tag widths, and its
	// AltHash twin reuses those folds; a packed length costs two indexed
	// loads. The re-slice proves keys[li] in range (Validate caps the
	// lengths at maxLengths). Every shift count is below 64 (a fold's
	// field lies inside its 64-bit word, schedule counts are at most 63,
	// and the tag mask and rotate shift by TagBits and TagBits-3, with
	// TagBits ≤ 31), so masking the counts with 63 changes no value and
	// lets the compiler drop its shift guards.
	plan := p.tagPlan
	keys := p.wantKeys[:len(plan)]
	mask := uint64(1)<<(uint(p.cfg.TagBits)&63) - 1
	rot := uint(p.cfg.TagBits-3) & 63
	base := pc >> 2
	direct := plan[:p.nDirect]
	rec := p.eng.Recent()
	s1, s2 := &p.sched1, &p.sched2
	for li := 0; li < len(direct); li++ {
		t := &direct[li]
		x, n := rec&t.win, int(t.steps)
		// The folds' field masks are mask and mask>>1.
		f1 := s1.Fold(x, n) & mask
		f2 := s2.Fold(x, n) & (mask >> 1)
		keys[li] = patternKey(li, base, f1, f2, mask, rot, t.alt)
		if t.twin {
			li++
			keys[li] = patternKey(li, base, f1, f2, mask, rot, direct[li].alt)
		}
	}
	words := p.eng.Words()
	for li := len(direct); li < len(plan); li++ {
		t := &plan[li]
		f1 := (words[t.w1] >> (t.s1 & 63)) & t.m1
		f2 := (words[t.w2] >> (t.s2 & 63)) & t.m2
		keys[li] = patternKey(li, base, f1, f2, mask, rot, t.alt)
	}
	lanes := p.pbe.Ent.Set.lanes()
	slot := -1
	for i, lane := range lanes {
		// The valid bit sits just above the 8-bit length field, so the
		// uint8 truncation is the field mask; an invalid lane can never
		// equal its key (every key carries the valid bit), and a valid
		// lane's length index is always < n by construction.
		li := uint8(lane >> laneLenShift)
		if lane&laneKeyMask == p.wantKeys[li] {
			slot = i
		}
	}
	if slot < 0 {
		return
	}
	lane := lanes[slot]
	p.matched = true
	p.matchSlot = slot
	p.llbpTaken = laneCtr(lane) >= 0
	p.llbpLenIdx = int((lane >> laneLenShift) & laneLenMask)
}

// patternKey packs the match key of length index li — valid bit, length
// index and tag, exactly as the lanes store them — from the length's two
// folds, combined as tagFor combines them (rot is TagBits-3).
func patternKey(li int, base, f1, f2, mask uint64, rot uint, alt bool) uint64 {
	var tag uint64
	if alt {
		tag = (base ^ ((f1 << 3) | (f1 >> rot)) ^ (f2 << 2)) & mask
	} else {
		tag = (base ^ f1 ^ (f2 << 1)) & mask
	}
	return laneValidBit | uint64(li)<<laneLenShift | tag
}

// maxLengths bounds the per-prediction tag scratch.
const maxLengths = 256

func (p *Predictor) llbpPatternKey() uint64 {
	q := p.pbe.Ent.Set.Pattern(p.matchSlot)
	return 1<<63 | p.cid<<20 | uint64(q.Tag)<<5 | uint64(q.LenIdx)
}

// Update implements predictor.Predictor (unknown target; see
// UpdateWithTarget).
//
//llbplint:sink -- predictor tables define simulated accuracy; training on a nondeterministic value forks the trajectory
func (p *Predictor) Update(pc uint64, taken bool) {
	p.UpdateWithTarget(pc, pc+4, taken)
}

// UpdateWithTarget implements predictor.TargetUpdater: trains the
// providing component, allocates longer-history patterns on provider
// mispredictions (§V-D), and advances LLBP's history mirrors.
//
//llbplint:sink -- predictor tables define simulated accuracy; training on a nondeterministic value forks the trajectory
func (p *Predictor) UpdateWithTarget(pc, target uint64, taken bool) {
	if pc != p.lastPC {
		assert.Failf("core: Update(%#x) without matching Predict (last %#x)", pc, p.lastPC)
	}
	if p.baseTaken != taken {
		p.windowMisses++
	}
	// Figure 15 bookkeeping for overrides.
	if p.override {
		baseRight := p.baseTaken == taken
		llbpRight := p.llbpTaken == taken
		switch {
		case !baseRight && llbpRight:
			p.stats.GoodOverride++
			p.windowGood++
		case baseRight && !llbpRight:
			p.stats.BadOverride++
			p.windowBad++
		case baseRight && llbpRight:
			p.stats.BothCorrect++
		default:
			p.stats.BothWrong++
		}
	}

	if p.gateOff {
		// Powered down: the baseline trains alone; no LLBP training or
		// allocation.
		p.base.UpdateWithTarget(pc, target, taken)
		p.pushHistory(taken)
		if p.cfg.CtxType.Feeds(trace.CondDirect, taken) {
			p.rcr.Push(pc)
			p.noteContextFeed()
		}
		return
	}

	providerWrong := false
	providerLenIdx := -1
	if p.llbpWins {
		// LLBP is the provider: train the pattern whether or not its
		// confidence allowed the override (like TAGE training a
		// newly allocated provider while the alt prediction is
		// used).
		lanes := p.pbe.Ent.Set.lanes()
		ctr := laneCtr(lanes[p.matchSlot])
		if taken {
			if ctr < p.ctrMax() {
				ctr++
			}
		} else if ctr > p.ctrMin() {
			ctr--
		}
		lanes[p.matchSlot] = laneWithCtr(lanes[p.matchSlot], ctr)
		p.pbe.Dirty = true
		p.dir.RefreshConf(p.pbe.Ent)
		providerWrong = p.llbpTaken != taken
		providerLenIdx = p.llbpLenIdx
	} else {
		providerWrong = p.tageTaken != taken
	}
	if p.override {
		// TAGE cancels its update when overridden (§V-D).
		p.base.UpdateAsOverridden(pc, target, taken)
	} else {
		p.base.UpdateWithTarget(pc, target, taken)
	}

	if providerWrong {
		provLen := p.tageLen
		if providerLenIdx >= 0 {
			provLen = p.cfg.HistLengths[providerLenIdx].Len
		}
		p.allocate(pc, taken, provLen)
	}

	p.pushHistory(taken)
	if p.cfg.CtxType.Feeds(trace.CondDirect, taken) {
		p.rcr.Push(pc)
		p.noteContextFeed()
		p.onContextSwitch()
	}
}

func (p *Predictor) ctrMax() int8 { return int8(1)<<(p.cfg.CtrBits-1) - 1 }
func (p *Predictor) ctrMin() int8 { return -int8(1) << (p.cfg.CtrBits - 1) }

// allocate installs a new pattern for the current context with the
// smallest LLBP history length strictly longer than the mispredicting
// provider's (§V-D steps 1–4).
func (p *Predictor) allocate(pc uint64, taken bool, provLen int) {
	lenIdx := -1
	for i, h := range p.cfg.HistLengths {
		if h.Len > provLen {
			lenIdx = i
			break
		}
	}
	if lenIdx < 0 {
		return // provider already used the maximum length
	}
	ent := p.dir.Lookup(p.cid)
	if ent == nil {
		// Step 1: install the context.
		var evictedCID uint64
		var evicted bool
		ent, evictedCID, evicted = p.dir.Insert(p.cid)
		p.stats.CtxAllocs++
		if evicted {
			if old := p.pb.Invalidate(evictedCID); old.Valid {
				if old.Dirty {
					p.stats.LLBPWrites++
				}
				p.noteEvicted(old)
			}
		}
	}
	pbe := p.pb.Lookup(p.cid)
	if pbe == nil {
		// The set is (now) resident in LLBP but not cached; pull it
		// in. New patterns are created core-side, so the entry is
		// immediately usable.
		pbe = p.fetchIntoPB(p.cid, ent, 0, false)
	}
	p.touchPB(pbe)
	pbe.Ent = ent
	// Steps 2–4: replace the least-confident pattern in the target
	// bucket and keep the bucket sorted.
	ent.Set.insert(p.tagFor(pc, lenIdx), uint8(lenIdx), taken, p.cfg.Buckets, len(p.cfg.HistLengths))
	pbe.Dirty = true
	p.dir.RefreshConf(ent)
	p.stats.PatternAllocs++
}

// fetchIntoPB models a pattern-set transfer from LLBP storage to the PB,
// accounting the read and any dirty-victim writeback. prefetch marks
// context-triggered fetches for the timeliness accounting (demand fetches
// from the allocation path pass false).
func (p *Predictor) fetchIntoPB(cid uint64, ent *CDEntry, delay float64, prefetch bool) *PBEntry {
	p.stats.LLBPReads++
	if prefetch {
		p.stats.PrefetchIssued++
	}
	ins, ev := p.pb.Insert(cid, ent, p.clock.NowF()+delay)
	if ev.Valid {
		if ev.Dirty {
			p.stats.LLBPWrites++
			p.dir.RefreshConf(ev.Ent)
		}
		p.noteEvicted(ev)
	}
	ins.Prefetched = prefetch
	return ins
}

// touchPB marks a PB entry used, completing the prefetch-timeliness
// accounting on the first use of a prefetched entry.
func (p *Predictor) touchPB(e *PBEntry) {
	if e.Prefetched && !e.Touched {
		p.stats.PrefetchFilled++
	}
	e.Touched = true
}

// noteEvicted accounts a PB entry leaving the buffer: a prefetched entry
// that never served a use was wasted prefetch bandwidth.
func (p *Predictor) noteEvicted(ev PBEntry) {
	if ev.Prefetched && !ev.Touched {
		p.stats.PrefetchWasted++
	}
}

// noteContextFeed runs after every RCR push, counting CCID transitions.
func (p *Predictor) noteContextFeed() {
	ccid := p.rcr.CCID()
	if p.haveCCID && ccid == p.lastCCID {
		return
	}
	if p.haveCCID {
		p.stats.CtxSwitches++
	}
	p.lastCCID, p.haveCCID = ccid, true
}

// TrackOther implements predictor.Predictor: maintains the baseline's and
// LLBP's histories and drives the context-switch machinery (§V-C).
func (p *Predictor) TrackOther(pc, target uint64, t trace.BranchType) {
	p.base.TrackOther(pc, target, t)
	p.pushHistory(true)
	if p.cfg.CtxType.Feeds(t, true) {
		p.rcr.Push(pc)
		p.noteContextFeed()
		p.onContextSwitch()
	}
}

// onContextSwitch runs once per context-feeding branch: it searches the CD
// with the prefetch CID and pulls the upcoming pattern set into the PB
// ahead of use; it also issues a demand fetch if the *current* context is
// known but absent from the PB (the post-reset path, §V-C).
func (p *Predictor) onContextSwitch() {
	if p.gateOff {
		return // powered down: no CD searches or prefetches
	}
	p.stats.CDLookups++
	pcid := p.rcr.PrefetchCID()
	if ent := p.dir.Lookup(pcid); ent != nil && p.pb.Lookup(pcid) == nil {
		p.fetchIntoPB(pcid, ent, p.cfg.PrefetchDelay, true)
	}
	if p.cfg.D == 0 {
		return // prefetch CID == CCID; already handled
	}
	ccid := p.rcr.CCID()
	if p.pb.Lookup(ccid) == nil {
		if ent := p.dir.Lookup(ccid); ent != nil {
			p.fetchIntoPB(ccid, ent, p.cfg.PrefetchDelay, true)
		}
	}
}

// pushHistory advances the shared history engine — the composite's
// single per-branch fold update, serving the baseline's tables and
// LLBP's pattern tags alike. It runs after allocation (which must see
// the pre-branch folds) and after the baseline's table training.
func (p *Predictor) pushHistory(taken bool) {
	p.eng.Push(taken)
}

// OnPipelineReset implements predictor.Resettable: squash in-flight
// prefetches and restart prefetching for the current context (§VI).
func (p *Predictor) OnPipelineReset() {
	now := p.clock.NowF()
	p.stats.Resets++
	squashed := uint64(p.pb.SquashInflight(now))
	p.stats.Squashes += squashed
	// Squashed in-flight fetches are by construction untouched prefetches
	// (demand fetches complete immediately), so they count as wasted.
	p.stats.PrefetchWasted += squashed
	ccid := p.rcr.CCID()
	if p.pb.Lookup(ccid) == nil {
		if ent := p.dir.Lookup(ccid); ent != nil {
			p.fetchIntoPB(ccid, ent, p.cfg.PrefetchDelay, true)
		}
	}
}

// LastDetail implements predictor.Detailer.
func (p *Predictor) LastDetail() predictor.Detail { return p.detail }
