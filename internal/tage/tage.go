package tage

import (
	"fmt"
	"sort"

	"llbp/internal/assert"
	"llbp/internal/bimodal"
	"llbp/internal/history"
	"llbp/internal/predictor"
	"llbp/internal/trace"
)

// entry is one tagged-table pattern: a partial tag, a signed prediction
// counter whose sign is the direction, and a useful bit guiding
// replacement (§II-B).
type entry struct {
	tag    uint32
	ctr    int8
	useful uint8
}

// tableLocs caches one tagged table's folded-history locations inside
// the shared history engine, for the reference index/tag hashes.
type tableLocs struct {
	idx  history.Loc
	tag1 history.Loc
	tag2 history.Loc
}

// tableHash is the flattened per-table hash schedule consumed by
// Predict's fill loops: every loop-invariant shift and mask of one table
// in one sequentially read struct, so the per-table work is pure ALU ops.
// A direct table (history shorter than history.RecentBits) folds the
// engine's recent window, masked once to its length, at its three fold
// widths; a packed table loads its three fold fields from packed words.
// idxMask doubles as the index fold's field mask (the fold is registered
// at exactly logE bits), and the tag folds need no field masks at all:
// their stray high bits — a neighbouring field, or a direct fold's
// partial sums above its width — land above TagBits and the final tagMask
// clears them (AND distributes over XOR).
type tableHash struct {
	idxMask   uint64
	window    uint64 // direct: 1<<length - 1, the window bits folded
	tagMask   uint32
	idxWord   int32 // packed: fold words and field shifts
	tag1Word  int32
	tag2Word  int32
	idxShift  uint8
	tag1Shift uint8
	tag2Shift uint8
	pcShift   uint8 // logE - i&3
	pathShift uint8 // i&7 for long-history tables, 0 otherwise
	nSteps    uint8 // direct: log steps of the table's longest fold
	// direct: the fold schedules of the index and the two tag folds, at
	// widths logE, TagBits and TagBits-1.
	sched [3]history.Schedule
}

// infKey identifies a pattern in infinite mode: the full branch PC plus
// the unmodified index and tag hashes. Including the PC removes all
// aliasing while leaving the hash functions untouched, exactly the paper's
// Inf construction.
type infKey struct {
	pc  uint64
	idx uint32
	tag uint32
}

// Predictor is a TAGE predictor instance. It is not safe for concurrent
// use; the simulation driver is single-threaded per predictor.
type Predictor struct {
	cfg Config

	bim *bimodal.Table

	// Finite storage: tables[i] has 1<<LogEntries[i] entries, cut from
	// one backing array by sliceTables.
	tables [][]entry
	// Infinite storage: one unbounded associative map per table.
	inf []map[infKey]*entry

	// path is the path-history register: one low PC bit shifted in per
	// branch, masked to PathBits (Config.Validate bounds it to [1,32]).
	path uint64
	// eng maintains the global history and every folded register,
	// bit-packed so one push updates all of them (see history.Engine).
	// The statistical corrector registers its folds here too, and the
	// LLBP composite shares the engine (§V-B: LLBP's fold mirrors are
	// identical in content to the baseline's) and, when it does, takes
	// over pushing: engOwner is false and TAGE's own update paths
	// advance only the path history.
	eng      *history.Engine
	engOwner bool
	locs     []tableLocs
	plan     []tableHash
	// nDirect counts the direct tables. Lengths strictly increase, so
	// they are plan[:nDirect] and every later table is packed.
	nDirect int

	useAltOnNA int8 // 4-bit counter: >=0 means trust alt over newly allocated providers
	tick       int  // useful-bit aging counter

	rng uint64 // xorshift64* state

	// Per-prediction scratch, filled by Predict and consumed by Update.
	scratch scratch

	// Stats counters (cumulative; ReportCounts publishes them).
	allocFailures uint64
	allocations   uint64
	// providerLens buckets every prediction's provider history length
	// (0 for the bimodal) on providerLenBounds, and providerLenSum totals
	// the lengths. lenBucket[i] is table i's bucket, fixed in New.
	providerLens   [len(providerLenBounds) + 1]uint64
	providerLenSum uint64
	lenBucket      []uint8
}

// providerLenBounds bound the buckets of tage_provider_len, the
// provider-length histogram; longer lengths overflow.
var providerLenBounds = [...]float64{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}

// ReportCounts implements predictor.Counted: the allocator's outcomes
// and the provider-length histogram.
func (p *Predictor) ReportCounts(sink predictor.CountSink) {
	sink.Count("tage_allocs", p.allocations)
	sink.Count("tage_alloc_failures", p.allocFailures)
	sink.Buckets("tage_provider_len", providerLenBounds[:], p.providerLens[:], p.providerLenSum)
}

// scratch carries one prediction's intermediate state from Predict to
// Update (the CBP harness guarantees the pairing).
type scratch struct {
	pc          uint64
	idx         [64]uint32
	tag         [64]uint32
	ent         [64]entry // per-table candidate entries (finite fast path)
	provider    int       // table index of longest match, -1 if none
	alt         int       // table index of next-longest match, -1 if bimodal
	providerKey infKey
	altKey      infKey
	providerCtr int8
	predTaken   bool
	altTaken    bool
	bimTaken    bool
	newlyAlloc  bool // provider entry looked newly allocated
	finalTaken  bool
}

// New constructs a TAGE predictor from cfg.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(cfg.HistLengths)
	if n > 64 {
		return nil, fmt.Errorf("tage: at most 64 tables supported, got %d", n)
	}
	p := &Predictor{
		cfg:      cfg,
		bim:      bimodal.New(cfg.BimodalLog),
		eng:      history.NewEngine(),
		engOwner: true,
		rng:      cfg.Seed | 1,
	}
	if cfg.Infinite {
		p.inf = make([]map[infKey]*entry, n)
		for i := range p.inf {
			p.inf[i] = make(map[infKey]*entry)
		}
	} else {
		total := 0
		for i := 0; i < n; i++ {
			total += 1 << uint(cfg.LogEntries[i])
		}
		p.sliceTables(make([]entry, total))
	}
	p.locs = make([]tableLocs, n)
	for i := 0; i < n; i++ {
		idxBits := cfg.LogEntries[i]
		if cfg.Infinite {
			// Keep the same fold widths as the finite baseline so
			// the hash functions are unchanged.
			idxBits = 10
		}
		p.locs[i] = tableLocs{
			idx:  p.eng.Loc(p.eng.Register(cfg.HistLengths[i], idxBits)),
			tag1: p.eng.Loc(p.eng.Register(cfg.HistLengths[i], cfg.TagBits[i])),
			tag2: p.eng.Loc(p.eng.Register(cfg.HistLengths[i], cfg.TagBits[i]-1)),
		}
	}
	p.plan = make([]tableHash, n)
	for i := 0; i < n; i++ {
		logE := uint(cfg.LogEntries[i])
		if cfg.Infinite {
			logE = 10
		}
		l := &p.locs[i]
		t := &p.plan[i]
		t.idxMask = uint64(1)<<logE - 1
		t.tagMask = uint32(1)<<uint(cfg.TagBits[i]) - 1
		if l.idx.Direct() {
			// All three folds share the table's length, so they are all
			// direct.
			p.nDirect = i + 1
			h := cfg.HistLengths[i]
			t.window = uint64(1)<<uint(h) - 1
			for f, w := range [3]int{int(logE), cfg.TagBits[i], cfg.TagBits[i] - 1} {
				t.nSteps = max(t.nSteps, uint8(history.FoldSteps(h, w)))
				t.sched[f] = history.NewSchedule(w)
			}
		} else {
			t.idxWord, t.idxShift = l.idx.Word, l.idx.Shift
			t.tag1Word, t.tag1Shift = l.tag1.Word, l.tag1.Shift
			t.tag2Word, t.tag2Shift = l.tag2.Word, l.tag2.Shift
		}
		t.pcShift = uint8(logE - uint(i&3))
		if cfg.HistLengths[i] >= 16 {
			t.pathShift = uint8(i & 7)
		}
	}
	p.lenBucket = make([]uint8, n)
	for i, h := range cfg.HistLengths {
		p.lenBucket[i] = uint8(sort.SearchFloat64s(providerLenBounds[:], float64(h)))
	}
	return p, nil
}

// sliceTables cuts backing into the tagged tables, in table order. All
// tables share one flat backing array: a single allocation, contiguous
// for the per-branch provider scan. New and Fork both lay the tables out
// here, so their layouts are equal.
func (p *Predictor) sliceTables(backing []entry) {
	p.tables = make([][]entry, len(p.cfg.LogEntries))
	off := 0
	for i := range p.tables {
		sz := 1 << uint(p.cfg.LogEntries[i])
		p.tables[i] = backing[off : off+sz : off+sz]
		off += sz
	}
}

// HistoryEngine exposes the shared folded-history engine so the
// components around TAGE can register and read their own folds on it:
// the statistical corrector's and the LLBP composite's (§V-B).
func (p *Predictor) HistoryEngine() *history.Engine { return p.eng }

// AdoptHistoryEngine transfers push ownership of the history engine to
// the caller (the composite predictor): TAGE's update paths stop
// advancing the global/folded histories — only the path history — and
// the adopter must call Engine.Push exactly once per branch, after its
// full update. It returns the engine for registration and pushing.
func (p *Predictor) AdoptHistoryEngine() *history.Engine {
	p.engOwner = false
	return p.eng
}

// RebindHistoryEngine points the predictor at a cloned engine (the
// composite's fork path). Cached fold locations remain valid: clones
// share the parent's packed layout.
func (p *Predictor) RebindHistoryEngine(e *history.Engine) { p.eng = e }

// Name implements predictor.Predictor.
func (p *Predictor) Name() string {
	if p.cfg.Infinite {
		return "Inf TAGE"
	}
	return fmt.Sprintf("TAGE-%dKB", p.cfg.StorageBits()/8/1024)
}

// Config returns the predictor's configuration.
func (p *Predictor) Config() Config { return p.cfg }

func (p *Predictor) nextRand() uint64 {
	// xorshift64*: deterministic, cheap, good enough for allocation
	// tie-breaking.
	x := p.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	p.rng = x
	return x * 0x2545F4914F6CDD1D
}

// index computes the table index hash for table i: branch PC mixed with the
// folded global history and the path history, as in the CBP designs.
func (p *Predictor) index(pc uint64, i int) uint32 {
	logE := uint(p.cfg.LogEntries[i])
	if p.cfg.Infinite {
		logE = 10
	}
	h := (pc >> 2) ^ (pc >> (logE - uint(i&3))) ^ p.eng.Load(p.locs[i].idx)
	if p.cfg.HistLengths[i] >= 16 {
		h ^= p.path >> uint(i&7)
	} else {
		h ^= p.path
	}
	return uint32(h & (uint64(1)<<logE - 1))
}

// tagHash computes the partial tag for table i.
func (p *Predictor) tagHash(pc uint64, i int) uint32 {
	l := &p.locs[i]
	h := (pc >> 2) ^ p.eng.Load(l.tag1) ^ (p.eng.Load(l.tag2) << 1)
	return uint32(h & (uint64(1)<<uint(p.cfg.TagBits[i]) - 1))
}

func (p *Predictor) ctrMax() int8 { return int8(1)<<(p.cfg.CounterBits-1) - 1 }
func (p *Predictor) ctrMin() int8 { return -int8(1) << (p.cfg.CounterBits - 1) }

// lookup returns the entry for (pc, table i) if its tag matches, else nil.
func (p *Predictor) lookup(i int, pc uint64, idx, tag uint32) *entry {
	if p.cfg.Infinite {
		//llbplint:allow hotpath -- Infinite is the unbounded-capacity ablation, never the evaluated hardware path; maps are its whole point
		return p.inf[i][infKey{pc, idx, tag}]
	}
	e := &p.tables[i][idx]
	if e.tag == tag && (e.ctr != 0 || e.useful != 0 || e.tag != 0) {
		// The zero entry (tag 0, ctr 0, useful 0) is treated as
		// invalid so that a cold table never spuriously matches
		// tag-0 branches.
		return e
	}
	return nil
}

// Predict implements predictor.Predictor. It records full provenance in
// the scratch area for Update and LastDetail.
func (p *Predictor) Predict(pc uint64) bool {
	s := &p.scratch
	s.pc = pc
	s.provider, s.alt = -1, -1
	// Fill the index/tag scratch from the flattened hash plan: the plan,
	// the fold sources, the path value and the scratch arrays live in
	// locals so the loop bodies are pure ALU work, with no method calls.
	// Direct tables come first (lengths strictly increase) and fold the
	// recent window; packed tables read three packed words. The re-slices
	// prove every per-table index in range (New caps the tables at 64).
	// Every shift count is below 64 (pcShift ≤ 24, pathShift ≤ 7, fold
	// shifts ≤ 62), so masking the counts with 63 changes no value and
	// lets the compiler drop its shift guards. index()/tagHash() are the
	// reference formulation of the same hashes.
	plan := p.plan
	idxs := s.idx[:len(plan)]
	tags := s.tag[:len(plan)]
	pv := p.path
	base := pc >> 2
	direct := plan[:p.nDirect]
	hashDirect(direct, p.eng.Recent(), pc, pv, idxs[:len(direct)], tags[:len(direct)])
	packed := plan[len(direct):]
	pIdxs, pTags := idxs[len(direct):], tags[len(direct):]
	pIdxs, pTags = pIdxs[:len(packed)], pTags[:len(packed)]
	words := p.eng.Words()
	for i := range packed {
		t := &packed[i]
		h := base ^ (pc >> (t.pcShift & 63)) ^ (words[t.idxWord] >> (t.idxShift & 63)) ^ (pv >> (t.pathShift & 63))
		pIdxs[i] = uint32(h & t.idxMask)
		th := base ^ (words[t.tag1Word] >> (t.tag1Shift & 63)) ^ ((words[t.tag2Word] >> (t.tag2Shift & 63)) << 1)
		pTags[i] = uint32(th) & t.tagMask
	}
	if !p.cfg.Infinite {
		// Finite fast path: the candidate entry of every table is copied
		// into the scratch first, so the 21 random table loads issue back
		// to back (memory-level parallelism) instead of serializing
		// through the longest-match scan below.
		tables := p.tables[:len(plan)]
		ents := s.ent[:len(plan)]
		for i, idx := range idxs {
			ents[i] = tables[i][idx]
		}
		for i := len(plan) - 1; i >= 0; i-- {
			e := &s.ent[i]
			// Same validity rule as lookup(): tag match, and the all-zero
			// entry never matches.
			if e.tag != s.tag[i] || (e.ctr == 0 && e.useful == 0 && e.tag == 0) {
				continue
			}
			if s.provider < 0 {
				s.provider = i
				s.providerKey = infKey{pc, s.idx[i], s.tag[i]}
				s.providerCtr = e.ctr
				s.predTaken = e.ctr >= 0
				s.newlyAlloc = e.useful == 0 && (e.ctr == 0 || e.ctr == -1)
			} else {
				s.alt = i
				s.altKey = infKey{pc, s.idx[i], s.tag[i]}
				s.altTaken = e.ctr >= 0
				break
			}
		}
	} else {
		for i := len(plan) - 1; i >= 0; i-- {
			if e := p.lookup(i, pc, s.idx[i], s.tag[i]); e != nil {
				if s.provider < 0 {
					s.provider = i
					s.providerKey = infKey{pc, s.idx[i], s.tag[i]}
					s.providerCtr = e.ctr
					s.predTaken = e.ctr >= 0
					s.newlyAlloc = e.useful == 0 && (e.ctr == 0 || e.ctr == -1)
				} else {
					s.alt = i
					s.altKey = infKey{pc, s.idx[i], s.tag[i]}
					s.altTaken = e.ctr >= 0
					break
				}
			}
		}
	}
	s.bimTaken = p.bim.Predict(pc)
	if s.provider < 0 {
		s.finalTaken = s.bimTaken
		p.providerLens[0]++ // length 0
		return s.finalTaken
	}
	p.providerLens[p.lenBucket[s.provider]]++
	p.providerLenSum += uint64(p.cfg.HistLengths[s.provider])
	if s.alt < 0 {
		s.altTaken = s.bimTaken
	}
	// Newly allocated entries are unreliable; a global use-alt-on-na
	// counter arbitrates (Seznec's TAGE heuristic).
	if s.newlyAlloc && p.useAltOnNA >= 0 {
		s.finalTaken = s.altTaken
	} else {
		s.finalTaken = s.predTaken
	}
	return s.finalTaken
}

// hashDirect fills the index and tag of every direct table from the
// recent-history window, masked once to the table's length and folded at
// its three widths. All three folds run the step count of the table's
// narrowest one, one switch per table (a step a fold does not need is a
// no-op, see history.Schedule). Every shift count is below 64 (schedule
// counts ≤ 63, pcShift ≤ 24, pathShift ≤ 7), so masking the counts with
// 63 changes no value and lets the compiler drop its shift guards. A
// function of its own, so that the folds keep their state in registers
// rather than competing with Predict's.
func hashDirect(direct []tableHash, rec, pc, pv uint64, idxs, tags []uint32) {
	idxs, tags = idxs[:len(direct)], tags[:len(direct)]
	base := pc >> 2
	for i := range direct {
		t := &direct[i]
		x := rec & t.window
		fi, f1, f2 := x, x, x
		// Log steps commute, so the cases run the table's steps from the
		// last one down.
		switch st := &t.sched; t.nSteps {
		case 0:
		case 3:
			fi ^= fi >> (st[0][2] & 63)
			f1 ^= f1 >> (st[1][2] & 63)
			f2 ^= f2 >> (st[2][2] & 63)
			fallthrough
		case 2:
			fi ^= fi >> (st[0][1] & 63)
			f1 ^= f1 >> (st[1][1] & 63)
			f2 ^= f2 >> (st[2][1] & 63)
			fallthrough
		case 1:
			fi ^= fi >> (st[0][0] & 63)
			f1 ^= f1 >> (st[1][0] & 63)
			f2 ^= f2 >> (st[2][0] & 63)
		default:
			n := int(t.nSteps)
			fi, f1, f2 = st[0].Fold(x, n), st[1].Fold(x, n), st[2].Fold(x, n)
		}
		idxs[i] = uint32((base ^ (pc >> (t.pcShift & 63)) ^ fi ^ (pv >> (t.pathShift & 63))) & t.idxMask)
		tags[i] = uint32(base^f1^(f2<<1)) & t.tagMask
	}
}

// providerEntry returns the scratch provider's entry, or nil.
func (p *Predictor) providerEntry() *entry {
	s := &p.scratch
	if s.provider < 0 {
		return nil
	}
	return p.lookup(s.provider, s.pc, s.idx[s.provider], s.tag[s.provider])
}

// Update implements predictor.Predictor: trains counters and useful bits,
// allocates longer-history patterns on mispredictions, and finally pushes
// the outcome into the global/path/folded histories.
//
//llbplint:sink -- predictor tables define simulated accuracy; training on a nondeterministic value forks the trajectory
func (p *Predictor) Update(pc uint64, taken bool) {
	s := &p.scratch
	if pc != s.pc {
		assert.Failf("tage: Update(%#x) without matching Predict (last %#x)", pc, s.pc)
	}
	p.train(taken)
	p.pushHistory(pc, taken)
}

// UpdateNoAlloc trains the provider (counters, useful bits, use-alt) but
// suppresses new-pattern allocation and history update. The LLBP composite
// uses it when LLBP overrides TAGE: "only the providing component is
// updated ... TAGE will cancel its update" (§V-D) — but allocation on a
// *provider* misprediction is handled by LLBP, not TAGE, in that case.
//
//llbplint:sink -- predictor tables define simulated accuracy; training on a nondeterministic value forks the trajectory
func (p *Predictor) UpdateNoAlloc(pc uint64, taken bool) {
	s := &p.scratch
	if pc != s.pc {
		assert.Failf("tage: UpdateNoAlloc(%#x) without matching Predict (last %#x)", pc, s.pc)
	}
	p.trainProviderOnly(taken)
	p.pushHistory(pc, taken)
}

// train performs the full TAGE update given the resolved direction.
func (p *Predictor) train(taken bool) {
	s := &p.scratch
	p.trainProviderOnly(taken)
	// Allocate a new pattern with a longer history when the TAGE
	// prediction (provider or chosen alt) was wrong.
	if s.finalTaken != taken && s.provider < len(p.cfg.HistLengths)-1 {
		p.allocate(taken)
	}
}

// trainProviderOnly updates the providing component's counter, the useful
// bit, the use-alt-on-na counter and the bimodal fallback — everything but
// allocation.
func (p *Predictor) trainProviderOnly(taken bool) {
	s := &p.scratch
	if s.provider < 0 {
		p.bim.Update(s.pc, taken)
		return
	}
	e := p.providerEntry()
	if e == nil {
		// The provider entry can only vanish in infinite mode if a
		// concurrent mutation removed it; treat as bimodal.
		p.bim.Update(s.pc, taken)
		return
	}
	// use-alt-on-na bookkeeping: when the provider looked newly
	// allocated and the two predictions differ, learn which to trust.
	if s.newlyAlloc && s.predTaken != s.altTaken {
		if s.predTaken == taken {
			if p.useAltOnNA > -8 {
				p.useAltOnNA--
			}
		} else if p.useAltOnNA < 7 {
			p.useAltOnNA++
		}
	}
	// Update the provider counter.
	if taken {
		if e.ctr < p.ctrMax() {
			e.ctr++
		}
	} else if e.ctr > p.ctrMin() {
		e.ctr--
	}
	// Useful-bit policy (§II-B): set when the provider was correct and
	// the alternate prediction was wrong; clear when both were correct
	// (the longer pattern is redundant).
	if s.predTaken != s.altTaken {
		if s.predTaken == taken {
			e.useful = 1
		}
	} else if e.useful == 1 && s.predTaken == taken && s.provider >= 0 && s.alt >= 0 {
		// Both tagged patterns agree and are correct: the longer
		// history is not needed; decay its usefulness.
		e.useful = 0
	}
	// When the alternate prediction came from the bimodal, keep the
	// bimodal trained too (it is the ultimate fallback).
	if s.alt < 0 {
		p.bim.Update(s.pc, taken)
	}
}

// allocate inserts the mispredicted branch into (up to two) tables with a
// longer history than the provider, following the championship policy:
// randomized start table, victim must have useful == 0, and repeated
// failures age all useful bits via the tick counter.
func (p *Predictor) allocate(taken bool) {
	s := &p.scratch
	n := len(p.cfg.HistLengths)
	start := s.provider + 1
	// Skew the start table geometrically: with probability 1/2 start one
	// table further, 1/4 two further — spreads allocations across
	// history lengths (Seznec).
	r := p.nextRand()
	for r&1 == 1 && start < n-1 {
		start++
		r >>= 1
	}
	if p.cfg.Infinite {
		// Unbounded associativity: allocation always succeeds in the
		// chosen table.
		i := start
		if i >= n {
			i = n - 1
		}
		k := infKey{s.pc, s.idx[i], s.tag[i]}
		//llbplint:allow hotpath -- Infinite is the unbounded-capacity ablation, never the evaluated hardware path; maps are its whole point
		if _, ok := p.inf[i][k]; !ok {
			//llbplint:allow hotpath -- Infinite ablation: entries live on the heap by design, one allocation per new (pc,idx,tag)
			p.inf[i][k] = &entry{tag: s.tag[i], ctr: weakCtr(taken)}
			p.allocations++
		}
		return
	}
	allocated := 0
	failures := 0
	for i := start; i < n && allocated < 2; i++ {
		e := &p.tables[i][s.idx[i]]
		if e.useful == 0 {
			e.tag = s.tag[i]
			e.ctr = weakCtr(taken)
			e.useful = 0
			allocated++
			p.allocations++
			i++ // leave a gap before the second allocation
		} else {
			failures++
		}
	}
	// Tick-based aging: net allocation failures gradually force a global
	// useful-bit reset so stale patterns can be recycled.
	p.tick += failures - allocated
	if p.tick < 0 {
		p.tick = 0
	}
	if p.tick >= tickThreshold {
		p.tick = 0
		for t := range p.tables {
			tbl := p.tables[t]
			for j := range tbl {
				tbl[j].useful = 0
			}
		}
	}
	if allocated == 0 {
		p.allocFailures++
	}
}

// tickThreshold is the number of net allocation failures that triggers a
// global useful-bit reset.
const tickThreshold = 16384

// weakCtr returns the weak counter value encoding the given direction.
func weakCtr(taken bool) int8 {
	if taken {
		return 0
	}
	return -1
}

// TrackOther implements predictor.Predictor: unconditional transfers
// contribute a taken bit (and their PC) to the histories, as in the CBP
// harness.
func (p *Predictor) TrackOther(pc, _ uint64, _ trace.BranchType) {
	p.pushHistory(pc, true)
}

// pushHistory advances the path history and — when this predictor still
// owns its history engine — the global and folded histories. A composite
// that adopted the engine pushes it once itself, after its whole update
// (its allocation path must see pre-push folds, §V-D).
func (p *Predictor) pushHistory(pc uint64, taken bool) {
	p.path = (p.path<<1 | (pc>>2)&1) & (uint64(1)<<uint(p.cfg.PathBits) - 1)
	if p.engOwner {
		p.eng.Push(taken)
	}
}

// LastConfident reports whether the last prediction came from a saturated
// (high-confidence) provider counter, or — for bimodal predictions — a
// reinforced bimodal entry.
func (p *Predictor) LastConfident() bool {
	s := &p.scratch
	if s.provider < 0 {
		return p.bim.Confident(s.pc)
	}
	return s.providerCtr >= p.ctrMax() || s.providerCtr <= p.ctrMin()+1
}

// UpdateHistoryOnly advances the histories for a conditional branch without
// training any counters or allocating patterns. The LLBP composite calls
// this when LLBP provides the prediction and TAGE "cancels its update"
// (§V-D).
//
//llbplint:sink -- predictor tables define simulated accuracy; training on a nondeterministic value forks the trajectory
func (p *Predictor) UpdateHistoryOnly(pc uint64, taken bool) {
	s := &p.scratch
	if pc != s.pc {
		assert.Failf("tage: UpdateHistoryOnly(%#x) without matching Predict (last %#x)", pc, s.pc)
	}
	p.pushHistory(pc, taken)
}

// ProviderLen returns the history length of the last prediction's provider
// (0 when the bimodal provided).
func (p *Predictor) ProviderLen() int {
	if p.scratch.provider < 0 {
		return 0
	}
	return p.cfg.HistLengths[p.scratch.provider]
}

// LastProviderTable returns the provider table index of the last
// prediction, or -1 for bimodal.
func (p *Predictor) LastProviderTable() int { return p.scratch.provider }

// LastAltTaken returns the alternate prediction of the last Predict.
func (p *Predictor) LastAltTaken() bool { return p.scratch.altTaken }

// LastTaken returns the final TAGE prediction of the last Predict.
func (p *Predictor) LastTaken() bool { return p.scratch.finalTaken }

// LastPatternKey returns a stable identifier of the providing pattern of
// the last prediction (0 when the bimodal provided). Experiments use it to
// count distinct useful patterns per branch (Figures 3b and 5).
func (p *Predictor) LastPatternKey() uint64 {
	s := &p.scratch
	if s.provider < 0 {
		return 0
	}
	k := s.providerKey
	return 1 | uint64(s.provider)<<1 | uint64(k.idx)<<8 | uint64(k.tag)<<32 | k.pc<<48
}

// Allocations returns the cumulative number of successful pattern
// allocations.
func (p *Predictor) Allocations() uint64 { return p.allocations }

// AllocFailures returns the cumulative number of mispredictions for which
// no pattern could be allocated.
func (p *Predictor) AllocFailures() uint64 { return p.allocFailures }

// PatternCount returns the number of live patterns (infinite mode) or the
// total table capacity (finite mode).
func (p *Predictor) PatternCount() int {
	if p.cfg.Infinite {
		n := 0
		for _, m := range p.inf {
			n += len(m)
		}
		return n
	}
	n := 0
	for _, t := range p.tables {
		n += len(t)
	}
	return n
}
