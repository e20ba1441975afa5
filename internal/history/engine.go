package history

import "llbp/internal/assert"

// FoldID names one folded-history register inside an Engine.
type FoldID int32

// RecentBits is the width of the Engine's recent-history window, the last
// RecentBits outcomes kept in one machine word. A register whose history
// length is below RecentBits is direct: it holds no state and is folded
// from the window when read. Longer registers are packed: they are fields
// of packed words that every push advances. The rule depends on the
// length alone, so every fold of one history length is read the same way.
const RecentBits = 64

// Loc says where one folded register's value comes from. A packed
// register reads (words[Word] >> Shift) & Mask. A direct register has a
// negative Word and reads FoldWindow(recent & (1<<Len - 1), Len, Width) &
// Mask, where recent is Engine.Recent. A zero-length register is direct
// with an empty window, so it reads zero. Readers on the per-branch hot
// path cache the Loc once and load the word through Engine.Words or the
// window through Engine.Recent, splitting their loops at the first packed
// length (lengths ascend in every predictor's configuration).
type Loc struct {
	Word  int32
	Shift uint8 // packed: the field's offset in its word
	Len   uint8 // direct: history length, the window bits folded
	Width uint8 // direct: fold width
	Mask  uint64
}

// Direct reports whether the register is folded from the recent window.
func (l Loc) Direct() bool { return l.Word < 0 }

// FoldWindow XOR-folds x, a history of at most length bits (newest
// outcome at bit 0, nothing at or above bit length) with length below
// RecentBits, into its low width bits. The fold runs in log steps: after
// the steps that shift by width, 2·width, …, 2^(k−1)·width, bits
// [0, width) hold the XOR of the first 2^k width-bit chunks of x, and the
// loop stops once 2^k·width covers length. Those chunks are exactly the
// ones Global.Hash XORs (bit i lands at position i mod width), so the low
// width bits equal Global.Hash(length, width) of a history whose most
// recent bits are x, for every width in [1, 63]. The bits above width
// hold partial sums; callers mask them off, or let a downstream mask do
// it. Every shift count is below length, so below 64, and the & 63 lets
// the compiler drop its shift guard without changing a count.
//
// This is the reference form. The hot-path readers run the same steps
// branch-free through a Schedule.
func FoldWindow(x uint64, length, width uint8) uint64 {
	for s := uint(width); s < uint(length); s <<= 1 {
		x ^= x >> (s & 63)
	}
	return x
}

// MaxFoldSteps is the most log steps a direct fold takes: a window holds
// fewer than RecentBits bits, and width<<6 ≥ RecentBits for every width.
const MaxFoldSteps = 6

// FoldSteps returns the number of log steps FoldWindow takes for a
// length-bit history at width bits, width ≥ 1: the smallest n with
// width<<n ≥ length.
func FoldSteps(length, width int) int {
	n := 0
	for width<<n < length {
		n++
	}
	return n
}

// Schedule is the log-step shift schedule of one fold width, for the
// hot-path readers of direct registers: entry k is width<<k, capped at 63.
// A step whose count reaches the window's length is a no-op — the window
// has no bits at or above its length, and bit 63 is never among them — so
// a reader may run more steps than a fold needs and still read the fold.
type Schedule [MaxFoldSteps]uint8

// NewSchedule returns the schedule of a width-bit fold, width in [1, 63].
func NewSchedule(width int) Schedule {
	var s Schedule
	for k := range s {
		s[k] = 63
		if c := width << k; c < 63 {
			s[k] = uint8(c)
		}
	}
	return s
}

// Fold folds the window x like FoldWindow, running the schedule's first
// steps steps, steps ≤ MaxFoldSteps. Steps commute, so up to three of
// them run unrolled from the last one down, straight-line after the one
// switch: a loop over the steps mispredicts its exit whenever the step
// count changes from one fold to the next, and readers run their folds in
// length order, so neighbouring folds mostly share a count and the switch
// predicts well. The bits above the width hold partial sums, as in
// FoldWindow. Every count is at most 63, so masking the counts with 63
// changes no value and lets the compiler drop its shift guards.
func (s *Schedule) Fold(x uint64, steps int) uint64 {
	switch steps {
	case 0:
	case 3:
		x ^= x >> (s[2] & 63)
		fallthrough
	case 2:
		x ^= x >> (s[1] & 63)
		fallthrough
	case 1:
		x ^= x >> (s[0] & 63)
	default:
		for k := range s[:steps] {
			x ^= x >> (s[k] & 63)
		}
	}
	return x
}

// Engine maintains every folded-history register of a predictor composite
// in one place — TAGE's index and tag folds, the statistical corrector's
// component folds and LLBP's pattern-tag folds — so each distinct
// (length, width) fold is updated at most once per branch no matter how
// many components read it (§V-B: LLBP's fold mirrors are by construction
// identical in content to the baseline's).
//
// Folds of histories shorter than RecentBits need no per-branch update:
// the Engine keeps the last RecentBits outcomes in one word, and such a
// fold is computed from it when read (see FoldWindow). Only the longer
// folds are maintained incrementally.
//
// Those are bit-packed: all folds of one history length share packed
// 64-bit words, each field separated by a single spare bit. One Push then
// updates a whole word of folds with a handful of ALU ops — the shift-in,
// the outgoing-bit injection and the final masking are shared by every
// field in the word; only the MSB wrap-around is per distinct field width
// — instead of the classic per-register load/shift/xor/store walk. The
// spare bit is what makes the sharing sound: after the shared left shift,
// each field's overflow bit lands in its own spare slot, where the
// per-width wrap reads it back, so neighbouring fields can never
// interfere.
//
// The Engine also owns the global history register the folds compress, so
// the per-branch outgoing-bit reads are deduplicated per distinct length.
type Engine struct {
	ghr Global
	// recent is the recent-history window: the last RecentBits outcomes,
	// newest at bit 0. Direct registers are folded from it on read.
	recent uint64
	words  []uint64
	// plan is the flat per-branch update schedule, one entry per packed
	// word (plan[i] updates words[i]), grouped so words of the same
	// history length are adjacent and the outgoing-bit read is shared.
	plan []packedWord

	// locs is indexed by FoldID: where each register lives in words.
	locs []Loc

	// index dedupes registration by (length, width). It is construction
	// state: lookups happen only in Register, never per branch. Clone
	// copies it, so registering on a clone dedupes exactly as on the
	// parent and never touches the parent's layout.
	index map[engineKey]FoldID
}

type engineKey struct {
	length int
	width  int
}

// maxWrapsPerWord caps the distinct field widths per packed word. Words
// that would need a fifth width refuse the field (a new word opens), so
// Push's wrap loop is a short fixed-bound sweep over inline arrays with
// no slice loads. Widening was measured and lost: the 64-bit budget, not
// the width count, already binds packing, so extra slots only buy more
// always-executed wrap ops.
const maxWrapsPerWord = 4

// packedWord is one 64-bit lane of same-length folds.
type packedWord struct {
	origLen int32 // shared history length of every field in the word
	used    uint8 // bits consumed, including spare bits (construction)
	nwrap   uint8 // live entries in wrapMask/wrapWidth

	inject uint64 // 1<<shift per field: where the incoming bit lands
	outPts uint64 // 1<<(shift+outpoint) per field: where the outgoing bit hits
	keep   uint64 // union of field masks; clears spare bits after update

	// The MSB-wrap ops: t ^= (t & wrapMask[k]) >> wrapWidth[k].
	// Same-width fields share one entry (their masks union), so a word
	// mixing n distinct widths costs n wrap ops, not n-field ops.
	wrapMask  [maxWrapsPerWord]uint64
	wrapWidth [maxWrapsPerWord]uint8
}

// NewEngine returns an empty engine (all-zero history).
func NewEngine() *Engine {
	return &Engine{index: make(map[engineKey]FoldID)}
}

// Register adds (or finds) the folded register compressing the most
// recent length history bits to width bits and returns its id. Supported
// shapes are length in [0, MaxLength) and width in [1, 63]. Registers
// with identical (length, width) are shared. Registration is valid at any
// point: a register added after pushes starts at the fold of the current
// history, exactly as if it had been maintained from the start. A
// register of a length below RecentBits is direct and adds no packed
// word.
func (e *Engine) Register(length, width int) FoldID {
	if width <= 0 || width > 63 || length < 0 || length >= MaxLength {
		// Debug builds trap the bad shape; release builds degrade it to
		// the constant-zero fold (the empty window), like Global.Hash on
		// an invalid width.
		assert.Failf("history: invalid fold register (length %d, width %d)", length, width)
		length, width = 0, 1
	}
	key := engineKey{length, width}
	if id, ok := e.index[key]; ok {
		return id
	}
	id := FoldID(len(e.locs))
	mask := uint64(1)<<uint(width) - 1
	if length < RecentBits {
		// The window always holds the current history, so a direct
		// register needs no state and no seeding.
		e.locs = append(e.locs, Loc{Word: -1, Len: uint8(length), Width: uint8(width), Mask: mask})
		e.index[key] = id
		return id
	}
	wi := e.fit(length, uint8(width))
	w := &e.plan[wi]
	shift := w.used
	outpoint := length % width
	w.inject |= 1 << shift
	w.outPts |= 1 << (shift + uint8(outpoint))
	w.keep |= mask << shift
	w.addWrap(1<<(shift+uint8(width)), uint8(width))
	w.used += uint8(width) + 1 // +1 spare bit isolating the next field
	// A register added mid-stream starts at the reference fold of the
	// current history, exactly as if it had been updated from the start.
	e.words[wi] |= (e.ghr.Hash(length, width) & mask) << shift
	e.locs = append(e.locs, Loc{Word: int32(wi), Shift: shift, Mask: mask})
	e.index[key] = id
	return id
}

// fit returns the index of a word with room for a width-bit field plus
// its spare bit among the words of this history length — a word also
// needs a free wrap slot unless it already wraps this width — appending
// a fresh word when none fits. Words are append-only so existing Locs
// are never renumbered: a late word may land away from its length group
// and merely costs Push one extra outgoing-bit read.
func (e *Engine) fit(length int, width uint8) int {
	for i := range e.plan {
		w := &e.plan[i]
		if int(w.origLen) != length || int(w.used)+int(width)+1 > 64 {
			continue
		}
		if w.nwrap < maxWrapsPerWord || w.hasWidth(width) {
			return i
		}
	}
	e.plan = append(e.plan, packedWord{origLen: int32(length)})
	e.words = append(e.words, 0)
	return len(e.plan) - 1
}

func (w *packedWord) hasWidth(width uint8) bool {
	for k := uint8(0); k < w.nwrap; k++ {
		if w.wrapWidth[k] == width {
			return true
		}
	}
	return false
}

// addWrap records the MSB-wrap op for a new field, merging with an
// existing same-width wrap (their masks union).
func (w *packedWord) addWrap(hiMask uint64, width uint8) {
	for k := uint8(0); k < w.nwrap; k++ {
		if w.wrapWidth[k] == width {
			w.wrapMask[k] |= hiMask
			return
		}
	}
	w.wrapMask[w.nwrap] = hiMask
	w.wrapWidth[w.nwrap] = width
	w.nwrap++
}

// Push shifts one branch outcome into the global history and the recent
// window and advances every packed fold. This is the single per-branch
// history update of the whole composite: the owner (the outermost
// predictor) calls it exactly once per branch.
func (e *Engine) Push(taken bool) {
	// in is all ones for a taken branch, so in&inject selects the
	// incoming-bit positions without a multiply.
	in := uint64(0)
	if taken {
		in = ^uint64(0)
	}
	e.recent = e.recent<<1 | in&1
	e.ghr.Push(taken)
	// Loop state lives in locals: the re-slice proves words[wi] in range
	// (it panics if the one-word-per-plan-entry invariant ever breaks),
	// and the outgoing-bit read below is Global.Bit on hoisted head and
	// bits.
	plan := e.plan
	words := e.words[:len(plan)]
	bits := &e.ghr.bits
	head := e.ghr.head
	for wi := range plan {
		w := &plan[wi]
		pos := uint(head-int(w.origLen)) & (MaxLength - 1)
		out := -((bits[pos/64] >> (pos % 64)) & 1) // all ones when the bit is set
		// All fields advance together: shared shift-in of the new bit
		// and shared XOR of the outgoing bit; each field's overflow
		// lands in its spare bit, which the per-width wrap folds back
		// into the LSB before keep clears the spares. The wrap ops are
		// unrolled: unused slots have a zero mask and degenerate to
		// XOR-with-zero, so the sweep is branch-free.
		t := (words[wi] << 1) | (in & w.inject)
		t ^= out & w.outPts
		// The wraps are data-parallel: each reads only its fields' spare
		// slots of t and writes only their LSBs, positions no other wrap
		// touches, so all four fold from the same t. Every width is below
		// 64 (Register rejects wider folds), so masking the counts with 63
		// changes no value and lets the compiler drop its shift guards.
		t ^= ((t & w.wrapMask[0]) >> (w.wrapWidth[0] & 63)) |
			((t & w.wrapMask[1]) >> (w.wrapWidth[1] & 63)) |
			((t & w.wrapMask[2]) >> (w.wrapWidth[2] & 63)) |
			((t & w.wrapMask[3]) >> (w.wrapWidth[3] & 63))
		words[wi] = t & w.keep
	}
}

// Value returns the current fold of register id.
func (e *Engine) Value(id FoldID) uint64 { return e.Load(e.locs[id]) }

// Load returns the current value of the register at l: the reference
// read of both kinds of register, which the hot-path readers unroll.
func (e *Engine) Load(l Loc) uint64 {
	if l.Direct() {
		return FoldWindow(e.recent&(1<<(l.Len&63)-1), l.Len, l.Width) & l.Mask
	}
	return (e.words[l.Word] >> l.Shift) & l.Mask
}

// Loc returns the location of register id, for hot-path readers that
// cache it and read through Words or Recent directly. Locations are
// stable for the lifetime of the engine and all of its clones (words are
// append-only).
func (e *Engine) Loc(id FoldID) Loc { return e.locs[id] }

// Recent returns the recent-history window: the last RecentBits
// outcomes, newest at bit 0. Direct registers fold it (see Loc).
func (e *Engine) Recent() uint64 { return e.recent }

// Words returns the live packed-word storage for readers that batch many
// fold loads per branch: caching the slice in a local hoists the engine
// indirection out of the per-table loop. Read-only by contract. The
// header is invalidated by the next Register (appends may reallocate), so
// callers re-fetch it per batch rather than holding it across calls.
func (e *Engine) Words() []uint64 { return e.words }

// Hash recomputes a fold of the shared history from scratch (reference
// path, used by tests and late registration).
func (e *Engine) Hash(length, width int) uint64 { return e.ghr.Hash(length, width) }

// Clone returns an independent copy of the engine for predictor forking:
// pushes or registrations on either engine never affect the other, and a
// clone is byte-identical (reflect.DeepEqual) to an engine that was built
// and pushed the same way from scratch. Cached Locs remain valid for the
// clone — layouts are equal by construction.
func (e *Engine) Clone() *Engine {
	out := &Engine{
		ghr:    e.ghr,
		recent: e.recent,
		words:  append([]uint64(nil), e.words...),
		plan:   append([]packedWord(nil), e.plan...),
		locs:   append([]Loc(nil), e.locs...),
		index:  make(map[engineKey]FoldID, len(e.index)),
	}
	//llbplint:allow determinism -- map-to-map deep copy: the result is the same set of entries whatever order the range visits
	for k, v := range e.index {
		out.index[k] = v
	}
	return out
}
