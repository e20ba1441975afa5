package history

import "llbp/internal/assert"

// FoldID names one folded-history register inside an Engine.
type FoldID int32

// Loc is the packed location of one folded register: its value is
// (words[Word] >> Shift) & Mask. Readers on the per-branch hot path cache
// the Loc once and load the word directly through Engine.Word, which
// inlines to an indexed load. A zero-length register occupies no word:
// its Word is negative and its value is constant zero.
type Loc struct {
	Word  int32
	Shift uint8
	Mask  uint64
}

// Engine maintains every folded-history register of a predictor composite
// in one place — TAGE's index and tag folds, the statistical corrector's
// component folds and LLBP's pattern-tag folds — so each distinct
// (length, width) fold is updated exactly once per branch no matter how
// many components read it (§V-B: LLBP's fold mirrors are by construction
// identical in content to the baseline's).
//
// Registers are bit-packed: all folds of one history length share packed
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
	ghr   Global
	words []uint64
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
// history, exactly as if it had been maintained from the start.
func (e *Engine) Register(length, width int) FoldID {
	if width <= 0 || width > 63 || length < 0 || length >= MaxLength {
		// Debug builds trap the bad shape; release builds degrade it to
		// the constant-zero fold, like Global.Hash on an invalid width.
		assert.Failf("history: invalid fold register (length %d, width %d)", length, width)
		length = 0
	}
	key := engineKey{length, width}
	if id, ok := e.index[key]; ok {
		return id
	}
	id := FoldID(len(e.locs))
	if length == 0 {
		// Zero-length folds are constant zero and occupy no word.
		e.locs = append(e.locs, Loc{Word: -1})
		e.index[key] = id
		return id
	}
	wi := e.fit(length, uint8(width))
	w := &e.plan[wi]
	shift := w.used
	mask := uint64(1)<<uint(width) - 1
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

// Push shifts one branch outcome into the global history and advances
// every registered fold. This is the single per-branch history update of
// the whole composite: the owner (the outermost predictor) calls it
// exactly once per branch.
func (e *Engine) Push(taken bool) {
	// in is all ones for a taken branch, so in&inject selects the
	// incoming-bit positions without a multiply.
	in := uint64(0)
	if taken {
		in = ^uint64(0)
	}
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
func (e *Engine) Value(id FoldID) uint64 {
	l := e.locs[id]
	if l.Word < 0 {
		return 0
	}
	return (e.words[l.Word] >> l.Shift) & l.Mask
}

// Loc returns the packed location of register id, for hot-path readers
// that cache it and load through Word directly. Locations are stable for
// the lifetime of the engine and all of its clones (words are
// append-only).
func (e *Engine) Loc(id FoldID) Loc { return e.locs[id] }

// Word returns packed word i. Combined with a cached Loc this is the
// zero-overhead read path: (e.Word(l.Word) >> l.Shift) & l.Mask.
func (e *Engine) Word(i int32) uint64 { return e.words[i] }

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
		ghr:   e.ghr,
		words: append([]uint64(nil), e.words...),
		plan:  append([]packedWord(nil), e.plan...),
		locs:  append([]Loc(nil), e.locs...),
		index: make(map[engineKey]FoldID, len(e.index)),
	}
	//llbplint:allow determinism -- map-to-map deep copy: the result is the same set of entries whatever order the range visits
	for k, v := range e.index {
		out.index[k] = v
	}
	return out
}
