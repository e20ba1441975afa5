package history

import (
	"testing"
	"testing/quick"

	"llbp/internal/assert"
)

// engineRNG is a tiny deterministic xorshift for test streams.
type engineRNG uint64

func (r *engineRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = engineRNG(x)
	return x
}

// shape is one (length, width) fold registration.
type shape struct{ length, width int }

// compositeShapes is the register population of the real composites:
// TAGE's (len, idx/tag1/tag2) triples, the statistical corrector's
// component folds at both its 64K (10-bit) and Inf TSL (18-bit) widths,
// and LLBP's (len, 13/12) pairs, including full duplicates.
func compositeShapes() []shape {
	var regs []shape
	tageLens := []int{4, 6, 8, 10, 12, 17, 21, 26, 38, 54, 78, 112, 161, 232, 336, 482, 695, 1002, 1444, 2081, 3000}
	for i, l := range tageLens {
		tag := 9
		if i >= 7 {
			tag = 11
		}
		if i >= 14 {
			tag = 13
		}
		regs = append(regs, shape{l, 10}, shape{l, tag}, shape{l, tag - 1})
	}
	for _, l := range []int{3, 8, 16, 27, 44} {
		regs = append(regs, shape{l, 10}, shape{l, 18})
	}
	for _, l := range []int{12, 26, 54, 78, 112, 161, 232, 336, 482, 695, 1444, 3000} {
		regs = append(regs, shape{l, 13}, shape{l, 12})
	}
	return regs
}

// TestEngineMatchesReference drives an engine and a separate Global
// register with the same outcome stream and demands that every fold
// equals the from-scratch Global.Hash after every push — the
// bit-exactness contract behind the shared history engine. The stream
// outlasts the longest history, so every fold also retires bits.
func TestEngineMatchesReference(t *testing.T) {
	// Plus awkward shapes: width > length, width 1, max width, length
	// divisible by width (outpoint 0).
	regs := append(compositeShapes(), shape{4, 10}, shape{7, 1}, shape{3000, 63}, shape{60, 12}, shape{64, 8})

	eng := NewEngine()
	ids := make([]FoldID, len(regs))
	for i, r := range regs {
		ids[i] = eng.Register(r.length, r.width)
	}
	ghr := NewGlobal()
	rng := engineRNG(0x1234_5678_9abc_def1)
	for step := 0; step < 3600; step++ {
		taken := rng.next()&1 == 1
		eng.Push(taken)
		ghr.Push(taken)
		for i, r := range regs {
			if got, want := eng.Value(ids[i]), ghr.Hash(r.length, r.width); got != want {
				t.Fatalf("step %d: reg %d (len %d width %d): engine %#x != reference %#x",
					step, i, r.length, r.width, got, want)
			}
		}
	}
}

// TestFoldedMatchesReference: each folded register, alone in its own
// engine (no packed neighbours), equals the XOR-fold recomputed from
// scratch over the global history after every push. The table covers
// width > length, width == length and the longest history; the stream
// outlasts it, so every fold also retires bits.
func TestFoldedMatchesReference(t *testing.T) {
	cfgs := []shape{
		{4, 10}, {12, 13}, {54, 12}, {112, 11}, {161, 13},
		{482, 9}, {1444, 13}, {3000, 13}, {10, 10}, {13, 13},
	}
	engs := make([]*Engine, len(cfgs))
	ids := make([]FoldID, len(cfgs))
	for i, c := range cfgs {
		engs[i] = NewEngine()
		ids[i] = engs[i].Register(c.length, c.width)
	}
	ghr := NewGlobal()
	rng := engineRNG(42)
	for step := 0; step < 8000; step++ {
		taken := rng.next()&1 == 1
		ghr.Push(taken)
		for i, c := range cfgs {
			engs[i].Push(taken)
			if got, want := engs[i].Value(ids[i]), ghr.Hash(c.length, c.width); got != want {
				t.Fatalf("step %d: fold(%d->%d) = %#x, want %#x", step, c.length, c.width, got, want)
			}
		}
	}
}

// TestEngineDedupe: identical (length, width) pairs share one register.
func TestEngineDedupe(t *testing.T) {
	e := NewEngine()
	a := e.Register(336, 13)
	b := e.Register(336, 12)
	if c := e.Register(336, 13); c != a {
		t.Errorf("duplicate registration returned new id %d != %d", c, a)
	}
	if b == a {
		t.Error("distinct widths must not share an id")
	}
	la, lb := e.Loc(a), e.Loc(b)
	if la == lb {
		t.Error("distinct registers share a location")
	}
	if (e.Word(la.Word)>>la.Shift)&la.Mask != e.Value(a) {
		t.Error("Loc/Word read disagrees with Value")
	}
}

// TestEngineLateRegistration: a register added after pushes must equal the
// reference fold of the current history and keep tracking it after.
func TestEngineLateRegistration(t *testing.T) {
	e := NewEngine()
	e.Register(54, 11) // pre-existing occupant of the length-54 group
	rng := engineRNG(42)
	ghr := NewGlobal()
	for i := 0; i < 500; i++ {
		taken := rng.next()&1 == 1
		e.Push(taken)
		ghr.Push(taken)
	}
	id := e.Register(54, 13)
	if got, want := e.Value(id), ghr.Hash(54, 13); got != want {
		t.Fatalf("late register starts at %#x, want reference fold %#x", got, want)
	}
	for i := 0; i < 500; i++ {
		taken := rng.next()&1 == 1
		e.Push(taken)
		ghr.Push(taken)
		if got, want := e.Value(id), ghr.Hash(54, 13); got != want {
			t.Fatalf("push %d after late registration: engine %#x != reference %#x", i, got, want)
		}
	}
}

// TestEnginePropertyRandomConfigs fuzzes engine populations against the
// reference with testing/quick: twelve folds over two random history
// lengths, so fields of mixed widths share packed words and spill into
// fresh ones when a word runs out of bits or of wrap slots.
func TestEnginePropertyRandomConfigs(t *testing.T) {
	f := func(lenSeeds [2]uint16, widthSeeds [12]uint8, streamSeed uint64) bool {
		e := NewEngine()
		ghr := NewGlobal()
		regs := make([]shape, len(widthSeeds))
		ids := make([]FoldID, len(widthSeeds))
		for i, w := range widthSeeds {
			regs[i] = shape{int(lenSeeds[i%2]%600) + 1, int(w%24) + 1}
			ids[i] = e.Register(regs[i].length, regs[i].width)
		}
		rng := engineRNG(streamSeed | 1)
		for step := 0; step < 800; step++ {
			taken := rng.next()&1 == 1
			e.Push(taken)
			ghr.Push(taken)
			for i, r := range regs {
				if e.Value(ids[i]) != ghr.Hash(r.length, r.width) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEngineRegisterBadShape: an out-of-range (length, width) traps in
// debug builds and degrades to the constant-zero fold in release builds.
// Length MaxLength is out of range: its outgoing bit would alias the
// newest slot of the history ring.
func TestEngineRegisterBadShape(t *testing.T) {
	for _, r := range []shape{{10, 0}, {10, 64}, {-1, 10}, {MaxLength, 10}, {MaxLength + 1, 10}} {
		e := NewEngine()
		if assert.Enabled {
			mustPanic(t, func() { e.Register(r.length, r.width) })
			continue
		}
		id := e.Register(r.length, r.width)
		e.Push(true)
		if v := e.Value(id); v != 0 {
			t.Errorf("Register(%d, %d) fold = %#x, want constant 0", r.length, r.width, v)
		}
	}
}

// TestEngineClone: clones diverge independently; the parent is unaffected.
func TestEngineClone(t *testing.T) {
	e := NewEngine()
	id := e.Register(26, 13)
	rng := engineRNG(99)
	for i := 0; i < 200; i++ {
		e.Push(rng.next()&1 == 1)
	}
	c := e.Clone()
	if c.Value(id) != e.Value(id) {
		t.Fatal("clone must start equal")
	}
	before := e.Value(id)
	c.Push(true)
	c.Push(true)
	if e.Value(id) != before {
		t.Error("pushing the clone mutated the parent")
	}
	e.Push(false)
	two := e.Clone()
	e.Push(true)
	if two.Value(id) == e.Value(id) {
		t.Error("parent push leaked into clone")
	}
	// Registration on a clone must not disturb the parent's layout.
	nid := c.Register(38, 9)
	if got, want := c.Value(nid), c.Hash(38, 9); got != want {
		t.Errorf("clone registration: %#x, want %#x", got, want)
	}
	if len(e.Clone().locs) != len(e.locs) {
		t.Error("clone registration grew the parent")
	}
}

// TestEngineZeroLength: zero-length folds are constant zero.
func TestEngineZeroLength(t *testing.T) {
	e := NewEngine()
	id := e.Register(0, 10)
	e.Push(true)
	e.Push(true)
	if e.Value(id) != 0 {
		t.Errorf("zero-length fold = %#x, want 0", e.Value(id))
	}
}

// TestFoldedZeroLength: a zero-length fold occupies no packed word (its
// Loc has a negative Word, which hot-path readers test) and stays zero on
// every push while a live fold in the same engine changes.
func TestFoldedZeroLength(t *testing.T) {
	e := NewEngine()
	live := e.Register(10, 10)
	zero := e.Register(0, 10)
	if w := e.Loc(zero).Word; w >= 0 {
		t.Fatalf("zero-length fold placed in word %d, want none", w)
	}
	changed := false
	for i := 0; i < 100; i++ {
		before := e.Value(live)
		e.Push(i%2 == 0)
		changed = changed || e.Value(live) != before
		if v := e.Value(zero); v != 0 {
			t.Fatalf("push %d: zero-length fold = %#x, want 0", i, v)
		}
	}
	if !changed {
		t.Error("the live fold never changed, so the stream exercised nothing")
	}
}

func BenchmarkEnginePush(b *testing.B) {
	e := NewEngine()
	for _, r := range compositeShapes() {
		e.Register(r.length, r.width)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Push(i&3 != 0)
	}
}
