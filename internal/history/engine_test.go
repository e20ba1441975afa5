package history

import (
	"fmt"
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
	if (e.Words()[la.Word]>>la.Shift)&la.Mask != e.Value(a) {
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

// TestFoldedZeroLength: a zero-length fold is direct with an empty window,
// so it occupies no packed word (its Loc has a negative Word) and stays
// zero on every push while a live fold in the same engine changes.
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

// directShapes returns every direct shape — each length in
// [0, RecentBits) at each width in [1, 63] — and the packed shapes of
// lengths RecentBits and RecentBits+1 at each width, so both sides of the
// boundary are covered.
func directShapes() []shape {
	var regs []shape
	for l := 0; l <= RecentBits+1; l++ {
		for w := 1; w <= 63; w++ {
			regs = append(regs, shape{l, w})
		}
	}
	return regs
}

// checkEngine fails unless every register of e equals the reference fold
// of ghr and, for a direct register, the hot-path read through its
// Schedule — at every step count from FoldSteps up, since a step a fold
// does not need is a no-op.
func checkEngine(t *testing.T, e *Engine, ghr *Global, regs []shape, ids []FoldID, what string) {
	t.Helper()
	for i, r := range regs {
		want := ghr.Hash(r.length, r.width)
		if got := e.Value(ids[i]); got != want {
			t.Fatalf("%s: fold(%d->%d) = %#x, reference %#x", what, r.length, r.width, got, want)
		}
		l := e.Loc(ids[i])
		if l.Direct() != (r.length < RecentBits) {
			t.Fatalf("%s: fold(%d->%d) direct = %v", what, r.length, r.width, l.Direct())
		}
		if !l.Direct() {
			continue
		}
		x := e.Recent() & (1<<uint(r.length) - 1)
		sched := NewSchedule(r.width)
		for n := FoldSteps(r.length, r.width); n <= MaxFoldSteps; n++ {
			if got := sched.Fold(x, n) & l.Mask; got != want {
				t.Fatalf("%s: fold(%d->%d) over %d schedule steps = %#x, reference %#x", what, r.length, r.width, n, got, want)
			}
		}
	}
}

// TestEngineDirectExact: every direct shape, and the packed shapes just
// past the boundary, equal Global.Hash after every push of a random
// stream, read through Value and through the hot path's Schedule. A clone
// taken mid-stream carries the recent window and keeps tracking, and
// registers added late — the length-37 shapes and a packed one on the
// clone, another packed one on the parent — start at the reference fold.
func TestEngineDirectExact(t *testing.T) {
	var regs, late []shape
	for _, r := range directShapes() {
		if r.length == 37 {
			late = append(late, r)
		} else {
			regs = append(regs, r)
		}
	}
	late = append(late, shape{RecentBits + 7, 5})
	e := NewEngine()
	ids := make([]FoldID, len(regs))
	for i, r := range regs {
		ids[i] = e.Register(r.length, r.width)
	}
	ghr := NewGlobal()
	rng := engineRNG(0x5eed_0064)
	var c *Engine
	var cGHR Global
	var cRegs []shape
	var cIDs []FoldID
	for step := 0; step < 300; step++ {
		taken := rng.next()&1 == 1
		e.Push(taken)
		ghr.Push(taken)
		checkEngine(t, e, ghr, regs, ids, fmt.Sprintf("step %d", step))
		if c != nil {
			// The clone sees the opposite outcome, so a clone that shared
			// the parent's window would fail here.
			c.Push(!taken)
			cGHR.Push(!taken)
			checkEngine(t, c, &cGHR, cRegs, cIDs, fmt.Sprintf("clone step %d", step))
		}
		if step == 150 {
			c, cGHR = e.Clone(), *ghr
			cRegs = append(append([]shape(nil), regs...), late...)
			cIDs = append([]FoldID(nil), ids...)
			for _, r := range late {
				cIDs = append(cIDs, c.Register(r.length, r.width))
			}
			checkEngine(t, c, &cGHR, cRegs, cIDs, "clone with late registrations")
			regs = append(regs, shape{RecentBits + 7, 9})
			ids = append(ids, e.Register(RecentBits+7, 9))
			checkEngine(t, e, ghr, regs, ids, "late packed registration")
		}
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

// fuzzShape decodes one (length, width) shape from three fuzz bytes: a
// little-endian length and a width byte, width 1 + b%63. With the
// length's top bit set the length is taken mod MaxLength; clear, mod
// 2*RecentBits+32, so that shapes at the direct/packed boundary, and
// packed folds short enough for the stream to retire their bits, are the
// common case.
func fuzzShape(b []byte) shape {
	v := int(b[0]) | int(b[1])<<8
	length := v % (2*RecentBits + 32)
	if v&0x8000 != 0 {
		length = v % MaxLength
	}
	return shape{length, 1 + int(b[2])%63}
}

// FuzzEngine registers fuzz-chosen shapes, pushes a fuzz-chosen outcome
// stream, clones the engine at a fuzz-chosen step and registers one more
// shape on the clone, which from then on sees the opposite outcomes.
// Every fold of both engines must equal Global.Hash after every push.
// Input: a shape count (1 + byte%8), that many three-byte shapes (see
// fuzzShape), the clone step, the late shape, then the stream, one
// outcome per bit, at most 512 pushes.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{
		2, 63, 0, 12, 64, 0, 12, 0, 0, 9, // (63, 13) (64, 13) (0, 10)
		20, 40, 0, 7, // clone before push 20; late (40, 8)
		0xa5, 0x3c, 0xff, 0x00, 0x81, 0x7e, 0x55, 0xaa, 0x0f, 0xf0, 0x99, 0x66,
	})
	f.Add([]byte{
		// LLBP's and TAGE's folds of lengths 12 to 78, and (3000, 13).
		6, 12, 0, 12, 26, 0, 12, 54, 0, 12, 78, 0, 12, 78, 0, 11, 0xb8, 0x8b, 12, 3, 0, 9,
		5, 100, 0, 0, // clone before push 5; late (100, 1)
		0xde, 0xad, 0xbe, 0xef, 0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef, 0xfe, 0xdc,
	})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0xff}) // (0, 1); clone at once; late (1, 1)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 1 + int(data[0])%8
		data = data[1:]
		if len(data) < 3*n+4 {
			return
		}
		regs := make([]shape, n)
		ids := make([]FoldID, n)
		e := NewEngine()
		for i := range regs {
			regs[i] = fuzzShape(data[3*i:])
			ids[i] = e.Register(regs[i].length, regs[i].width)
		}
		data = data[3*n:]
		cloneAt := int(data[0])
		late := fuzzShape(data[1:])
		stream := data[4:]
		pushes := min(8*len(stream), 512)
		ghr := NewGlobal()
		var c *Engine
		var cGHR Global
		var cRegs []shape
		var cIDs []FoldID
		check := func(e *Engine, g *Global, regs []shape, ids []FoldID, what string, step int) {
			for i, r := range regs {
				if got, want := e.Value(ids[i]), g.Hash(r.length, r.width); got != want {
					t.Fatalf("%s push %d: fold(%d->%d) = %#x, reference %#x", what, step, r.length, r.width, got, want)
				}
			}
		}
		for step := 0; step < pushes; step++ {
			if step == cloneAt {
				c, cGHR = e.Clone(), *ghr
				cRegs = append(append([]shape(nil), regs...), late)
				cIDs = append(append([]FoldID(nil), ids...), c.Register(late.length, late.width))
				check(c, &cGHR, cRegs, cIDs, "clone", step)
			}
			taken := stream[step/8]>>(step%8)&1 == 1
			e.Push(taken)
			ghr.Push(taken)
			check(e, ghr, regs, ids, "engine", step)
			if c != nil {
				c.Push(!taken)
				cGHR.Push(!taken)
				check(c, &cGHR, cRegs, cIDs, "clone", step)
			}
		}
	})
}
