package core

import (
	"testing"
	"testing/quick"

	"llbp/internal/trace"
)

func TestRCRPrefetchBecomesCurrent(t *testing.T) {
	// The core RCR invariant (§V-C): the prefetch CID computed now must
	// equal the CCID after exactly D more pushes.
	r := NewRCR(8, 4, 14, true)
	pcs := []uint64{}
	next := uint64(0x400000)
	for i := 0; i < 64; i++ {
		next += 0x40 + uint64(i)*4
		r.Push(next)
		pcs = append(pcs, next)
		if i < 16 {
			continue // let the window fill
		}
		pcid := r.PrefetchCID()
		// Push D more branches.
		for d := 0; d < 4; d++ {
			next += 0x10
			r.Push(next)
		}
		if got := r.CCID(); got != pcid {
			t.Fatalf("step %d: CCID after D pushes = %#x, want prefetch CID %#x", i, got, pcid)
		}
	}
}

func TestRCRPrefetchInvariantProperty(t *testing.T) {
	f := func(wSeed, dSeed uint8, stream []uint16) bool {
		w := int(wSeed%16) + 1
		d := int(dSeed % 8)
		if len(stream) < w+2*d+2 {
			return true // not enough data to test
		}
		r := NewRCR(w, d, 20, true)
		// Fill the window.
		for _, s := range stream[:w+d] {
			r.Push(uint64(s) << 2)
		}
		pcid := r.PrefetchCID()
		for _, s := range stream[w+d : w+2*d] {
			r.Push(uint64(s) << 2)
		}
		return r.CCID() == pcid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRCRZeroDistance(t *testing.T) {
	r := NewRCR(8, 0, 14, true)
	for i := 0; i < 20; i++ {
		r.Push(uint64(0x1000 + i*4))
	}
	if r.CCID() != r.PrefetchCID() {
		t.Error("with D=0 the CCID and prefetch CID must coincide")
	}
}

func TestRCRShiftedHashSeparatesRepeatedPCs(t *testing.T) {
	// §V-E3: with a plain XOR, an even number of identical PCs cancels;
	// shifting by position prevents that. Build two windows that differ
	// only in the order of the same multiset of PCs.
	mk := func(shifted bool, pcs []uint64) uint64 {
		r := NewRCR(4, 0, 31, shifted)
		for _, pc := range pcs {
			r.Push(pc)
		}
		return r.CCID()
	}
	a := []uint64{0x40, 0x80, 0x40, 0x80}
	b := []uint64{0x80, 0x40, 0x80, 0x40}
	if mk(false, a) != mk(false, b) {
		t.Error("plain XOR must be order-insensitive (sanity check)")
	}
	if mk(true, a) == mk(true, b) {
		t.Error("shifted hash must distinguish different orders of the same PCs")
	}
	// And a window of one repeated PC must not collapse to zero
	// contribution differences across widths.
	loopA := []uint64{0x40, 0x40, 0x40, 0x40}
	loopB := []uint64{0x40, 0x40, 0x80, 0x80}
	if mk(true, loopA) == mk(true, loopB) {
		t.Error("shifted hash failed to separate distinct loop windows")
	}
}

func TestRCRCIDWidth(t *testing.T) {
	r := NewRCR(8, 4, 14, true)
	for i := 0; i < 100; i++ {
		r.Push(uint64(0x400000 + i*0x88))
		if cid := r.CCID(); cid >= 1<<14 {
			t.Fatalf("CCID %#x exceeds 14 bits", cid)
		}
		if cid := r.PrefetchCID(); cid >= 1<<14 {
			t.Fatalf("prefetch CID %#x exceeds 14 bits", cid)
		}
	}
}

func TestRCRWindowAccessor(t *testing.T) {
	r := NewRCR(8, 4, 14, true)
	if w, d := r.Window(); w != 8 || d != 4 {
		t.Errorf("Window() = %d,%d", w, d)
	}
}

func TestRCRPanicsOnBadArgs(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRCR(0, 4, 14, true) },
		func() { NewRCR(65, 4, 14, true) },
		func() { NewRCR(8, -1, 14, true) },
		func() { NewRCR(8, 4, 3, true) },
		func() { NewRCR(8, 4, 64, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestContextTypeFeeds(t *testing.T) {
	cases := []struct {
		ct    ContextType
		bt    trace.BranchType
		taken bool
		want  bool
	}{
		{CtxUncond, trace.Call, true, true},
		{CtxUncond, trace.Jump, true, true},
		{CtxUncond, trace.Return, true, true},
		{CtxUncond, trace.CondDirect, true, false},
		{CtxCallRet, trace.Call, true, true},
		{CtxCallRet, trace.IndirectCall, true, true},
		{CtxCallRet, trace.Return, true, true},
		{CtxCallRet, trace.Jump, true, false},
		{CtxCallRet, trace.CondDirect, true, false},
		{CtxAll, trace.Jump, true, true},
		{CtxAll, trace.CondDirect, true, true},
		{CtxAll, trace.CondDirect, false, false},
	}
	for _, c := range cases {
		if got := c.ct.Feeds(c.bt, c.taken); got != c.want {
			t.Errorf("%v.Feeds(%v, %v) = %v, want %v", c.ct, c.bt, c.taken, got, c.want)
		}
	}
}

func TestContextTypeString(t *testing.T) {
	if CtxUncond.String() != "Uncond" || CtxCallRet.String() != "Call/Ret" || CtxAll.String() != "All" {
		t.Error("context type names changed — Figure 13 labels depend on them")
	}
}
