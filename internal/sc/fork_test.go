package sc

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"llbp/internal/history"
)

// driveSC runs n random branches through c, pushing eng once per branch
// after Update as the corrector's owner does.
func driveSC(c *Corrector, eng *history.Engine, seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, n)
	for i := 0; i < n; i++ {
		pc := uint64(0x4000 + rng.Intn(64)*4)
		taken := rng.Intn(3) != 0
		tageTaken := rng.Intn(2) == 0
		target := pc + 4
		if rng.Intn(4) == 0 {
			target = pc - 32
		}
		got := c.Correct(eng, pc, tageTaken, rng.Intn(5) == 0)
		c.UpdateWithTarget(pc, target, taken)
		eng.Push(taken)
		if got == taken {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
	}
	return out
}

// TestForkEquivalence: fork-then-diverge must match two independently
// warmed twins byte for byte across the GEHL banks, the bias table, the
// adaptive threshold, and the local/IMLI components. The child reads a
// clone of the parent's engine, as a forked owner passes it.
func TestForkEquivalence(t *testing.T) {
	const warm, diverge = 6000, 4000
	mk := func() (*Corrector, *history.Engine) {
		eng := history.NewEngine()
		c, err := New(DefaultConfig(), eng)
		if err != nil {
			t.Fatal(err)
		}
		return c, eng
	}
	parent, parentEng := mk()
	twinP, twinPEng := mk()
	twinC, twinCEng := mk()
	driveSC(parent, parentEng, 11, warm)
	driveSC(twinP, twinPEng, 11, warm)
	driveSC(twinC, twinCEng, 11, warm)

	child, childEng := parent.Fork(), parentEng.Clone()

	gotP := driveSC(parent, parentEng, 22, diverge)
	wantP := driveSC(twinP, twinPEng, 22, diverge)
	gotC := driveSC(child, childEng, 33, diverge)
	wantC := driveSC(twinC, twinCEng, 33, diverge)

	if !bytes.Equal(gotP, wantP) {
		t.Error("parent outcome stream diverged from unforked twin")
	}
	if !bytes.Equal(gotC, wantC) {
		t.Error("child outcome stream diverged from independently warmed twin")
	}
	if !reflect.DeepEqual(parent, twinP) {
		t.Error("parent state not byte-identical to unforked twin")
	}
	if !reflect.DeepEqual(child, twinC) {
		t.Error("child state not byte-identical to independently warmed twin")
	}
}
