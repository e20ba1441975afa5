package history

import (
	"llbp/internal/assert"
	"testing"
)

func TestGlobalPushAndBit(t *testing.T) {
	g := NewGlobal()
	// Push T, F, T, T: Bit(0)=1 (last), Bit(1)=1, Bit(2)=0, Bit(3)=1.
	for _, taken := range []bool{true, false, true, true} {
		g.Push(taken)
	}
	want := []uint64{1, 1, 0, 1}
	for i, w := range want {
		if got := g.Bit(i); got != w {
			t.Errorf("Bit(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestGlobalWrapAround(t *testing.T) {
	g := NewGlobal()
	// Fill beyond capacity; the most recent MaxLength bits must survive.
	for i := 0; i < MaxLength+100; i++ {
		g.Push(i%3 == 0)
	}
	for i := 0; i < 64; i++ {
		idx := MaxLength + 100 - 1 - i // global index of Bit(i)
		want := uint64(0)
		if idx%3 == 0 {
			want = 1
		}
		if got := g.Bit(i); got != want {
			t.Fatalf("Bit(%d) = %d, want %d after wrap", i, got, want)
		}
	}
}

func TestGlobalHashPanicsOnBadWidth(t *testing.T) {
	g := NewGlobal()
	if assert.Enabled {
		mustPanic(t, func() { g.Hash(10, 0) })
		mustPanic(t, func() { g.Hash(10, 64) })
		return
	}
	// Release builds: invalid widths are assertion no-ops returning 0.
	if got := g.Hash(10, 0); got != 0 {
		t.Errorf("Hash(10, 0) = %d, want 0", got)
	}
	if got := g.Hash(10, 64); got != 0 {
		t.Errorf("Hash(10, 64) = %d, want 0", got)
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	fn()
}

func BenchmarkGlobalHashReference(b *testing.B) {
	g := NewGlobal()
	for i := 0; i < 4000; i++ {
		g.Push(i%3 == 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Hash(3000, 13)
	}
}
