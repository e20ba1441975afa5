package sc

import (
	"testing"

	"llbp/internal/history"
	"llbp/internal/trace"
	"llbp/internal/workload"
)

// TestIndexFillMatchesReference pins Correct's index loop to its reference
// form: after every Correct, each component's index equals the index
// hashed from its fold's value as the engine reports it,
// eng.Value(eng.Register(h, LogEntries)); Register returns the fold New
// registered. The stream is the first 50k branches of a catalog workload,
// pushed the way the corrector's owner pushes. Components of lengths 63
// and 64 put the last direct and the first packed component side by side.
// In the padded engine a 40-bit fold of each component length is
// registered first, so the packed components' fields sit at bit 41 of
// their words, where a shift count masked to fewer than six bits reads
// the wrong field. With 4-bit tables the longer direct folds need four
// log steps, more than the unrolled three.
func TestIndexFillMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		pad        bool
		logEntries int
	}{{false, 10}, {true, 10}, {false, 4}} {
		pad := tc.pad
		cfg := DefaultConfig()
		cfg.HistLengths = append(cfg.HistLengths, 63, 64)
		cfg.LogEntries = tc.logEntries
		eng := history.NewEngine()
		if pad {
			for _, h := range cfg.HistLengths {
				eng.Register(h, 40)
			}
		}
		c, err := New(cfg, eng)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]history.FoldID, len(cfg.HistLengths))
		for i, h := range cfg.HistLengths {
			ids[i] = eng.Register(h, cfg.LogEntries)
		}
		src, err := workload.ByName("Tomcat")
		if err != nil {
			t.Fatal(err)
		}
		r := src.Open()
		var b trace.Branch
		checked := 0
		for n := 0; n < 50000; n++ {
			if err := r.Read(&b); err != nil {
				t.Fatal(err)
			}
			if !b.Type.IsConditional() {
				eng.Push(true)
				continue
			}
			c.Correct(eng, b.PC, false, false)
			for i, id := range ids {
				v := eng.Value(id)
				want := uint32((b.PC>>2)^(b.PC>>7)^v^uint64(i)*0x9e37) & c.mask()
				if c.lastIdx[i] != want {
					t.Fatalf("padded=%v logEntries=%d branch %d (pc %#x): component %d index %#x, reference %#x",
						pad, tc.logEntries, n, b.PC, i, c.lastIdx[i], want)
				}
			}
			checked++
			c.UpdateWithTarget(b.PC, b.Target, b.Taken)
			eng.Push(b.Taken)
		}
		if checked == 0 {
			t.Fatal("the prefix held no conditional branch")
		}
	}
}
