package tage

import (
	"testing"

	"llbp/internal/trace"
	"llbp/internal/workload"
)

// TestFillMatchesReference pins Predict's flattened hash fill to its
// reference form: after every prediction over the first 50k branches of a
// catalog workload, the index and tag scratch of every table equal
// index() and tagHash(). The scaled configuration widens the index folds
// to 17 bits, which puts the 12-bit tag folds of the 13-bit-tag tables at
// bit 32 of their packed words, so a shift count masked to fewer than six
// bits reads the wrong field.
func TestFillMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"infinite", DefaultConfig().InfiniteConfig()},
		{"scaled", DefaultConfig().Scaled(7)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustNew(t, tc.cfg)
			src, err := workload.ByName("Tomcat")
			if err != nil {
				t.Fatal(err)
			}
			r := src.Open()
			var b trace.Branch
			predictions := 0
			for n := 0; n < 50000; n++ {
				if err := r.Read(&b); err != nil {
					t.Fatal(err)
				}
				if !b.Type.IsConditional() {
					p.TrackOther(b.PC, b.Target, b.Type)
					continue
				}
				p.Predict(b.PC)
				predictions++
				for i := range p.cfg.HistLengths {
					if got, want := p.scratch.idx[i], p.index(b.PC, i); got != want {
						t.Fatalf("prediction %d (pc %#x): table %d index %#x, reference %#x", predictions, b.PC, i, got, want)
					}
					if got, want := p.scratch.tag[i], p.tagHash(b.PC, i); got != want {
						t.Fatalf("prediction %d (pc %#x): table %d tag %#x, reference %#x", predictions, b.PC, i, got, want)
					}
				}
				p.Update(b.PC, b.Taken)
			}
			if predictions == 0 {
				t.Fatal("the prefix held no conditional branch")
			}
		})
	}
}
