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
// bits reads the wrong field. The boundary configuration's lengths
// straddle the direct/packed boundary, so both fill loops have their
// first and last table checked, and its 4-bit tags at length 63 need five
// log steps (3-bit folds), more than the unrolled three.
func TestFillMatchesReference(t *testing.T) {
	boundary := DefaultConfig()
	boundary.HistLengths = []int{5, 17, 63, 64, 130, 700}
	boundary.TagBits = []int{9, 4, 4, 12, 13, 16}
	boundary.LogEntries = []int{10, 9, 10, 11, 10, 12}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"infinite", DefaultConfig().InfiniteConfig()},
		{"scaled", DefaultConfig().Scaled(7)},
		{"boundary", boundary},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := mustNew(t, tc.cfg)
			if tc.name == "boundary" && p.nDirect != 3 {
				t.Fatalf("%d direct tables, want 3 (lengths 5, 17 and 63)", p.nDirect)
			}
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
