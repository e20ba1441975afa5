package core

import (
	"testing"

	"llbp/internal/history"
	"llbp/internal/predictor"
	"llbp/internal/sim"
	"llbp/internal/trace"
	"llbp/internal/tsl"
	"llbp/internal/workload"
)

// fillChecked wraps the composite so that every Predict that hit the PB
// (and so filled wantKeys) is checked against tagFor. The embedded
// predictor supplies the rest of the replay step's interfaces.
type fillChecked struct {
	*Predictor
	t    *testing.T
	hits int
}

// The replay step resolves these on the wrapper; they must stay the
// composite's, as in a plain replay.
var (
	_ predictor.TargetUpdater = (*fillChecked)(nil)
	_ predictor.Resettable    = (*fillChecked)(nil)
)

func (c *fillChecked) Predict(pc uint64) bool {
	before := c.stats.PBHits
	taken := c.Predictor.Predict(pc)
	if c.stats.PBHits == before {
		return taken
	}
	c.hits++
	for li := range c.cfg.HistLengths {
		if got, want := uint32(c.wantKeys[li]&laneTagMask), c.tagFor(pc, li); got != want {
			c.t.Fatalf("PB hit %d (pc %#x): length %d key tag %#x, tagFor %#x", c.hits, pc, li, got, want)
		}
	}
	return taken
}

// TestKeyFillMatchesTagFor pins matchPatterns' flattened key fill to its
// reference form, tagFor, on every PB hit of the first 50k branches of a
// catalog workload. The default configuration has AltHash lengths; the
// small-directory one fills its CD and so also hits freshly fetched sets.
// A shift count masked to fewer than six bits reads the wrong field of a
// fold above bit 31: by default LLBP's 12-bit folds of the 9- and
// 11-bit-tag TAGE lengths sit there, and with 14-bit tags so do its
// 14-bit folds of the 13-bit-tag lengths. The zero-length configuration
// adds a length-0 pattern (an empty window, whose key is the PC alone).
// The boundary one straddles the direct/packed boundary, so both key-fill
// loops have their first and last length checked, and with 4-bit tags its
// length-63 folds need five log steps, more than the unrolled three.
func TestKeyFillMatchesTagFor(t *testing.T) {
	smallCD := DefaultConfig()
	smallCD.NumContexts = 1024
	smallCD.CDSets = 256
	smallCD.CIDBits = 11
	tag14 := DefaultConfig()
	tag14.TagBits = 14
	zeroLen := DefaultConfig()
	zeroLen.HistLengths = append([]HistLen{{0, false}}, DefaultHistLengths[:15]...)
	boundary := DefaultConfig()
	boundary.HistLengths = []HistLen{
		{0, false}, {12, false}, {63, false}, {63, true},
		{64, false}, {78, false}, {78, true}, {112, false},
		{161, false}, {232, false}, {336, false}, {482, false},
		{695, false}, {1444, false}, {3000, false}, {3000, true},
	}
	tag4 := boundary
	tag4.TagBits = 4
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"smallcd", smallCD},
		{"tag14", tag14},
		{"zerolen", zeroLen},
		{"boundary", boundary},
		{"tag4", tag4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, clock := newTestLLBP(t, tc.cfg)
			c := &fillChecked{Predictor: p, t: t}
			step := sim.NewStepper(c, clock)
			src, err := workload.ByName("Tomcat")
			if err != nil {
				t.Fatal(err)
			}
			r := src.Open()
			var b trace.Branch
			for n := 0; n < 50000; n++ {
				if err := r.Read(&b); err != nil {
					t.Fatal(err)
				}
				step.Step(&b)
			}
			if c.hits < 1000 {
				t.Fatalf("only %d PB hits in the prefix; the check needs a warm PB", c.hits)
			}
		})
	}
}

// TestCompositePackedWords: the default composites push only their folds
// of RecentBits or more history bits. The 64K TSL's engine and the LLBP
// composite's each hold 11 packed words, one per TAGE length from 78 up
// (LLBP's folds of those lengths share TAGE's words), and registering a
// direct fold adds none.
func TestCompositePackedWords(t *testing.T) {
	base := tsl.MustNew(tsl.Config64K())
	if n := len(base.TAGE().HistoryEngine().Words()); n != 11 {
		t.Errorf("64K TSL engine packs %d words, want 11", n)
	}
	p, _ := newTestLLBP(t, DefaultConfig())
	if n := len(p.eng.Words()); n != 11 {
		t.Errorf("LLBP composite engine packs %d words, want 11", n)
	}
	p.eng.Register(history.RecentBits-1, 7)
	if n := len(p.eng.Words()); n != 11 {
		t.Errorf("a direct registration grew the engine to %d words, want 11", n)
	}
}
