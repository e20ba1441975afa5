package core

import (
	"testing"

	"llbp/internal/predictor"
	"llbp/internal/sim"
	"llbp/internal/trace"
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
// 14-bit folds of the 13-bit-tag lengths.
func TestKeyFillMatchesTagFor(t *testing.T) {
	smallCD := DefaultConfig()
	smallCD.NumContexts = 1024
	smallCD.CDSets = 256
	smallCD.CIDBits = 11
	tag14 := DefaultConfig()
	tag14.TagBits = 14
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"smallcd", smallCD},
		{"tag14", tag14},
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
