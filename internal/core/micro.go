package core

import (
	"llbp/internal/predictor"
	"llbp/internal/tsl"
)

// Microbench is one named component benchmark of the LLBP per-branch hot
// path. Run executes n back-to-back iterations of the component
// operation on pre-built predictor state — setup cost is paid when the
// closure is constructed, not inside Run — so callers time Run directly:
// BenchmarkMicro under `go test -bench`, perfbench's traced run in
// thread CPU.
type Microbench struct {
	Name string
	Run  func(n int)
}

// microSink defeats dead-code elimination of benchmark results.
var microSink uint64

// Microbenches builds the per-component microbenchmarks of the
// structures the end-to-end llbp replay number is made of, so a future
// regression localizes to one structure instead of the aggregate:
//
//	engine-push       the shared history engine's per-branch fold update
//	match-patterns    tag computation + branch-free pattern-set probe
//	pb-lookup         the pattern buffer's branch-free CID compare sweep
//	patternset-clone  the value copy a set transfer or fork performs
//
// Each benchmark owns a freshly built default-configuration predictor
// (64 KiB TAGE-SC-L baseline) with a small amount of fabricated state,
// the same shapes the replay loop touches.
func Microbenches() []Microbench {
	return []Microbench{
		microEnginePush(),
		microMatchPatterns(),
		microPBLookup(),
		microPatternSetClone(),
	}
}

// microPredictor builds the default composite with a little history
// pushed through the engine so fold words are non-trivial.
func microPredictor() *Predictor {
	p := MustNew(DefaultConfig(), tsl.MustNew(tsl.Config64K()), &predictor.Clock{})
	for i := 0; i < 4096; i++ {
		p.eng.Push(i%3 == 0)
	}
	return p
}

// microContext fabricates one resident context: a directory entry whose
// pattern set holds a valid pattern for every configured history length,
// cached in the pattern buffer.
func microContext(p *Predictor, cid uint64) *PBEntry {
	ent, _, _ := p.dir.Insert(cid)
	for i := range p.cfg.HistLengths {
		ent.Set.insert(uint32(0x1a5+i*7)&(1<<uint(p.cfg.TagBits)-1),
			uint8(i), i%2 == 0, p.cfg.Buckets, len(p.cfg.HistLengths))
	}
	pbe, _ := p.pb.Insert(cid, ent, 0)
	return pbe
}

func microEnginePush() Microbench {
	p := microPredictor()
	return Microbench{Name: "engine-push", Run: func(n int) {
		for i := 0; i < n; i++ {
			p.eng.Push(i&2 == 0)
		}
	}}
}

func microMatchPatterns() Microbench {
	p := microPredictor()
	p.pbe = microContext(p, 42)
	return Microbench{Name: "match-patterns", Run: func(n int) {
		for i := 0; i < n; i++ {
			p.matched = false
			p.matchPatterns(0x400000 | uint64(i&1023)<<2)
			if p.matched {
				microSink++
			}
		}
	}}
}

func microPBLookup() Microbench {
	p := microPredictor()
	for cid := uint64(0); cid < 64; cid++ {
		microContext(p, cid)
	}
	return Microbench{Name: "pb-lookup", Run: func(n int) {
		// Alternate hits (CIDs 0..63 are resident) with misses (the high
		// bit set), the mix the replay loop sees.
		for i := 0; i < n; i++ {
			if e := p.pb.Lookup(uint64(i&127) ^ uint64(i&64)<<20); e != nil {
				microSink++
			}
		}
	}}
}

func microPatternSetClone() Microbench {
	p := microPredictor()
	ent, _, _ := p.dir.Insert(7)
	for i := range p.cfg.HistLengths {
		ent.Set.insert(uint32(i*13+1), uint8(i), i%2 == 0, p.cfg.Buckets, len(p.cfg.HistLengths))
	}
	return Microbench{Name: "patternset-clone", Run: func(n int) {
		for i := 0; i < n; i++ {
			c := ent.Set
			c.unshare()
			microSink += uint64(c.Len())
		}
	}}
}
