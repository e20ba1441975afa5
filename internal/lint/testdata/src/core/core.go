// Package core is the hotpath fixture: a Predictor whose per-branch
// entry points reach allocations and map accesses directly, through a
// helper, and through another fixture package — plus cold functions the
// analyzer must not flag and an allow-suppressed cold layer.
package core

import "predlib"

type Predictor struct {
	tbl   []int
	cache map[uint64]int
	name  string
}

func (p *Predictor) Predict(pc uint64) bool {
	v := p.cache[pc] // want hotpath:"map access \\(index\\)"
	return p.scan(pc) > v
}

// scan is hot via Predict: one hop below the root.
func (p *Predictor) scan(pc uint64) int {
	s := make([]int, 4)      // want hotpath:"allocates \\(make\\)"
	for k := range p.cache { // want hotpath:"map access \\(range\\)"
		_ = k
	}
	_ = s
	return predlib.Mix(pc)
}

func (p *Predictor) UpdateWithTarget(pc, target uint64, taken bool) {
	p.tbl = append(p.tbl, int(pc)) // want hotpath:"allocates \\(append\\)"
	if taken {
		p.name = p.name + "t" // want hotpath:"allocates \\(string concatenation\\)"
	}
	delete(p.cache, pc) // want hotpath:"map access \\(delete\\)"
	e := &entry{pc: pc} // want hotpath:"allocates \\(&composite literal\\)"
	_ = e
	p.grow(pc)
}

type entry struct{ pc uint64 }

// grow is a reachable cold layer: its finding is suppressed at the site
// with a justified allow, the pattern real miss-driven code uses.
func (p *Predictor) grow(pc uint64) {
	p.cache[pc] = 1 //llbplint:allow hotpath -- fixture: miss-driven growth off the per-branch steady state
}

// Cold is NOT reachable from the entry points: no findings here.
func (p *Predictor) Cold() {
	_ = make([]int, 128)
	m := map[int]int{}
	_ = m
}

// Predict on a non-Predictor type is not a root.
type Other struct{}

func (o *Other) Predict(pc uint64) bool {
	_ = make([]byte, 1)
	return false
}
