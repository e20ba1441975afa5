package tage

// Fork returns an independent deep copy of the predictor: bimodal and
// tagged tables (or the infinite associative maps), the path register,
// the history engine (when this predictor owns it), the allocator's tick
// and RNG state, and the Predict/Update scratch. Training either copy
// never affects the other, and — because the RNG state is carried —
// both copies replay the exact allocation schedule an unforked predictor
// would. The cumulative counters carry across too. Call at a branch
// boundary (after Update, before the next Predict).
func (p *Predictor) Fork() *Predictor {
	out := *p
	out.bim = p.bim.Fork()
	if p.cfg.Infinite {
		out.inf = make([]map[infKey]*entry, len(p.inf))
		for i, m := range p.inf {
			nm := make(map[infKey]*entry, len(m))
			//llbplint:allow determinism -- map-to-map deep copy: the result is the same set of entries whatever order the range visits
			for k, e := range m {
				ce := *e
				nm[k] = &ce
			}
			out.inf[i] = nm
		}
	} else {
		// The tables lie back to back in one backing array, so copying
		// them in order into one allocation copies that array.
		backing := make([]entry, 0, p.PatternCount())
		for _, t := range p.tables {
			backing = append(backing, t...)
		}
		out.sliceTables(backing)
	}
	if p.engOwner {
		out.eng = p.eng.Clone()
	}
	// A non-owner's engine belongs to the composite, which clones it and
	// rebinds the forked TAGE via RebindHistoryEngine. Cached fold
	// locations stay valid either way (clones share the packed layout).
	return &out
}
