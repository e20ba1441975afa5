package workload

// siteKind discriminates the site types a function body is built from.
type siteKind uint8

const (
	siteCond siteKind = iota
	siteCall
	siteLoop
)

// site is one static program location in a function body.
type site struct {
	kind siteKind
	pc   uint64

	// Conditional-branch sites.
	class    BehaviorClass
	seed     uint64
	biasP    float64 // Biased: taken probability
	period   int     // LocalPattern / ContextCorrelated phase period
	histBits int     // GlobalCorrelated: history bits read

	// Call sites.
	callees  []int // callee function ids (1 for direct calls)
	indirect bool

	// Loop sites.
	tripBase int
	ctxTrip  bool   // trip count depends on calling context
	inner    []site // loop-body sites (complex branches live here)
}

// function is a synthetic function: an address range and a body of sites.
type function struct {
	id    int
	base  uint64
	sites []site
	retPC uint64
}

// program is the static structure of a workload: the call graph, the
// request-handler entry points, and the server dispatch loop.
type program struct {
	params     Params
	fns        []*function
	entries    []int
	dispatchPC uint64 // server-loop back-jump
	callPC     uint64 // server-loop dispatch call
}

// defaultMidBiasFrac is the Biased-site mid-bias share when
// Params.MidBiasFrac is negative.
const defaultMidBiasFrac = 0.03

const (
	codeBase   = 0x0000_0000_0040_0000
	fnStride   = 0x1000 // address space per function
	instrWidth = 4

	// maxLoopInner is the most sites a loop body holds, so a loop site
	// takes up to loopSitePCs PCs: the loop branch and its body.
	maxLoopInner = 4
	loopSitePCs  = 1 + maxLoopInner

	// maxBodyPCs is the most site PCs a function body may take: sites
	// are laid out one instrWidth apart from the function's base, and the
	// return PC after the last one must stay inside the function's own
	// stride, or it lands on the next function's first site.
	maxBodyPCs = fnStride/instrWidth - 1
)

// buildProgram deterministically constructs the static program for p,
// which New has validated.
func buildProgram(p Params) *program {
	r := newRNG(p.Seed)
	prog := &program{
		params:     p,
		fns:        make([]*function, p.Functions),
		dispatchPC: codeBase - 0x100,
		callPC:     codeBase - 0xF8,
	}
	for id := 0; id < p.Functions; id++ {
		prog.fns[id] = buildFunction(p, r, id)
	}
	// Request handlers are the first RequestTypes functions; the
	// remaining functions are internal and reachable through calls.
	prog.entries = make([]int, p.RequestTypes)
	for i := range prog.entries {
		prog.entries[i] = i
	}
	return prog
}

// leafTierStart returns the function id at which the leaf tier begins:
// the last quarter of the function list are small leaf functions with no
// call sites, giving the call graph a layered-DAG shape with finite,
// request-sized call trees (servers are full of tiny utility functions).
func leafTierStart(p Params) int { return p.Functions / 2 }

// buildFunction constructs one function body: a shuffled mix of
// conditional, call and loop sites. Complex (context-correlated) branches
// are placed inside loop bodies so that their per-context phase is visible
// in recent global history — the structure the paper observes in server
// code, where hard branches sit in data-dependent inner loops reached
// through deep call chains (§IV). Calls only target higher function ids
// (a DAG), with callees biased toward the leaf tier.
func buildFunction(p Params, r *rng, id int) *function {
	base := uint64(codeBase + id*fnStride)
	nCond := r.rangeInt(p.CondMin, p.CondMax)
	nCall := r.rangeInt(p.CallMin, p.CallMax)
	nLoop := r.rangeInt(p.LoopMin, p.LoopMax)
	if id >= leafTierStart(p) || id >= p.Functions-2 {
		// Leaf tier: small bodies, no outgoing calls.
		nCond = r.rangeInt(1, 4)
		nCall = 0
		nLoop = 0
	}

	kinds := make([]siteKind, 0, nCond+nCall+nLoop)
	for i := 0; i < nCond; i++ {
		kinds = append(kinds, siteCond)
	}
	for i := 0; i < nCall; i++ {
		kinds = append(kinds, siteCall)
	}
	for i := 0; i < nLoop; i++ {
		kinds = append(kinds, siteLoop)
	}
	// Fisher-Yates with the deterministic generator.
	for i := len(kinds) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}

	fn := &function{id: id, base: base}
	pc := base
	nextPC := func() uint64 {
		v := pc
		pc += instrWidth
		return v
	}
	for _, k := range kinds {
		switch k {
		case siteCond:
			fn.sites = append(fn.sites, buildCondSite(p, r, nextPC(), false))
		case siteCall:
			fn.sites = append(fn.sites, buildCallSite(p, r, nextPC(), id))
		case siteLoop:
			s := site{kind: siteLoop, pc: nextPC(), seed: r.next()}
			s.tripBase = r.rangeInt(p.LoopTripMin, p.LoopTripMax)
			s.ctxTrip = p.ContextLoops && r.bernoulli(0.5)
			nInner := r.rangeInt(1, maxLoopInner)
			for j := 0; j < nInner; j++ {
				if r.bernoulli(0.12) {
					s.inner = append(s.inner, buildCallSite(p, r, nextPC(), id))
				} else {
					s.inner = append(s.inner, buildCondSite(p, r, nextPC(), true))
				}
			}
			fn.sites = append(fn.sites, s)
		}
	}
	fn.retPC = pc
	return fn
}

// buildCondSite draws a conditional site. Loop-body sites (inLoop) draw
// from the complex-heavy distribution.
func buildCondSite(p Params, r *rng, pc uint64, inLoop bool) site {
	s := site{kind: siteCond, pc: pc, seed: r.next()}
	s.class = drawClass(p, r, inLoop)
	switch s.class {
	case Biased:
		// Mostly strongly biased, occasionally mid-biased (the
		// irreducible background noise real workloads carry).
		mid := p.MidBiasFrac
		if mid < 0 {
			mid = defaultMidBiasFrac
		}
		if r.bernoulli(1 - mid) {
			if r.bernoulli(0.5) {
				s.biasP = 0.99
			} else {
				s.biasP = 0.01
			}
		} else {
			s.biasP = 0.65 + 0.25*r.float()
		}
	case PathMarker:
		// Outcome fixed per calling context; resolved at run time.
	case LocalPattern:
		s.period = r.rangeInt(2, 6)
	case GlobalCorrelated:
		s.histBits = r.rangeInt(3, p.GlobalHistBits)
	case ContextCorrelated:
		s.period = r.rangeInt(p.ContextPhaseMin, p.ContextPhaseMax)
	case Noisy:
		s.biasP = 0.5
	}
	return s
}

// buildCallSite draws a call site for function id. Callees always have a
// higher id (DAG call graph) and are biased toward the leaf tier so call
// trees stay request-sized.
func buildCallSite(p Params, r *rng, pc uint64, id int) site {
	s := site{kind: siteCall, pc: pc, seed: r.next()}
	s.indirect = r.bernoulli(p.IndirectFrac)
	fanout := 1
	if s.indirect {
		fanout = p.IndirectFanout
		if fanout < 2 {
			fanout = 2
		}
	}
	s.callees = make([]int, fanout)
	leaves := leafTierStart(p)
	for c := range s.callees {
		if id+1 >= leaves || r.bernoulli(0.85) {
			// Call into the leaf tier.
			s.callees[c] = r.rangeInt(leaves, p.Functions-1)
		} else {
			// Call deeper into the mid tier.
			s.callees[c] = r.rangeInt(id+1, leaves-1)
		}
		if s.callees[c] <= id {
			s.callees[c] = id + 1
		}
	}
	return s
}

// drawClass apportions behaviour classes. Straight-line sites never draw
// ContextCorrelated (its phase would be invisible in history across
// requests); loop-body sites draw it with the boosted in-loop fraction.
func drawClass(p Params, r *rng, inLoop bool) BehaviorClass {
	if inLoop {
		boost := p.FracContext * 2
		if boost > 0.7 {
			boost = 0.7
		}
		u := r.float()
		switch {
		case u < boost:
			return ContextCorrelated
		case u < boost+0.1:
			return GlobalCorrelated
		case u < boost+0.2:
			return LocalPattern
		default:
			return Biased
		}
	}
	u := r.float()
	switch {
	case u < p.FracMarker:
		return PathMarker
	case u < p.FracMarker+p.FracGlobal:
		return GlobalCorrelated
	case u < p.FracMarker+p.FracGlobal+p.FracLocal:
		return LocalPattern
	case u < p.FracMarker+p.FracGlobal+p.FracLocal+p.FracNoisy:
		return Noisy
	default:
		return Biased
	}
}

// StaticBranches returns the number of static conditional-branch sites
// (loop headers and loop bodies included) — the branch working set.
func (pr *program) StaticBranches() int {
	n := 0
	for _, fn := range pr.fns {
		for i := range fn.sites {
			n += staticBranchesIn(&fn.sites[i])
		}
	}
	return n
}

func staticBranchesIn(s *site) int {
	switch s.kind {
	case siteCond:
		return 1
	case siteLoop:
		n := 1 // header
		for i := range s.inner {
			n += staticBranchesIn(&s.inner[i])
		}
		return n
	default:
		return 0
	}
}
