package workload

import (
	"fmt"
	"sync"

	"llbp/internal/trace"
)

// Source is a replayable workload: it implements trace.Source, producing
// identical branch streams on every Open. Its program is built on first
// use — the first Open, OpenBatch, StaticBranches or ClassMap — so a
// catalog lookup costs nothing until a workload is replayed. The program
// draws only from its own seeded generator, so building it alone or
// beside the rest of the catalog yields the same program.
type Source struct {
	params Params
	once   sync.Once
	prog   *program
}

var (
	_ trace.Source      = (*Source)(nil)
	_ trace.BatchSource = (*Source)(nil)
)

// New constructs a workload source from params. The params are validated
// here; the program is built on first use.
func New(params Params) (*Source, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Source{params: params}, nil
}

// program returns the source's program, building it on first call.
func (s *Source) program() *program {
	s.once.Do(func() { s.prog = buildProgram(s.params) })
	return s.prog
}

// MustNew is New panicking on invalid params (for the static catalog).
func MustNew(params Params) *Source {
	s, err := New(params)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements trace.Source.
func (s *Source) Name() string { return s.params.Name }

// Params returns the workload parameters.
func (s *Source) Params() Params { return s.params }

// StaticBranches returns the static conditional working-set size.
func (s *Source) StaticBranches() int { return s.program().StaticBranches() }

// ClassMap returns the behaviour class of every conditional site, keyed by
// PC. Loop headers are not included (they are trip-count behaviour, not a
// drawn class). Used by diagnostics and workload-invariant tests.
func (s *Source) ClassMap() map[uint64]BehaviorClass {
	out := make(map[uint64]BehaviorClass)
	var walk func(st *site)
	walk = func(st *site) {
		switch st.kind {
		case siteCond:
			out[st.pc] = st.class
		case siteLoop:
			for i := range st.inner {
				walk(&st.inner[i])
			}
		}
	}
	for _, fn := range s.program().fns {
		for i := range fn.sites {
			walk(&fn.sites[i])
		}
	}
	return out
}

// Open implements trace.Source: a fresh executor over the program.
func (s *Source) Open() trace.Reader { return newExecutor(s.program()) }

// OpenBatch implements trace.BatchSource: the executor fills whole
// batches without the per-record shim.
func (s *Source) OpenBatch() trace.BatchReader { return newExecutor(s.program()) }

// CacheKey implements the trace/cache Keyer convention: equal
// (Name, Seed) pairs replay identical streams, so the seed is the only
// identity the materialized-trace cache needs beyond the name.
func (s *Source) CacheKey() uint64 { return s.params.Seed }

// loopState tracks an active loop in a frame.
type loopState struct {
	siteIdx   int // index of the loop site in the frame's body
	remaining int // iterations left (including the current one)
	iter      int // completed iterations (the complex-branch phase)
	innerPos  int // next inner site to execute; -1 = at header
}

// frame is one call-stack entry of the executor.
type frame struct {
	fn   *function
	pos  int
	ctx  uint64 // call-chain context hash (ground truth for outcomes)
	loop *loopState
}

// executor is the stack machine that runs a program and emits its branch
// stream. It implements trace.Reader. All state evolution is
// deterministic: outcome functions are hashes of static seeds, the context
// hash, and loop phases; residual randomness comes from the executor's own
// seeded PRNG, which advances identically on every replay.
type executor struct {
	prog *program
	r    *rng
	zipf *zipf

	stack []frame
	ghr   uint64 // generator-side history for GlobalCorrelated outcomes

	pending []trace.Branch
	out     int
}

func newExecutor(prog *program) *executor {
	r := newRNG(prog.params.Seed ^ 0xEC5EC5EC5)
	return &executor{
		prog: prog,
		r:    r,
		zipf: newZipf(r, prog.params.RequestTypes, prog.params.ZipfSkew),
	}
}

// Read implements trace.Reader. The stream is unbounded; wrap with
// trace.LimitReader to bound it.
func (e *executor) Read(b *trace.Branch) error {
	for e.out >= len(e.pending) {
		e.pending = e.pending[:0]
		e.out = 0
		if err := e.step(); err != nil {
			return err
		}
	}
	*b = e.pending[e.out]
	e.out++
	return nil
}

// ReadBatch implements trace.BatchReader: it drains the pending queue in
// bulk and steps the machine until dst is full, so per-record interface
// dispatch disappears from replay loops.
func (e *executor) ReadBatch(dst []trace.Branch) (int, error) {
	n := 0
	for n < len(dst) {
		if e.out < len(e.pending) {
			c := copy(dst[n:], e.pending[e.out:])
			e.out += c
			n += c
			continue
		}
		e.pending = e.pending[:0]
		e.out = 0
		if err := e.step(); err != nil {
			return n, err
		}
	}
	return n, nil
}

// emit appends a branch with a fresh instruction-gap draw.
func (e *executor) emit(pc, target uint64, t trace.BranchType, taken, targetMiss bool) {
	e.pending = append(e.pending, trace.Branch{
		PC:                 pc,
		Target:             target,
		Type:               t,
		Taken:              taken,
		Instructions:       uint32(e.r.geometric(e.prog.params.MeanBlockInstrs)),
		MispredictedTarget: targetMiss,
	})
}

// step advances the machine until at least one branch is emitted.
func (e *executor) step() error {
	if len(e.stack) == 0 {
		e.dispatch()
		return nil
	}
	f := &e.stack[len(e.stack)-1]
	if f.loop != nil {
		return e.stepLoop(f)
	}
	if f.pos >= len(f.fn.sites) {
		// Function epilogue: return to the caller.
		var retTarget uint64
		if len(e.stack) >= 2 {
			caller := &e.stack[len(e.stack)-2]
			retTarget = caller.fn.base + uint64(caller.pos*instrWidth)
		} else {
			retTarget = e.prog.dispatchPC
		}
		e.emit(f.fn.retPC, retTarget, trace.Return, true, false)
		e.stack = e.stack[:len(e.stack)-1]
		return nil
	}
	s := &f.fn.sites[f.pos]
	switch s.kind {
	case siteCond:
		taken := e.condOutcome(s, f.ctx, 0)
		e.pushGHR(taken)
		e.emit(s.pc, s.pc+64, trace.CondDirect, taken, false)
		f.pos++
	case siteLoop:
		f.loop = &loopState{
			siteIdx:   f.pos,
			remaining: e.tripCount(s, f.ctx),
			innerPos:  -1,
		}
		return e.stepLoop(f)
	case siteCall:
		// Advance past the call site before pushing the callee:
		// doCall appends to the stack, which may reallocate it and
		// invalidate f.
		f.pos++
		e.doCall(f, s)
	default:
		return fmt.Errorf("workload: unknown site kind %d", s.kind)
	}
	return nil
}

// stepLoop advances an active loop: header branch, then the inner body
// sites of the current iteration.
func (e *executor) stepLoop(f *frame) error {
	s := &f.fn.sites[f.loop.siteIdx]
	if f.loop.innerPos < 0 {
		// At the loop header.
		taken := f.loop.remaining > 0
		e.pushGHR(taken)
		e.emit(s.pc, s.pc, trace.CondDirect, taken, false)
		if !taken {
			f.loop = nil
			f.pos++
			return nil
		}
		f.loop.remaining--
		f.loop.innerPos = 0
		if len(s.inner) == 0 {
			f.loop.iter++
			f.loop.innerPos = -1
		}
		return nil
	}
	inner := &s.inner[f.loop.innerPos]
	iter := f.loop.iter
	// Advance the loop cursor before any call: doCall appends to the
	// stack, which may reallocate it and invalidate f.
	f.loop.innerPos++
	if f.loop.innerPos >= len(s.inner) {
		f.loop.iter++
		f.loop.innerPos = -1
	}
	switch inner.kind {
	case siteCond:
		taken := e.condOutcome(inner, f.ctx, iter)
		e.pushGHR(taken)
		e.emit(inner.pc, inner.pc+64, trace.CondDirect, taken, false)
	case siteCall:
		// Loop-body calls fire on a subset of iterations (as if
		// guarded by a data-dependent condition); calling on every
		// iteration would explode the call tree.
		if (iter+int(inner.seed&3))%3 == 0 {
			e.doCall(f, inner)
		}
	default:
		return fmt.Errorf("workload: invalid inner site kind %d", inner.kind)
	}
	return nil
}

// doCall emits a call transfer and pushes the callee frame (or models an
// immediate return at the depth cap).
func (e *executor) doCall(f *frame, s *site) {
	callee := s.callees[0]
	bt := trace.Call
	miss := false
	if s.indirect {
		bt = trace.IndirectCall
		// The callee is context-dependent — indirect calls fan a
		// shared function out across many program contexts.
		callee = s.callees[mix(s.seed, f.ctx)%uint64(len(s.callees))]
		miss = e.r.bernoulli(e.prog.params.IndirectMissRate)
	}
	target := e.prog.fns[callee]
	e.emit(s.pc, target.base, bt, true, miss)
	if len(e.stack) < e.prog.params.MaxDepth {
		e.stack = append(e.stack, frame{
			fn:  target,
			ctx: mix(f.ctx, uint64(callee), s.pc),
		})
	} else {
		// Depth cap: model the callee as an immediate return so the
		// control-flow shape stays sane.
		e.emit(target.retPC, s.pc+instrWidth, trace.Return, true, false)
	}
}

// dispatch runs one turn of the server loop: jump back to the loop head
// and call a Zipf-chosen request handler.
func (e *executor) dispatch() {
	e.emit(e.prog.dispatchPC, e.prog.callPC, trace.Jump, true, false)
	entry := e.prog.entries[e.zipf.draw()]
	fn := e.prog.fns[entry]
	e.emit(e.prog.callPC, fn.base, trace.Call, true, false)
	e.stack = append(e.stack, frame{
		fn:  fn,
		ctx: mix(0xD15, uint64(entry)),
	})
}

func (e *executor) pushGHR(taken bool) {
	e.ghr <<= 1
	if taken {
		e.ghr |= 1
	}
}

// condOutcome resolves a conditional site's direction per its behaviour
// class. iter is the enclosing loop's completed-iteration count (0 for
// straight-line sites).
func (e *executor) condOutcome(s *site, ctx uint64, iter int) bool {
	switch s.class {
	case Biased:
		return e.r.bernoulli(s.biasP)
	case PathMarker:
		return mix(s.seed, ctx)&1 == 1
	case LocalPattern:
		// A short repeating pattern driven by the loop iteration (or
		// the low GHR bits for straight-line sites).
		phase := uint64(iter)
		if phase == 0 {
			phase = e.ghr & 3
		}
		return mix(s.seed, phase%uint64(s.period))&1 == 1
	case GlobalCorrelated:
		h := e.ghr & (uint64(1)<<uint(s.histBits) - 1)
		return mix(s.seed, h)&1 == 1
	case ContextCorrelated:
		taken := mix(s.seed, ctx, uint64(iter%s.period))&1 == 1
		if e.prog.params.ContextNoise > 0 && e.r.bernoulli(e.prog.params.ContextNoise) {
			taken = !taken
		}
		return taken
	case Noisy:
		return e.r.bernoulli(0.5)
	default:
		return false
	}
}

// tripCount resolves a loop's iteration count on loop entry.
func (e *executor) tripCount(s *site, ctx uint64) int {
	if s.ctxTrip {
		span := e.prog.params.LoopTripMax - e.prog.params.LoopTripMin + 1
		return e.prog.params.LoopTripMin + int(mix(s.seed, ctx)%uint64(span))
	}
	return s.tripBase
}
