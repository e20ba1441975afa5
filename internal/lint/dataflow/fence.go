package dataflow

// Epoch-fence analysis (the fencecheck analyzer's engine).
//
// The service's lease protocol says: a worker may mutate job or session
// state only while it still owns the lease, and ownership is proven by
// an epoch check — a claim moves the lease epoch and hands the value to
// the dispatch path; every later mutation checks the held epoch against
// the lease and bails if a revocation raced it. That rule was
// convention; this engine proves it on the call graph.
//
// Types carrying lease-owned state are annotated //llbplint:leased, the
// ownership record itself (internal/lease.Lease) among them. A "write"
// is any assignment (or ++/--) whose target is rooted in a value of a
// leased type. A write is *fenced* when it is dominated by an epoch
// guard: either it sits inside an `if` whose condition reads a leased
// epoch field — directly, or through a guard method of a leased type,
// one that reads its epoch and writes nothing (lease.Holds) — or it
// follows (in straight-line order) an `if guard { return/break/
// continue }` early-out. Exempt are functions annotated //llbplint:fence
// with a reason and fence constructors, which move an epoch: they write
// an epoch field (lease.Claim, lease.Revoke) or call such a method on a
// lease embedded in a leased value (`jb.lease.Claim` in the job claim).
//
// Summaries carry each function's unfenced writes (own plus those
// inherited through unguarded call sites, with the call chain recorded
// as evidence). A finding is an unfenced write transitively reachable
// from a worker root: a function launched in a goroutine, or one
// annotated //llbplint:worker (HTTP handlers that execute on behalf of
// remote workers).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"llbp/internal/lint/analysis"
)

const epochField = "epoch"

// writeRec is one unfenced write, with the evidence chain from the
// summarized function's entry down to the write.
type writeRec struct {
	pos   token.Pos
	field string // leased type + field, e.g. "job.state"
	steps []analysis.PathStep
}

type fenceSummary struct {
	// exempt marks fence constructors and //llbplint:fence-annotated
	// functions; movesEpoch, fence constructors. readsEpoch: the body
	// reads a leased epoch field; writes: it writes leased state, itself
	// or through a callee.
	exempt, movesEpoch, readsEpoch, writes bool
	unguarded                              []writeRec
}

// FenceEngine proves the epoch-fence rule; Findings carries the
// unfenced worker-reachable writes after Run.
type FenceEngine struct {
	prog     *Program
	leased   map[*types.TypeName]bool
	sums     map[*types.Func]*fenceSummary
	Findings []analysis.Diagnostic
}

func NewFenceEngine(prog *Program) *FenceEngine {
	return &FenceEngine{
		prog:   prog,
		leased: prog.LeasedTypes(),
		sums:   map[*types.Func]*fenceSummary{},
	}
}

// Run computes summaries bottom-up, then reports each worker-reachable
// unfenced write once.
func (e *FenceEngine) Run() {
	if len(e.leased) == 0 {
		return
	}
	for _, scc := range e.prog.SCCs() {
		for round := 0; round < 2; round++ {
			for _, fn := range scc {
				e.sums[fn.Obj] = e.summarize(fn)
			}
			if len(scc) == 1 {
				break
			}
		}
	}
	reported := map[token.Pos]bool{}
	for _, root := range e.prog.GoRoots() {
		sum := e.sums[root.Obj]
		if sum == nil {
			continue
		}
		for _, wr := range sum.unguarded {
			if reported[wr.pos] {
				continue
			}
			reported[wr.pos] = true
			e.Findings = append(e.Findings, analysis.Diagnostic{
				Pos: wr.pos,
				Message: fmt.Sprintf("unfenced write to lease-owned %s reachable from worker goroutine; dominate it with an epoch guard (compare against the claim epoch) or annotate //llbplint:fence with a reason",
					wr.field),
				Path: AppendPath(
					[]analysis.PathStep{Step(root.Decl.Pos(), "worker root %s", root.Name())},
					wr.steps...),
			})
		}
	}
}

// summarize walks one function collecting its unfenced leased-state
// writes, including those inherited from callees at unguarded call
// sites.
func (e *FenceEngine) summarize(fn *Func) *fenceSummary {
	sum := &fenceSummary{}
	if e.prog.FuncHasAnno(fn.Obj, KindFence) {
		sum.exempt = true
		return sum
	}
	w := &fenceWalker{e: e, fn: fn, info: fn.Pkg.TypesInfo, sum: sum}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		sum.readsEpoch = sum.readsEpoch || w.isEpoch(n)
		return !sum.readsEpoch
	})
	w.stmts(fn.Decl.Body.List, false)
	if sum.exempt { // moved an epoch somewhere: fence constructor
		sum.unguarded = nil
	}
	return sum
}

type fenceWalker struct {
	e    *FenceEngine
	fn   *Func
	info *types.Info
	sum  *fenceSummary
}

// stmts walks a statement list in order, tracking whether execution at
// each point is dominated by an epoch guard.
func (w *fenceWalker) stmts(list []ast.Stmt, guarded bool) bool {
	for _, s := range list {
		guarded = w.stmt(s, guarded)
	}
	return guarded
}

func (w *fenceWalker) stmt(s ast.Stmt, guarded bool) bool {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, l := range s.Lhs {
			w.checkWrite(l, guarded)
		}
		for _, r := range s.Rhs {
			w.expr(r, guarded)
		}
	case *ast.IncDecStmt:
		w.checkWrite(s.X, guarded)
	case *ast.ExprStmt:
		w.expr(s.X, guarded)
	case *ast.IfStmt:
		if s.Init != nil {
			guarded = w.stmt(s.Init, guarded)
		}
		w.expr(s.Cond, guarded)
		epochCond := w.mentionsEpoch(s.Cond)
		w.stmts(s.Body.List, guarded || epochCond)
		if s.Else != nil {
			w.stmt(s.Else, guarded || epochCond)
		}
		// `if jb.epoch != epoch { return }` early-out: straight-line
		// code after it runs only with a valid epoch.
		if epochCond && terminates(s.Body) {
			return true
		}
	case *ast.BlockStmt:
		return w.stmts(s.List, guarded)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, guarded)
		}
		w.stmts(s.Body.List, guarded)
	case *ast.RangeStmt:
		w.expr(s.X, guarded)
		w.stmts(s.Body.List, guarded)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, guarded)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, guarded)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, guarded)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmts(cc.Body, guarded)
			}
		}
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, guarded)
	case *ast.GoStmt:
		w.expr(s.Call, false) // new goroutine: guard does not carry over
	case *ast.DeferStmt:
		w.expr(s.Call, guarded)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r, guarded)
		}
	case *ast.SendStmt:
		w.expr(s.Chan, guarded)
		w.expr(s.Value, guarded)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v, guarded)
					}
				}
			}
		}
	}
	return guarded
}

// expr visits calls inside an expression: an unguarded call inherits
// the callee's unfenced writes into this function's summary.
func (w *fenceWalker) expr(e ast.Expr, guarded bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n, guarded)
		case *ast.FuncLit:
			w.stmts(n.Body.List, false)
			return false
		}
		return true
	})
}

func (w *fenceWalker) call(call *ast.CallExpr, guarded bool) {
	callee := CalleeFunc(w.info, call)
	sum := w.e.sums[callee] // nil for calls without a static target
	if sum == nil {
		return
	}
	w.sum.writes = w.sum.writes || sum.writes
	if sum.movesEpoch && w.embeddedLeaseCall(call) { // jb.lease.Claim()
		w.sum.movesEpoch, w.sum.exempt = true, true
	}
	if guarded || sum.exempt {
		return // epoch-dominated call: callee writes are fenced here
	}
	for _, wr := range sum.unguarded {
		w.sum.unguarded = append(w.sum.unguarded, writeRec{
			pos:   wr.pos,
			field: wr.field,
			steps: AppendPath(
				[]analysis.PathStep{Step(call.Pos(), "calls %s", FuncName(callee))},
				wr.steps...),
		})
	}
}

// checkWrite records an assignment target rooted in a leased-typed
// value. Writes to the epoch field itself mark the function as a fence
// constructor.
func (w *fenceWalker) checkWrite(lhs ast.Expr, guarded bool) {
	tn, field := w.leasedTarget(lhs)
	if tn == nil {
		return
	}
	w.sum.writes = true
	if field == epochField {
		w.sum.movesEpoch, w.sum.exempt = true, true
		return
	}
	if guarded {
		return
	}
	name := tn.Name() + "." + field
	w.sum.unguarded = append(w.sum.unguarded, writeRec{
		pos:   lhs.Pos(),
		field: name,
		steps: []analysis.PathStep{Step(lhs.Pos(), "write to %s in %s", name, w.fn.Name())},
	})
}

// leasedTarget resolves an assignment target to (leased type, field
// name) when its base is a value of a //llbplint:leased type.
func (w *fenceWalker) leasedTarget(lhs ast.Expr) (*types.TypeName, string) {
	for {
		switch x := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if tn := w.leasedTypeOf(x.X); tn != nil {
				return tn, x.Sel.Name
			}
			lhs = x.X
		case *ast.IndexExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		default:
			return nil, ""
		}
	}
}

func (w *fenceWalker) leasedTypeOf(e ast.Expr) *types.TypeName {
	t := w.info.TypeOf(e)
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if w.e.leased[named.Obj()] {
		return named.Obj()
	}
	return nil
}

// mentionsEpoch reports whether a condition reads the epoch field of a
// leased type, directly or through a guard method (lease.Holds) — the
// shape of every guard in the lease protocol.
func (w *fenceWalker) mentionsEpoch(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			found = w.isEpoch(n)
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && w.leasedTypeOf(sel.X) != nil {
				callee := CalleeFunc(w.info, n)
				if sum := w.e.sums[callee]; sum != nil && sum.readsEpoch && !sum.writes {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isEpoch reports whether n selects the epoch field of a leased value.
func (w *fenceWalker) isEpoch(n ast.Node) bool {
	sel, ok := n.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == epochField && w.leasedTypeOf(sel.X) != nil
}

// embeddedLeaseCall reports whether call invokes a method of a leased
// value that is itself a field of a leased value.
func (w *fenceWalker) embeddedLeaseCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || w.leasedTypeOf(sel.X) == nil {
		return false
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	return ok && w.leasedTypeOf(field.X) != nil
}

// terminates reports whether a block always transfers control out
// (return, break, continue, goto, panic).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
