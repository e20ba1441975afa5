package dataflow

// Determinism-taint analysis (the detflow analyzer's engine).
//
// Taint starts at nondeterminism sources — wall-clock reads, the global
// math/rand state, map iteration order, select arrival order, and
// functions annotated //llbplint:source — and propagates through
// assignments, expressions and calls until it either dies (sorted away
// by a sanitizer) or reaches a determinism-critical sink (a function
// annotated //llbplint:sink, such as the harness journal's Record or
// the service NDJSON encoder). Only a completed source→sink flow is a
// finding; using time.Now for a log line nobody replays is fine.
//
// The engine is summary-based and context-insensitive: every function
// gets a summary saying (a) whether its results are tainted regardless
// of arguments, (b) which parameters flow to its results, and (c) which
// parameters reach a sink — each fact carrying a representative
// evidence chain. Summaries compose bottom-up over call-graph SCCs, so
// a source three calls away from a sink still connects. Within a
// function the walk is flow-sensitive in statement order (branches
// join, loop bodies run twice), which is what lets `sort.Strings(keys)`
// launder a map-range collection the way PR 3's syntactic idiom check
// sanctioned.
//
// Known imprecision, chosen deliberately: fields are not distinguished
// (a tainted field taints its struct), closures are separate scopes
// (captured-variable flows are invisible), and calls through interfaces
// or function values propagate argument taint to the result but have no
// summaries. These lose flows, not soundness of what IS reported: every
// reported path is a real chain of assignments and calls in the source.

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"llbp/internal/lint/analysis"
)

// tval is the abstract taint value of one expression or variable.
type tval struct {
	// conc, when non-nil, is the evidence chain from a concrete
	// nondeterminism source to this value.
	conc []analysis.PathStep
	// par maps parameter indices of the enclosing function to the
	// evidence chain from that parameter to this value.
	par map[int][]analysis.PathStep
}

func (v tval) clean() bool { return v.conc == nil && len(v.par) == 0 }

func union(a, b tval) tval {
	out := tval{conc: a.conc}
	if out.conc == nil {
		out.conc = b.conc
	}
	if len(a.par)+len(b.par) > 0 {
		out.par = map[int][]analysis.PathStep{}
		for i, tr := range a.par {
			out.par[i] = tr
		}
		for i, tr := range b.par {
			if _, ok := out.par[i]; !ok {
				out.par[i] = tr
			}
		}
	}
	return out
}

// taintSummary is one function's interprocedural taint behavior.
type taintSummary struct {
	// generates, when non-nil, is the evidence chain of a concrete
	// source reaching the function's results.
	generates []analysis.PathStep
	// paramFlow[i] reports that parameter i flows into the results.
	paramFlow []bool
	// paramSink[i], when non-nil, is the evidence chain from parameter
	// i to a sink reached inside this function or its callees.
	paramSink [][]analysis.PathStep
}

func (s *taintSummary) equal(o *taintSummary) bool {
	if (s.generates == nil) != (o.generates == nil) {
		return false
	}
	for i := range s.paramFlow {
		if s.paramFlow[i] != o.paramFlow[i] {
			return false
		}
		if (s.paramSink[i] == nil) != (o.paramSink[i] == nil) {
			return false
		}
	}
	return true
}

// TaintEngine runs the analysis; Findings carries the surviving
// source→sink diagnostics after Run.
type TaintEngine struct {
	prog     *Program
	sums     map[*types.Func]*taintSummary
	sinks    map[*types.Func]string // annotated sink → reason
	sources  map[*types.Func]string
	sanitize map[*types.Func]bool
	Findings []analysis.Diagnostic
	seen     map[string]bool
}

// NewTaintEngine indexes the program's source/sink/sanitizer
// annotations.
func NewTaintEngine(prog *Program) *TaintEngine {
	t := &TaintEngine{
		prog:     prog,
		sums:     map[*types.Func]*taintSummary{},
		sinks:    map[*types.Func]string{},
		sources:  map[*types.Func]string{},
		sanitize: map[*types.Func]bool{},
		seen:     map[string]bool{},
	}
	for fn, annos := range prog.FuncAnnos {
		for _, a := range annos {
			switch a.Kind {
			case KindSink:
				t.sinks[fn] = a.Reason
			case KindSource:
				t.sources[fn] = a.Reason
			case KindSanitizer:
				t.sanitize[fn] = true
			}
		}
	}
	return t
}

// Run computes summaries bottom-up, then reports every concrete
// source→sink flow.
func (t *TaintEngine) Run() {
	for _, scc := range t.prog.SCCs() {
		for round := 0; round < 3; round++ {
			stable := true
			for _, fn := range scc {
				next := t.analyze(fn, nil)
				if old := t.sums[fn.Obj]; old == nil || !old.equal(next) {
					stable = false
				}
				t.sums[fn.Obj] = next
			}
			if stable {
				break
			}
		}
	}
	for _, fn := range t.prog.OrderedFuncs() {
		t.analyze(fn, t.report)
	}
}

func (t *TaintEngine) report(d analysis.Diagnostic) {
	key := fmt.Sprintf("%d:%s", d.Pos, d.Message)
	if t.seen[key] {
		return
	}
	t.seen[key] = true
	t.Findings = append(t.Findings, d)
}

// paramObjs returns the function's parameter variables in summary index
// order: receiver first (when present), then the signature parameters.
func paramObjs(fn *Func) []*types.Var {
	sig := fn.Obj.Type().(*types.Signature)
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// analyze walks one function body, building its summary; when report is
// non-nil, completed concrete flows are delivered to it.
func (t *TaintEngine) analyze(fn *Func, report func(analysis.Diagnostic)) *taintSummary {
	params := paramObjs(fn)
	sum := &taintSummary{
		paramFlow: make([]bool, len(params)),
		paramSink: make([][]analysis.PathStep, len(params)),
	}
	w := &taintWalker{
		t:      t,
		fn:     fn,
		info:   fn.Pkg.TypesInfo,
		state:  map[types.Object]tval{},
		sum:    sum,
		report: report,
	}
	for i, p := range params {
		w.state[p] = tval{par: map[int][]analysis.PathStep{i: nil}}
	}
	w.stmts(fn.Decl.Body.List)
	return sum
}

type taintWalker struct {
	t      *TaintEngine
	fn     *Func
	info   *types.Info
	state  map[types.Object]tval
	sum    *taintSummary
	report func(analysis.Diagnostic)
}

func (w *taintWalker) clone() map[types.Object]tval {
	out := make(map[types.Object]tval, len(w.state))
	for k, v := range w.state {
		out[k] = v
	}
	return out
}

// mergeInto unions the states of two branch walks back into the parent.
func (w *taintWalker) merge(a, b map[types.Object]tval) {
	merged := map[types.Object]tval{}
	for k, v := range a {
		merged[k] = v
	}
	for k, v := range b {
		merged[k] = union(merged[k], v)
	}
	w.state = merged
}

func (w *taintWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *taintWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.eval(s.X)
	case *ast.AssignStmt:
		w.assign(s.Lhs, s.Rhs)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, n := range vs.Names {
						lhs[i] = n
					}
					w.assign(lhs, vs.Values)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			v := w.eval(r)
			if v.conc != nil && w.sum.generates == nil {
				w.sum.generates = v.conc
			}
			for i := range v.par {
				w.sum.paramFlow[i] = true
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.eval(s.Cond)
		parent := w.clone()
		w.stmts(s.Body.List)
		after := w.state
		w.state = parent
		if s.Else != nil {
			w.stmt(s.Else)
		}
		w.merge(w.state, after)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.eval(s.Cond)
		}
		for i := 0; i < 2; i++ { // twice: propagate loop-carried taint
			w.stmts(s.Body.List)
			if s.Post != nil {
				w.stmt(s.Post)
			}
		}
	case *ast.RangeStmt:
		src := w.eval(s.X)
		keyV, valV := src, src
		if typ := w.info.TypeOf(s.X); typ != nil {
			if _, isMap := typ.Underlying().(*types.Map); isMap {
				order := tval{conc: []analysis.PathStep{Step(s.Pos(), "map iteration order (nondeterminism source)")}}
				keyV = union(keyV, order)
				valV = union(valV, order)
			}
		}
		w.bind(s.Key, keyV)
		w.bind(s.Value, valV)
		for i := 0; i < 2; i++ {
			w.stmts(s.Body.List)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.eval(s.Tag)
		}
		w.caseClauses(s.Body.List)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.stmt(s.Assign)
		w.caseClauses(s.Body.List)
	case *ast.SelectStmt:
		multi := len(s.Body.List) >= 2
		parent := w.clone()
		states := []map[types.Object]tval{}
		for _, clause := range s.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			w.state = w.cloneOf(parent)
			if cc.Comm != nil {
				w.stmt(cc.Comm)
				if multi {
					// Which case fired depends on goroutine completion
					// order: values received here are order-tainted.
					w.taintCommVars(cc.Comm, tval{conc: []analysis.PathStep{
						Step(cc.Comm.Pos(), "select arrival order (goroutine fan-in, nondeterminism source)")}})
				}
			}
			w.stmts(cc.Body)
			states = append(states, w.state)
		}
		w.state = parent
		for _, st := range states {
			w.merge(w.state, st)
		}
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.GoStmt:
		w.eval(s.Call)
	case *ast.DeferStmt:
		w.eval(s.Call)
	case *ast.SendStmt:
		w.eval(s.Chan)
		w.eval(s.Value)
	case *ast.IncDecStmt:
		w.eval(s.X)
	}
}

func (w *taintWalker) cloneOf(src map[types.Object]tval) map[types.Object]tval {
	out := make(map[types.Object]tval, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

func (w *taintWalker) caseClauses(list []ast.Stmt) {
	parent := w.clone()
	states := []map[types.Object]tval{}
	for _, clause := range list {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		w.state = w.cloneOf(parent)
		for _, e := range cc.List {
			w.eval(e)
		}
		w.stmts(cc.Body)
		states = append(states, w.state)
	}
	w.state = parent
	for _, st := range states {
		w.merge(w.state, st)
	}
}

// taintCommVars taints the variables assigned by a select comm
// statement (`v := <-ch` / `v, ok := <-ch`).
func (w *taintWalker) taintCommVars(comm ast.Stmt, v tval) {
	if as, ok := comm.(*ast.AssignStmt); ok {
		for _, l := range as.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				if obj := w.objOf(id); obj != nil {
					w.state[obj] = union(w.state[obj], v)
				}
			}
		}
	}
}

func (w *taintWalker) objOf(id *ast.Ident) types.Object {
	if obj := w.info.Defs[id]; obj != nil {
		return obj
	}
	return w.info.Uses[id]
}

// bind assigns a taint value to a range/assign target expression.
func (w *taintWalker) bind(e ast.Expr, v tval) {
	if e == nil {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return
		}
		if obj := w.objOf(e); obj != nil {
			w.state[obj] = v
		}
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		// Field-insensitive: a tainted value stored into x.f (or x[i],
		// *x) taints the root variable x.
		if !v.clean() {
			if root := rootIdent(e); root != nil {
				if obj := w.objOf(root); obj != nil {
					w.state[obj] = union(w.state[obj], v)
				}
			}
		}
	}
}

func (w *taintWalker) assign(lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		v := w.eval(rhs[0])
		for _, l := range lhs {
			w.bind(l, v)
		}
		return
	}
	for i, r := range rhs {
		v := w.eval(r)
		if i < len(lhs) {
			// `x += tainted` keeps x's existing taint too.
			if l, ok := ast.Unparen(lhs[i]).(*ast.Ident); ok {
				if obj := w.objOf(l); obj != nil {
					if old, ok := w.state[obj]; ok && !old.clean() {
						v = union(v, old)
					}
				}
			}
			w.bind(lhs[i], v)
		}
	}
}

func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (w *taintWalker) eval(e ast.Expr) tval {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := w.objOf(e); obj != nil {
			return w.state[obj]
		}
	case *ast.CallExpr:
		return w.call(e)
	case *ast.BinaryExpr:
		return union(w.eval(e.X), w.eval(e.Y))
	case *ast.UnaryExpr:
		return w.eval(e.X)
	case *ast.StarExpr:
		return w.eval(e.X)
	case *ast.SelectorExpr:
		// Field read off a tainted struct, or package-qualified name.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if _, isPkg := w.info.Uses[id].(*types.PkgName); isPkg {
				return tval{}
			}
		}
		return w.eval(e.X)
	case *ast.IndexExpr:
		return union(w.eval(e.X), w.eval(e.Index))
	case *ast.SliceExpr:
		return w.eval(e.X)
	case *ast.TypeAssertExpr:
		return w.eval(e.X)
	case *ast.CompositeLit:
		var v tval
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			v = union(v, w.eval(el))
		}
		return v
	case *ast.FuncLit:
		// A closure is its own scope: walk it for self-contained
		// source→sink flows, but do not track captured-variable taint.
		sub := &taintWalker{
			t: w.t, fn: w.fn, info: w.info,
			state:  map[types.Object]tval{},
			sum:    &taintSummary{},
			report: w.report,
		}
		sub.stmts(e.Body.List)
		return tval{}
	}
	return tval{}
}

// argList pairs a call's effective arguments with the callee's summary
// parameter indices (receiver first). ok is false for shapes the engine
// does not model (method expressions).
func argList(info *types.Info, fn *types.Func, call *ast.CallExpr) ([]ast.Expr, bool) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil, false
	}
	if sig.Recv() == nil {
		return call.Args, true
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	if s, ok := info.Selections[sel]; !ok || s.Kind() != types.MethodVal {
		return nil, false // method expression T.M(recv, ...) — rare, skip
	}
	return append([]ast.Expr{sel.X}, call.Args...), true
}

// paramIndex maps argument position to summary parameter index,
// folding variadic overflow onto the last parameter.
func paramIndex(fn *types.Func, argPos int) int {
	sig := fn.Type().(*types.Signature)
	n := sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	if argPos >= n {
		return n - 1
	}
	return argPos
}

func (w *taintWalker) call(call *ast.CallExpr) tval {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "make", "new", "delete", "clear", "panic", "print", "println":
				for _, a := range call.Args {
					w.eval(a)
				}
				return tval{}
			default: // append, copy, min, max, complex, real, imag
				var v tval
				for _, a := range call.Args {
					v = union(v, w.eval(a))
				}
				return v
			}
		}
	}

	fn := CalleeFunc(w.info, call)
	if fn == nil {
		// Function value or interface dispatch: propagate argument and
		// callee-expression taint conservatively.
		v := w.eval(call.Fun)
		for _, a := range call.Args {
			v = union(v, w.eval(a))
		}
		return v
	}

	// Sanitizers launder their argument (sort.Strings(keys)) and their
	// result (slices.Sorted(maps.Keys(m))).
	kind, name := Std(fn)
	if w.t.sanitize[fn] || kind == Sorts {
		for _, a := range call.Args {
			w.eval(a)
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if obj := w.objOf(id); obj != nil {
					w.state[obj] = tval{}
				}
			}
		}
		return tval{}
	}

	// Sources.
	if reason, ok := w.t.sources[fn]; ok {
		for _, a := range call.Args {
			w.eval(a)
		}
		return tval{conc: []analysis.PathStep{
			Step(call.Pos(), "annotated source %s (%s)", FuncName(fn), reason)}}
	}
	if desc, ok := stdSource(kind, name); ok {
		for _, a := range call.Args {
			w.eval(a)
		}
		return tval{conc: []analysis.PathStep{Step(call.Pos(), "nondeterminism source: %s", desc)}}
	}

	args, shaped := argList(w.info, fn, call)
	if !shaped {
		var v tval
		for _, a := range call.Args {
			v = union(v, w.eval(a))
		}
		return v
	}

	sinkReason, isSink := w.t.sinks[fn]
	sum := w.t.sums[fn] // non-nil only for program funcs already summarized
	var result tval
	for pos, arg := range args {
		av := w.eval(arg)
		if av.clean() {
			continue
		}
		i := paramIndex(fn, pos)
		// Does parameter i reach a sink in (or below) the callee?
		var sinkTrace []analysis.PathStep
		reached := false
		if isSink {
			reached = true
			sinkTrace = []analysis.PathStep{Step(call.Pos(), "into sink %s (%s)", FuncName(fn), sinkReason)}
		} else if sum != nil && sum.paramSink[i] != nil {
			reached = true
			sinkTrace = AppendPath(
				[]analysis.PathStep{Step(call.Pos(), "passed to %s", FuncName(fn))},
				sum.paramSink[i]...)
		}
		if reached {
			if av.conc != nil && w.report != nil {
				w.report(analysis.Diagnostic{
					Pos: arg.Pos(),
					Message: fmt.Sprintf("nondeterministic value reaches determinism-critical sink %s; derive it from seeded/injected state or sort before emitting",
						sinkName(fn, sum, i, isSink)),
					Path: AppendPath(av.conc, sinkTrace...),
				})
			}
			for pi, tr := range av.par {
				if w.sum.paramSink[pi] == nil {
					w.sum.paramSink[pi] = AppendPath(tr, sinkTrace...)
				}
			}
		}
		// Value flow through the callee into its results.
		if sum != nil && i < len(sum.paramFlow) && sum.paramFlow[i] {
			result = union(result, av)
		} else if sum == nil {
			// No summary (stdlib, extern): conservative propagation.
			result = union(result, av)
		}
	}
	if sum != nil && sum.generates != nil {
		result = union(result, tval{conc: AppendPath(
			[]analysis.PathStep{Step(call.Pos(), "returned by %s", FuncName(fn))},
			sum.generates...)})
	}
	return result
}

// sinkName renders the sink a flow terminates in: the annotated callee
// itself, or the transitive sink its summary path ends at.
func sinkName(fn *types.Func, sum *taintSummary, i int, direct bool) string {
	if direct {
		return FuncName(fn)
	}
	if sum != nil && sum.paramSink[i] != nil {
		last := sum.paramSink[i][len(sum.paramSink[i])-1]
		if idx := strings.Index(last.Note, "into sink "); idx >= 0 {
			name := last.Note[idx+len("into sink "):]
			if j := strings.Index(name, " ("); j >= 0 {
				name = name[:j]
			}
			return name + " (via " + FuncName(fn) + ")"
		}
	}
	return "(via " + FuncName(fn) + ")"
}

// stdSource describes a table entry whose result differs across runs;
// ok is false for the kinds that produce no tainted value.
func stdSource(kind StdKind, name string) (string, bool) {
	switch kind {
	case ClockRead:
		return name, true
	case GlobalRand:
		return name + " (global auto-seeded RNG)", true
	case MapOrder:
		return name + " (map iteration order)", true
	}
	return "", false
}
