package dataflow

// Lock-acquisition-order analysis (the lockorder analyzer's engine).
//
// The engine abstracts every sync.Mutex/sync.RWMutex acquisition to a
// *lock key*: `pkg.Type.field` for a mutex stored in a named struct
// (all instances of job.mu are one lock class for ordering purposes),
// `pkg.var` for a package-level mutex, and the receiver expression text
// as a last resort for locals. Walking each function in statement
// order with a held-set, it records a directed edge A→B whenever B is
// acquired while A is held — including acquisitions made by callees,
// via bottom-up summaries, so nested critical sections compose across
// the call graph.
//
// Three diagnostics come out of the edge set:
//   - a cycle in the acquisition graph (the classic AB/BA deadlock),
//     reported once per cycle with both directions' evidence;
//   - a self-edge — re-acquiring a lock class already held;
//   - a telemetry instrument update (Counter.Inc and friends) executed
//     while any lock is held, directly or through a call chain. This
//     supersedes the syntactic telemetrysafe hot-path rule, which only
//     saw updates lexically between Lock and Unlock in one body.
//
// Deliberate imprecision: keys are per-class, not per-instance, so
// locking two different jobs' mu in sequence looks like a self-edge —
// in this codebase that pattern appears only in the scheduler's
// ordered two-job comparisons and is annotated where intended. Defers
// are treated as releasing at function end (the held-set is not popped
// by a deferred Unlock), matching how the critical sections actually
// extend.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"llbp/internal/lint/analysis"
)

// lockEdge is one observed A-held→B-acquired ordering with evidence.
type lockEdge struct {
	from, to string
	steps    []analysis.PathStep
	pos      token.Pos
}

// updRec is one telemetry update observed under a held lock.
type updRec struct {
	pos   token.Pos
	under string // lock key held at the update
	what  string // instrument method, e.g. "Counter.Inc"
	steps []analysis.PathStep
}

// lockSummary is one function's externally visible locking behavior:
// the lock classes it (transitively) acquires and the telemetry updates
// it (transitively) performs, assuming no locks held on entry.
type lockSummary struct {
	acquires map[string][]analysis.PathStep
	updates  []updRec // under == "" for updates not under a callee-held lock
}

// LockEngine derives the acquisition graph; Findings carries cycles,
// self-edges and under-lock telemetry updates after Run.
type LockEngine struct {
	prog *Program
	// inScope restricts walking to packages the analyzer cares about
	// (service + telemetry); nil means every package.
	inScope  func(pkgPath string) bool
	sums     map[*types.Func]*lockSummary
	edges    []lockEdge
	Findings []analysis.Diagnostic
}

func NewLockEngine(prog *Program, inScope func(pkgPath string) bool) *LockEngine {
	return &LockEngine{prog: prog, inScope: inScope, sums: map[*types.Func]*lockSummary{}}
}

func (e *LockEngine) scoped(fn *Func) bool {
	return e.inScope == nil || e.inScope(fn.Pkg.Path)
}

// Run computes summaries bottom-up, collecting edges and under-lock
// updates, then reports cycles over the global edge set.
func (e *LockEngine) Run() {
	for _, scc := range e.prog.SCCs() {
		for round := 0; round < 2; round++ {
			for _, fn := range scc {
				if !e.scoped(fn) {
					continue
				}
				e.sums[fn.Obj] = e.summarize(fn, round == 0 || len(scc) == 1)
			}
			if len(scc) == 1 {
				break
			}
		}
	}
	e.reportCycles()
}

// summarize walks one function with an empty held-set. On the final
// round (emit=true) it also records global edges and update findings;
// earlier fixpoint rounds only build the summary.
func (e *LockEngine) summarize(fn *Func, emit bool) *lockSummary {
	sum := &lockSummary{acquires: map[string][]analysis.PathStep{}}
	w := &lockWalker{e: e, fn: fn, info: fn.Pkg.TypesInfo, sum: sum, emit: emit}
	w.stmts(fn.Decl.Body.List)
	return sum
}

type lockWalker struct {
	e    *LockEngine
	fn   *Func
	info *types.Info
	sum  *lockSummary
	emit bool
	held []string // acquisition-ordered lock keys currently held
}

func (w *lockWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *lockWalker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			w.expr(r)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		// Each branch walks with a copy of the held-set: an Unlock (or
		// Lock) inside a branch affects that branch only, never the
		// fall-through path.
		saved := w.snapshot()
		w.stmts(s.Body.List)
		w.restore(saved)
		if s.Else != nil {
			w.stmt(s.Else)
			w.restore(saved)
		}
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		saved := w.snapshot()
		w.stmts(s.Body.List)
		w.restore(saved)
	case *ast.RangeStmt:
		w.expr(s.X)
		saved := w.snapshot()
		w.stmts(s.Body.List)
		w.restore(saved)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var body *ast.BlockStmt
		switch ss := s.(type) {
		case *ast.SwitchStmt:
			body = ss.Body
		case *ast.TypeSwitchStmt:
			body = ss.Body
		case *ast.SelectStmt:
			body = ss.Body
		}
		saved := w.snapshot()
		for _, c := range body.List {
			switch cc := c.(type) {
			case *ast.CaseClause:
				w.stmts(cc.Body)
			case *ast.CommClause:
				w.stmts(cc.Body)
			}
			w.restore(saved)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.GoStmt:
		// A goroutine body does not run under the spawner's held-set:
		// walk its arguments (evaluated now), then a closure body as
		// its own fresh lock scope. Named functions launched here are
		// covered when they themselves are summarized.
		for _, a := range s.Call.Args {
			w.expr(a)
		}
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			w.subWalk(lit)
		}
	case *ast.DeferStmt:
		// A deferred Unlock releases at function end; modeling it as
		// "never released during the body" is exactly right for edge
		// collection. Deferred calls other than unlocks are walked.
		if !w.isUnlock(s.Call) {
			w.expr(s.Call)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.expr(r)
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	}
}

func (w *lockWalker) snapshot() []string {
	return append([]string(nil), w.held...)
}

func (w *lockWalker) restore(saved []string) {
	w.held = append(w.held[:0:0], saved...)
}

// subWalk analyzes a closure body as its own lock scope: it may run
// later on another goroutine, so the enclosing held-set does not apply,
// and its acquisitions do not join the enclosing summary — but its own
// internal edges and under-lock updates are still collected.
func (w *lockWalker) subWalk(lit *ast.FuncLit) {
	sub := &lockWalker{
		e: w.e, fn: w.fn, info: w.info,
		sum:  &lockSummary{acquires: map[string][]analysis.PathStep{}},
		emit: w.emit,
	}
	sub.stmts(lit.Body.List)
}

func (w *lockWalker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			w.call(n)
			return false
		case *ast.FuncLit:
			w.subWalk(n)
			return false
		}
		return true
	})
}

func (w *lockWalker) call(call *ast.CallExpr) {
	for _, a := range call.Args {
		w.expr(a)
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		w.subWalk(lit)
		return
	}
	if key, kind := w.lockOp(call); key != "" {
		switch kind {
		case "acquire":
			w.acquire(key, call.Pos())
		case "release":
			// Release the most recent matching acquisition.
			for i := len(w.held) - 1; i >= 0; i-- {
				if w.held[i] == key {
					w.held = append(w.held[:i], w.held[i+1:]...)
					break
				}
			}
		}
		return
	}
	if typ, method, ok := InstrumentUpdate(w.info, call); ok {
		w.update(call.Pos(), typ+"."+method, nil)
		return
	}
	callee := CalleeFunc(w.info, call)
	if callee == nil {
		return
	}
	if sum := w.e.sums[callee]; sum != nil {
		// The callee's acquisitions happen with our held-set active.
		keys := make([]string, 0, len(sum.acquires))
		for k := range sum.acquires {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			steps := AppendPath(
				[]analysis.PathStep{Step(call.Pos(), "calls %s", FuncName(callee))},
				sum.acquires[k]...)
			w.acquireSummarized(k, call.Pos(), steps)
		}
		for _, u := range sum.updates {
			w.update(call.Pos(), u.what, AppendPath(
				[]analysis.PathStep{Step(call.Pos(), "calls %s", FuncName(callee))},
				u.steps...))
		}
	}
}

// acquire records a directly acquired lock: edges from everything held,
// then push.
func (w *lockWalker) acquire(key string, pos token.Pos) {
	steps := []analysis.PathStep{Step(pos, "acquires %s in %s", key, w.fn.Name())}
	if _, ok := w.sum.acquires[key]; !ok {
		w.sum.acquires[key] = steps
	}
	w.edgesTo(key, pos, steps)
	w.held = append(w.held, key)
}

// acquireSummarized records a callee-transitive acquisition: edges from
// the held-set, but the held-set itself does not grow (the callee
// releases before returning, or its own walk already flagged it).
func (w *lockWalker) acquireSummarized(key string, pos token.Pos, steps []analysis.PathStep) {
	if _, ok := w.sum.acquires[key]; !ok {
		w.sum.acquires[key] = steps
	}
	w.edgesTo(key, pos, steps)
}

func (w *lockWalker) edgesTo(key string, pos token.Pos, steps []analysis.PathStep) {
	if !w.emit {
		return
	}
	for _, h := range w.held {
		w.e.edges = append(w.e.edges, lockEdge{
			from: h, to: key, pos: pos,
			steps: AppendPath(
				[]analysis.PathStep{Step(pos, "while holding %s", h)},
				steps...),
		})
	}
}

// update records a telemetry instrument update, reporting it when a
// lock is held here.
func (w *lockWalker) update(pos token.Pos, what string, chain []analysis.PathStep) {
	if len(chain) == 0 {
		chain = []analysis.PathStep{Step(pos, "%s update in %s", what, w.fn.Name())}
	}
	w.sum.updates = append(w.sum.updates, updRec{pos: pos, what: what, steps: chain})
	if w.emit && len(w.held) > 0 {
		under := w.held[len(w.held)-1]
		w.e.Findings = append(w.e.Findings, analysis.Diagnostic{
			Pos: pos,
			Message: fmt.Sprintf("telemetry %s update while holding %s; instrument updates are lock-free — move this outside the critical section",
				what, under),
			Path: AppendPath(
				[]analysis.PathStep{Step(pos, "holding %s", under)},
				chain...),
		})
	}
}

// lockOp classifies a call as a mutex acquire/release and derives the
// lock key.
func (w *lockWalker) lockOp(call *ast.CallExpr) (key, kind string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = "acquire"
	case "Unlock", "RUnlock":
		kind = "release"
	default:
		return "", ""
	}
	recv := w.info.TypeOf(sel.X)
	if recv == nil || !isMutex(recv) {
		return "", ""
	}
	return w.lockKey(sel.X), kind
}

func isMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockKey abstracts the mutex expression to a lock class:
// pkg.Type.field for struct-held mutexes, pkg.var for package-level
// ones, the expression text otherwise.
func (w *lockWalker) lockKey(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if t := w.info.TypeOf(x.X); t != nil {
			tt := t
			if p, ok := tt.Underlying().(*types.Pointer); ok {
				tt = p.Elem()
			}
			if named, ok := tt.(*types.Named); ok {
				obj := named.Obj()
				pkg := ""
				if obj.Pkg() != nil {
					pkg = lastSegment(obj.Pkg().Path()) + "."
				}
				return pkg + obj.Name() + "." + x.Sel.Name
			}
		}
		return exprText(x)
	case *ast.Ident:
		if obj := w.info.Uses[x]; obj != nil {
			if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return lastSegment(v.Pkg().Path()) + "." + v.Name()
			}
		}
		return x.Name
	}
	return exprText(e)
}

func (w *lockWalker) isUnlock(call *ast.CallExpr) bool {
	_, kind := w.lockOp(call)
	return kind == "release"
}

// instrumentTypes are the nil-safe instrument and factory types of the
// telemetry package. Snapshot and DTO types are plain data and exempt.
var instrumentTypes = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true,
	"Series": true, "Registry": true, "Tracer": true,
}

// Instrument reports whether t, possibly behind pointers, is an
// instrument or factory type declared in a package whose import path
// ends in "telemetry", and names the type. It and InstrumentUpdate are
// the one instrument classifier lockorder and telemetrysafe share.
func Instrument(t types.Type) (string, bool) {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || lastSegment(obj.Pkg().Path()) != "telemetry" || !instrumentTypes[obj.Name()] {
		return "", false
	}
	return obj.Name(), true
}

// InstrumentUpdate reports whether call mutates a telemetry instrument
// (Inc/Add/Set/Observe/Append on an Instrument type), naming the type
// and the method.
func InstrumentUpdate(info *types.Info, call *ast.CallExpr) (typ, method string, ok bool) {
	fn := CalleeFunc(info, call)
	if fn == nil {
		return "", "", false
	}
	switch fn.Name() {
	case "Inc", "Add", "Set", "Observe", "Append":
	default:
		return "", "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", "", false
	}
	typ, ok = Instrument(recv.Type())
	return typ, fn.Name(), ok
}

func exprText(e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		b.WriteString(x.Name)
	case *ast.SelectorExpr:
		writeExpr(b, x.X)
		b.WriteByte('.')
		b.WriteString(x.Sel.Name)
	case *ast.StarExpr:
		writeExpr(b, x.X)
	case *ast.ParenExpr:
		writeExpr(b, x.X)
	case *ast.IndexExpr:
		writeExpr(b, x.X)
		b.WriteString("[...]")
	default:
		b.WriteString("?")
	}
}

type edgeInfo struct {
	steps []analysis.PathStep
	pos   token.Pos
}

// reportCycles finds cycles in the acquisition-order graph and reports
// each once, plus self-edges.
func (e *LockEngine) reportCycles() {
	adj := map[string]map[string]edgeInfo{}
	for _, ed := range e.edges {
		if adj[ed.from] == nil {
			adj[ed.from] = map[string]edgeInfo{}
		}
		if _, ok := adj[ed.from][ed.to]; !ok {
			adj[ed.from][ed.to] = edgeInfo{steps: ed.steps, pos: ed.pos}
		}
	}
	// Self-edges: a lock class re-acquired while held.
	reportedSelf := map[string]bool{}
	for _, ed := range e.edges {
		if ed.from == ed.to && !reportedSelf[ed.from] {
			reportedSelf[ed.from] = true
			e.Findings = append(e.Findings, analysis.Diagnostic{
				Pos: ed.pos,
				Message: fmt.Sprintf("lock %s acquired while already held (self-deadlock on a non-reentrant mutex)",
					ed.from),
				Path: ed.steps,
			})
		}
	}
	// Two-lock (and longer, via pairwise reachability) cycles: report
	// each unordered pair {A,B} with A→B and B→…→A once.
	keys := make([]string, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	reported := map[string]bool{}
	for _, a := range keys {
		for b, info := range adj[a] {
			if a == b || !reaches(adj, b, a) {
				continue
			}
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			pairKey := lo + "|" + hi
			if reported[pairKey] {
				continue
			}
			reported[pairKey] = true
			var back []analysis.PathStep
			if bi, ok := adj[b][a]; ok {
				back = bi.steps
			}
			e.Findings = append(e.Findings, analysis.Diagnostic{
				Pos: info.pos,
				Message: fmt.Sprintf("lock-order cycle between %s and %s; acquire these locks in one consistent order",
					lo, hi),
				Path: AppendPath(info.steps, back...),
			})
		}
	}
}

// reaches reports whether `from` reaches `to` in the acquisition graph.
func reaches(adj map[string]map[string]edgeInfo, from, to string) bool {
	seen := map[string]bool{}
	var dfs func(n string) bool
	dfs = func(n string) bool {
		if n == to {
			return true
		}
		if seen[n] {
			return false
		}
		seen[n] = true
		for next := range adj[n] {
			if dfs(next) {
				return true
			}
		}
		return false
	}
	return dfs(from)
}
