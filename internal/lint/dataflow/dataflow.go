// Package dataflow is the whole-program substrate under the llbplint
// interprocedural analyzers (detflow, fencecheck, lockorder): a call
// graph plus per-function summaries built over go/ast and go/types with
// no dependency outside the standard library, mirroring how the
// per-package suite reimplements go/analysis (see internal/lint/analysis).
//
// A Program is built from the packages of one analysis.ProgramPass. The
// load path guarantees a unified type-object universe — a *types.Func
// seen through an import is the same object as its definition — so
// facts attach to *types.Func keys and compose across package
// boundaries.
//
// The analysis spec lives next to the code as annotation directives in
// doc comments:
//
//	//llbplint:source -- <why this function's results are nondeterministic>
//	//llbplint:sink -- <why this function's arguments must be deterministic>
//	//llbplint:sanitizer -- <why this function's results are order-clean>
//	//llbplint:worker -- <why this function runs on a worker goroutine>
//	//llbplint:leased -- <why writes to this type must be epoch-fenced>
//	//llbplint:fence -- <why this function may mutate leased state freely>
//
// source/sink/sanitizer feed detflow's taint analysis; worker, leased
// and fence feed fencecheck. The justification after " -- " is
// mandatory, exactly as for //llbplint:allow: an unexplained annotation
// is itself reported.
package dataflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"llbp/internal/lint/analysis"
)

// Annotation kinds.
const (
	KindSource    = "source"
	KindSink      = "sink"
	KindSanitizer = "sanitizer"
	KindWorker    = "worker"
	KindLeased    = "leased"
	KindFence     = "fence"
)

// An Annotation is one parsed //llbplint:<kind> directive.
type Annotation struct {
	Kind   string
	Reason string
	Pos    token.Pos
}

// A Func is one function or method declared with a body somewhere in
// the program.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *analysis.ProgramPkg
	// Callees are the statically resolved call targets within the body
	// (function literals included), restricted to functions that also
	// have bodies in the program.
	Callees []*Func
}

// Name renders the function for diagnostics: pkg.Func or
// (*pkg.Type).Method.
func (f *Func) Name() string { return FuncName(f.Obj) }

// FuncName renders any *types.Func for diagnostics.
func FuncName(fn *types.Func) string {
	if fn == nil {
		return "<unknown>"
	}
	sig, _ := fn.Type().(*types.Signature)
	pkg := ""
	if fn.Pkg() != nil {
		pkg = lastSegment(fn.Pkg().Path()) + "."
	}
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("(%s%s%s).%s", ptr, pkg, named.Obj().Name(), fn.Name())
		}
	}
	return pkg + fn.Name()
}

func lastSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// A Program is the analyzed package set with its call graph and
// annotation index.
type Program struct {
	Fset *token.FileSet
	Pkgs []*analysis.ProgramPkg

	// Funcs indexes every declared function with a body.
	Funcs map[*types.Func]*Func
	// FuncAnnos and TypeAnnos hold the parsed annotation directives.
	FuncAnnos map[*types.Func][]Annotation
	TypeAnnos map[*types.TypeName][]Annotation
	// Problems are malformed annotations (missing " -- reason").
	Problems []analysis.Diagnostic

	ordered []*Func // deterministic order: by source position
}

// Build constructs the program graph for a ProgramPass's packages.
func Build(fset *token.FileSet, pkgs []*analysis.ProgramPkg) *Program {
	p := &Program{
		Fset:      fset,
		Pkgs:      pkgs,
		Funcs:     map[*types.Func]*Func{},
		FuncAnnos: map[*types.Func][]Annotation{},
		TypeAnnos: map[*types.TypeName][]Annotation{},
	}
	// Pass 1: index declarations and annotations.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, ok := pkg.TypesInfo.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					if d.Body != nil {
						p.Funcs[fn] = &Func{Obj: fn, Decl: d, Pkg: pkg}
					}
					p.FuncAnnos[fn] = append(p.FuncAnnos[fn], p.parseAnnos(d.Doc)...)
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					declAnnos := p.parseAnnos(d.Doc)
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						tn, ok := pkg.TypesInfo.Defs[ts.Name].(*types.TypeName)
						if !ok {
							continue
						}
						annos := append(append([]Annotation(nil), declAnnos...), p.parseAnnos(ts.Doc)...)
						if len(annos) > 0 {
							p.TypeAnnos[tn] = append(p.TypeAnnos[tn], annos...)
						}
					}
				}
			}
		}
	}
	// Pass 2: resolve the call graph.
	for _, fn := range p.Funcs {
		fnLocal := fn
		seen := map[*Func]bool{}
		ast.Inspect(fnLocal.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := p.ResolveCall(fnLocal.Pkg.TypesInfo, call); callee != nil && !seen[callee] {
				seen[callee] = true
				fnLocal.Callees = append(fnLocal.Callees, callee)
			}
			return true
		})
		sort.Slice(fnLocal.Callees, func(i, j int) bool {
			return fnLocal.Callees[i].Decl.Pos() < fnLocal.Callees[j].Decl.Pos()
		})
	}
	for _, fn := range p.Funcs {
		p.ordered = append(p.ordered, fn)
	}
	sort.Slice(p.ordered, func(i, j int) bool { return p.ordered[i].Decl.Pos() < p.ordered[j].Decl.Pos() })
	return p
}

// OrderedFuncs returns every program function sorted by position — the
// deterministic iteration order all engines use.
func (p *Program) OrderedFuncs() []*Func { return p.ordered }

// ResolveCall returns the program Func a call statically targets, or
// nil (interface dispatch, function values, stdlib, builtins).
func (p *Program) ResolveCall(info *types.Info, call *ast.CallExpr) *Func {
	if fn := CalleeFunc(info, call); fn != nil {
		return p.Funcs[fn]
	}
	return nil
}

// CalleeFunc resolves a call's static *types.Func target, if any; a
// generic function's instantiation resolves to its declaration.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}

const annoPrefix = "llbplint:"

// parseAnnos extracts annotation directives from a doc comment.
func (p *Program) parseAnnos(doc *ast.CommentGroup) []Annotation {
	if doc == nil {
		return nil
	}
	var out []Annotation
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, annoPrefix) {
			continue
		}
		rest := strings.TrimPrefix(text, annoPrefix)
		kind := rest
		var tail string
		if i := strings.IndexAny(rest, " \t"); i >= 0 {
			kind, tail = rest[:i], strings.TrimSpace(rest[i:])
		}
		switch kind {
		case KindSource, KindSink, KindSanitizer, KindWorker, KindLeased, KindFence:
		default:
			continue // allow directives and unknown kinds are not ours
		}
		reason := ""
		if i := strings.Index(tail, "--"); i >= 0 {
			reason = strings.TrimSpace(tail[i+2:])
		}
		if reason == "" {
			p.Problems = append(p.Problems, analysis.Diagnostic{
				Pos:      c.Pos(),
				Category: analysis.DirectiveCategory,
				Message:  fmt.Sprintf("annotation missing justification; use //llbplint:%s -- <reason>", kind),
			})
			continue
		}
		out = append(out, Annotation{Kind: kind, Reason: reason, Pos: c.Pos()})
	}
	return out
}

// FuncHasAnno reports whether fn carries an annotation of the kind.
func (p *Program) FuncHasAnno(fn *types.Func, kind string) bool {
	for _, a := range p.FuncAnnos[fn] {
		if a.Kind == kind {
			return true
		}
	}
	return false
}

// LeasedTypes returns the type names annotated //llbplint:leased.
func (p *Program) LeasedTypes() map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for tn, annos := range p.TypeAnnos {
		for _, a := range annos {
			if a.Kind == KindLeased {
				out[tn] = true
			}
		}
	}
	return out
}

// SCCs returns the call graph's strongly connected components in
// bottom-up (callee-first) order, so summary engines can run one
// fixpoint per component.
func (p *Program) SCCs() [][]*Func {
	// Tarjan, iterative over the deterministic function order.
	index := map[*Func]int{}
	low := map[*Func]int{}
	onStack := map[*Func]bool{}
	var stack []*Func
	var sccs [][]*Func
	next := 0

	var strongconnect func(v *Func)
	strongconnect = func(v *Func) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range v.Callees {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*Func
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, fn := range p.ordered {
		if _, seen := index[fn]; !seen {
			strongconnect(fn)
		}
	}
	return sccs // Tarjan emits components in reverse topological order: callees first
}

// GoRoots returns the functions launched on their own goroutines via
// `go` statements anywhere in the program, plus functions annotated
// //llbplint:worker. A `go func() {...}()` spawn contributes the named
// functions its literal body calls.
func (p *Program) GoRoots() []*Func {
	seen := map[*Func]bool{}
	add := func(fn *Func) {
		if fn != nil {
			seen[fn] = true
		}
	}
	for _, fn := range p.ordered {
		pkg := fn.Pkg
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						add(p.ResolveCall(pkg.TypesInfo, call))
					}
					return true
				})
				return true
			}
			add(p.ResolveCall(pkg.TypesInfo, g.Call))
			return true
		})
	}
	for fn, f := range p.Funcs {
		if p.FuncHasAnno(fn, KindWorker) {
			seen[f] = true
		}
	}
	var out []*Func
	for fn := range seen {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

// Step builds one evidence-path hop.
func Step(pos token.Pos, format string, args ...any) analysis.PathStep {
	return analysis.PathStep{Pos: pos, Note: fmt.Sprintf(format, args...)}
}

// maxPathSteps bounds evidence chains so deep call stacks stay readable.
const maxPathSteps = 12

// AppendPath concatenates evidence chains under the global cap.
func AppendPath(base []analysis.PathStep, more ...analysis.PathStep) []analysis.PathStep {
	out := append(append([]analysis.PathStep(nil), base...), more...)
	if len(out) > maxPathSteps {
		out = out[:maxPathSteps]
	}
	return out
}
