package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"llbp/internal/lint/analysis"
	"llbp/internal/lint/dataflow"
)

// Hotpath walks the static call graph from the per-branch entry points —
// the Predict and UpdateWithTarget methods of a type named Predictor in
// a package whose import path ends in "core", and the Step method of a
// type named Stepper in a package ending in "sim" (the replay step every
// driver shares) — and reports every allocation and every map operation
// reachable from them:
//
//   - make / new / append builtins, &T{...} literals, slice and map
//     composite literals, closures, string concatenation, and
//     string<->[]byte/[]rune conversions (allocation);
//   - map index reads and writes, range-over-map, delete (map access —
//     both an allocation risk on growth and a hash+probe per branch).
//
// The packed hot-path layouts (history.Engine words, pattern-set lanes,
// the CD/PB compare lanes) exist precisely so the steady-state per-branch
// work is flat array arithmetic; this analyzer keeps allocations and map
// probes from creeping back in behind a call boundary. Cold layers
// reachable from the entry points but off the steady state — miss-driven
// structure growth, the fully associative ablations — carry
// //llbplint:allow hotpath justifications at the site; anything new
// fails the run. The assert package is exempt: its failure formatting is
// the designated can't-happen path and is debug-gated.
//
// Findings carry the root→site call chain in Diagnostic.Path.
var Hotpath = &analysis.Analyzer{
	Name:       "hotpath",
	Doc:        "no allocation or map access reachable from core.Predictor.Predict/UpdateWithTarget or sim.Stepper.Step (call-graph depth)",
	RunProgram: runHotpath,
}

// hotpathRoots are the per-branch entry points, keyed
// "<package>.<type>.<method>" by the last segment of the package's
// import path.
var hotpathRoots = map[string]bool{
	"core.Predictor.Predict":          true,
	"core.Predictor.UpdateWithTarget": true,
	"sim.Stepper.Step":                true,
}

func runHotpath(pass *analysis.ProgramPass) error {
	prog := dataflow.Build(pass.Fset, pass.Packages)

	// Seed the worklist with the entry points, in deterministic order.
	type visit struct {
		fn   *dataflow.Func
		path []analysis.PathStep
	}
	var queue []visit
	seen := map[*dataflow.Func]bool{}
	for _, f := range prog.OrderedFuncs() {
		if !isHotpathRoot(f.Obj) {
			continue
		}
		seen[f] = true
		queue = append(queue, visit{fn: f, path: []analysis.PathStep{
			dataflow.Step(f.Decl.Name.Pos(), "hot-path root %s", f.Name()),
		}})
	}

	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		reportHotpathSites(pass, v.fn, v.path)
		for _, callee := range v.fn.Callees {
			if seen[callee] || hotpathExempt(callee) {
				continue
			}
			seen[callee] = true
			queue = append(queue, visit{
				fn:   callee,
				path: dataflow.AppendPath(v.path, dataflow.Step(callee.Decl.Name.Pos(), "calls %s", callee.Name())),
			})
		}
	}
	return nil
}

// isHotpathRoot reports whether fn is one of hotpathRoots.
func isHotpathRoot(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && hotpathRoots[lastSegment(fn.Pkg().Path())+"."+named.Obj().Name()+"."+fn.Name()]
}

// hotpathExempt cuts traversal at packages whose bodies are off the
// contract: assert's failure formatting is the designated can't-happen
// path (no-op in release builds for the Failf family).
func hotpathExempt(f *dataflow.Func) bool {
	return f.Obj.Pkg() != nil && lastSegment(f.Obj.Pkg().Path()) == "assert"
}

// reportHotpathSites scans one reachable function body for allocation
// and map-access sites.
func reportHotpathSites(pass *analysis.ProgramPass, fn *dataflow.Func, path []analysis.PathStep) {
	info := fn.Pkg.TypesInfo
	report := func(pos token.Pos, format string, args ...any) {
		d := analysis.Diagnostic{Pos: pos, Path: path}
		d.Message = fmt.Sprintf("hot path (%s): %s", fn.Name(), fmt.Sprintf(format, args...))
		pass.Report(d)
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := info.Uses[id].(*types.Builtin); ok {
					switch b.Name() {
					case "make", "new", "append":
						report(n.Pos(), "allocates (%s)", b.Name())
					case "delete":
						report(n.Pos(), "map access (delete)")
					}
					return true
				}
			}
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
				if allocatingConversion(tv.Type, info.TypeOf(n.Args[0])) {
					report(n.Pos(), "allocates (string/slice conversion)")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "allocates (&composite literal)")
				}
			}
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				report(n.Pos(), "allocates (slice literal)")
			case *types.Map:
				report(n.Pos(), "allocates (map literal)")
			}
		case *ast.FuncLit:
			report(n.Pos(), "allocates (closure)")
			return false // the literal's body is not on this call path unless invoked
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringType(info.TypeOf(n)) {
				report(n.Pos(), "allocates (string concatenation)")
			}
		case *ast.IndexExpr:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
				report(n.Pos(), "map access (index)")
			}
		case *ast.RangeStmt:
			if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
				report(n.X.Pos(), "map access (range)")
			}
		}
		return true
	})
}

// allocatingConversion reports string<->[]byte / []rune conversions,
// which copy their operand.
func allocatingConversion(dst, src types.Type) bool {
	if dst == nil || src == nil {
		return false
	}
	dstStr, srcStr := isStringType(dst), isStringType(src)
	_, dstSlice := dst.Underlying().(*types.Slice)
	_, srcSlice := src.Underlying().(*types.Slice)
	return (dstStr && srcSlice) || (srcStr && dstSlice)
}
