package lint

import (
	"go/ast"
	"go/types"

	"llbp/internal/lint/analysis"
	"llbp/internal/lint/dataflow"
)

// Determinism flags nondeterminism sources inside simulation packages:
// wall-clock reads and waits, global math/rand state, and loops that
// follow map order, whether they range over the map itself or over
// maps.Keys/maps.Values output that no sort has ordered. Simulation
// results must be a pure function of (workload seed, predictor config),
// or the paper's experiment tables stop being reproducible. The stdlib
// calls come from dataflow.Std, the table detflow's taint reads too.
//
// Service packages (import-path segment "service") live in wall-clock
// land (Retry-After backoff, snapshot timestamps, drain deadlines), so
// only one rule applies there: no time.Sleep and no global RNG draw.
// Failure timing and chaos randomness have to be injectable
// (Options.Now, seeded streams) so a scenario replays from its seed,
// and a sleep blocks with no context escape and no way for tests to
// accelerate it. internal/chaos is a simulation package by this
// definition and gets every rule.
//
// Other packages are exempt when their path has one of these segments:
// cmd (drivers report wall-clock progress), harness (deadlines and
// backoff jitter are wall-clock by design), telemetry (the tracer
// timestamps events), session (the streaming serving layer shares
// service's clock discipline: lease TTLs and write deadlines are
// wall-clock, while everything that feeds the journal or the output log
// stays input-derived, and detflow enforces that boundary), and lint
// itself.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall clocks, global RNG and map-order loops in simulation packages, and time.Sleep and global RNG in service packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *analysis.Pass) error {
	service := hasSegment(pass.Pkg.Path(), "service")
	if !service && hasSegment(pass.Pkg.Path(), "cmd", "harness", "telemetry", "session", "lint") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkStdCall(pass, n, service)
			case *ast.RangeStmt:
				if !service {
					checkMapOrder(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkStdCall reports a use of a table function the package's scope
// forbids.
func checkStdCall(pass *analysis.Pass, sel *ast.SelectorExpr, service bool) {
	fn, _ := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	kind, name := dataflow.Std(fn)
	switch {
	case kind == dataflow.GlobalRand:
		pass.Reportf(sel.Pos(),
			"%s uses the global auto-seeded RNG; use a rand.New(rand.NewSource(seed)) owned by the component", name)
	case service:
		if kind == dataflow.ClockSleep {
			pass.Reportf(sel.Pos(),
				"time.Sleep blocks on the wall clock with no context escape; select on a timer and ctx.Done(), or derive the moment from the injected clock (Options.Now)")
		}
	case kind == dataflow.ClockRead || kind == dataflow.ClockTimer || kind == dataflow.ClockSleep:
		pass.Reportf(sel.Pos(),
			"%s depends on the wall clock; simulation packages must be deterministic (derive timing from the cycle model)", name)
	}
}

// checkMapOrder reports a loop whose visiting order is a map's, unless
// its body cannot observe the order.
func checkMapOrder(pass *analysis.Pass, r *ast.RangeStmt) {
	if orderInsensitiveBody(pass, r) {
		return
	}
	if t := pass.TypesInfo.TypeOf(r.X); t != nil {
		if _, ok := t.Underlying().(*types.Map); ok {
			pass.Reportf(r.Pos(),
				"map iteration order is nondeterministic; sort the keys first (or justify with //llbplint:allow determinism)")
			return
		}
	}
	if name := mapOrdered(pass, r.X); name != "" {
		pass.Reportf(r.Pos(),
			"loop follows the map order %s yields; range over slices.Sorted(%s(m)) instead (or justify with //llbplint:allow determinism)", name, name)
	}
}

// mapOrdered names the table's MapOrder function whose order e carries:
// maps.Keys(m) itself, or a call wrapping it that does not sort, such as
// slices.Collect(maps.Keys(m)). It returns "" when there is none.
func mapOrdered(pass *analysis.Pass, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	switch kind, name := dataflow.Std(dataflow.CalleeFunc(pass.TypesInfo, call)); kind {
	case dataflow.MapOrder:
		return name
	case dataflow.Sorts:
		return ""
	}
	for _, a := range call.Args {
		if name := mapOrdered(pass, a); name != "" {
			return name
		}
	}
	return ""
}

// orderInsensitiveBody recognizes the two loop shapes whose result
// provably cannot depend on iteration order: the collect-then-sort idiom
// (a single `s = append(s, k)` statement) and the drain idiom (a single
// `delete(m, k)` statement).
func orderInsensitiveBody(pass *analysis.Pass, r *ast.RangeStmt) bool {
	if r.Body == nil || len(r.Body.List) != 1 {
		return false
	}
	switch stmt := r.Body.List[0].(type) {
	case *ast.AssignStmt:
		// s = append(s, k) — collecting keys or values for sorting.
		if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
			return false
		}
		call, ok := ast.Unparen(stmt.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return false
		}
		return isBuiltinCall(pass, call, "append")
	case *ast.ExprStmt:
		// delete(m, k) — draining the map.
		call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		return isBuiltinCall(pass, call, "delete")
	}
	return false
}

func isBuiltinCall(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}
