package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"

	"llbp/internal/lint/analysis"
	"llbp/internal/lint/dataflow"
)

// TelemetrySafe enforces the observability layer's usage contract
// (DESIGN.md §7): instruments are nil-safe only when a Registry built
// them, so outside the telemetry package itself they may never be
// constructed by composite literal. (Their fields are unexported, so
// the compiler already rejects field access.) Literal instrument names
// passed to Registry.Counter/Gauge/Histogram/Series must be snake_case,
// the scheme the CI telemetrycheck gate keys on.
//
// In service packages (import-path segment "service") one hot-path rule
// applies on top: arguments of instrument update calls
// (Inc/Add/Set/Observe/Append) must not allocate — no composite or
// function literals, no make/new/append, no string concatenation, no
// fmt/strings/strconv/sort/bytes calls. The former syntactic
// updates-under-held-lock rule moved to the lockorder program analyzer,
// which proves it at call-graph depth instead of within one body.
var TelemetrySafe = &analysis.Analyzer{
	Name: "telemetrysafe",
	Doc:  "telemetry instruments: Registry-constructed, snake_case names, allocation-free updates in service code",
	Run:  runTelemetrySafe,
}

// registryFactories are the Registry methods taking an instrument name.
var registryFactories = map[string]bool{
	"Counter": true, "Gauge": true, "Histogram": true, "Series": true,
}

// allocCallPackages are stdlib packages whose calls inside an update
// argument imply formatting/allocation work on the metric-update path.
var allocCallPackages = map[string]bool{
	"fmt": true, "strings": true, "strconv": true, "sort": true, "bytes": true,
}

// SnakeCase is the instrument-name pattern.
var SnakeCase = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

func runTelemetrySafe(pass *analysis.Pass) error {
	if lastSegment(pass.Pkg.Path()) == "telemetry" {
		return nil
	}
	serviceScope := hasSegment(pass.Pkg.Path(), "service")
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if name, ok := dataflow.Instrument(pass.TypesInfo.TypeOf(n)); ok {
					pass.Reportf(n.Pos(),
						"composite literal of telemetry.%s; obtain instruments from a Registry (nil-safety depends on it)", name)
				}
			case *ast.CallExpr:
				checkInstrumentName(pass, n)
				if serviceScope {
					checkUpdateArgs(pass, n)
				}
			}
			return true
		})
	}
	return nil
}

// checkUpdateArgs enforces the allocation-free rule: the argument
// expressions of a metric update may compute (arithmetic, conversions,
// method calls on local state) but not allocate or format.
func checkUpdateArgs(pass *analysis.Pass, call *ast.CallExpr) {
	_, method, ok := dataflow.InstrumentUpdate(pass.TypesInfo, call)
	if !ok {
		return
	}
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				pass.Reportf(n.Pos(),
					"telemetry update argument allocates (composite literal in %s); precompute outside the metric-update path", method)
			case *ast.FuncLit:
				pass.Reportf(n.Pos(),
					"telemetry update argument allocates (closure in %s); precompute outside the metric-update path", method)
				return false
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
						switch b.Name() {
						case "make", "new", "append":
							pass.Reportf(n.Pos(),
								"telemetry update argument allocates (%s in %s); precompute outside the metric-update path", b.Name(), method)
						}
					}
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
						fn.Pkg() != nil && allocCallPackages[fn.Pkg().Path()] {
						pass.Reportf(n.Pos(),
							"telemetry update argument calls %s.%s in %s; format outside the metric-update path", fn.Pkg().Name(), fn.Name(), method)
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isStringType(pass.TypesInfo.TypeOf(n)) {
					pass.Reportf(n.Pos(),
						"telemetry update argument allocates (string concatenation in %s); precompute outside the metric-update path", method)
				}
			}
			return true
		})
	}
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// checkInstrumentName validates literal names passed to Registry
// factory methods. Non-constant names (e.g. "provider_" + c.String())
// cannot be checked statically and are skipped.
func checkInstrumentName(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || !registryFactories[fn.Name()] {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if name, ok := dataflow.Instrument(sig.Recv().Type()); !ok || name != "Registry" {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return
	}
	name := constant.StringVal(tv.Value)
	if !SnakeCase.MatchString(name) {
		pass.Reportf(call.Args[0].Pos(),
			"instrument name %q is not snake_case (want %s)", name, SnakeCase)
	}
}
