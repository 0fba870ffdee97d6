// Package metricname vets names handed to the telemetry registry.
//
// Registry.Counter / Registry.Gauge / Registry.Histogram are get-or-create
// by name: a typo'd or
// dynamically built name silently forks a second metric, and a name reused
// across kinds (counter in one file, gauge in another) splits one logical
// metric into two exported series. This pass requires every name to be a
// compile-time string constant in snake_case, and tracks names across the
// whole lint run so a kind collision anywhere in the repo is reported.
package metricname

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"strings"

	"bpart/internal/analysis"
)

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name: "metricname",
	Doc: "require snake_case constant metric names, consistent per kind\n\n" +
		"Names passed to telemetry Registry.Counter/Gauge/Histogram must be " +
		"compile-time string constants matching ^[a-z][a-z0-9]*(_[a-z0-9]+)*$, " +
		"and one name must keep one kind across the repo.",
	Run: run,
}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// registration records where a metric name was first seen and as what kind.
type registration struct {
	kind string
	pos  token.Position
}

// table is the repo-wide name table kept on the shared blackboard.
type table map[string]registration

func run(pass *analysis.Pass) error {
	// The registry implementation (and its white-box tests, which feed
	// deliberately hostile names through sanitizeMetricName) is exempt:
	// the invariant binds consumers.
	if pass.InScope("telemetry") {
		return nil
	}
	names := pass.Shared.Get("metricname", func() any { return table{} }).(table)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind := ""
			switch sel.Sel.Name {
			case "Counter":
				kind = "counter"
			case "Gauge":
				kind = "gauge"
			case "Histogram":
				kind = "histogram"
			default:
				return true
			}
			if !isRegistryRecv(pass, sel) {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				pass.Reportf(call.Args[0].Pos(), "metric name must be a compile-time string constant so the registry's series are enumerable")
				return true
			}
			name := constant.StringVal(tv.Value)
			if !nameRE.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(), "metric name %q is not snake_case (want ^[a-z][a-z0-9]*(_[a-z0-9]+)*$)", name)
				return true
			}
			if prev, seen := names[name]; seen && prev.kind != kind {
				pass.Reportf(call.Args[0].Pos(), "metric %q registered as %s here but as %s at %s: one name, one kind", name, kind, prev.kind, prev.pos)
			} else if !seen {
				names[name] = registration{kind: kind, pos: pass.Fset.Position(call.Args[0].Pos())}
			}
			return true
		})
	}
	return nil
}

// isRegistryRecv reports whether the selector's receiver is the telemetry
// Registry (or a fixture standing in for it). Without type information the
// call is skipped rather than guessed at.
func isRegistryRecv(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	tv, ok := pass.TypesInfo.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type.String()
	return strings.HasSuffix(strings.TrimPrefix(t, "*"), "telemetry.Registry") ||
		strings.Contains(t, "/metricname/") // fixture registries under testdata
}
