// Package errio forbids discarding writer and flush errors in the I/O
// packages (internal/gio, internal/telemetry, internal/cluster,
// internal/recordlog, internal/report, internal/partaudit,
// internal/commview, internal/resview, internal/servestats).
//
// Graph dumps, assignment files, JSONL traces and CSV timelines are the
// artifacts experiments are reproduced from; a full disk or closed pipe
// that only truncates them silently is the worst failure mode. Any call
// whose callee looks like a write (Write*, Flush, Sync, fmt.Fprint*) and
// returns an error must have that error consumed — not dropped as a bare
// statement, not blanked with `_`.
package errio

import (
	"go/ast"
	"go/types"
	"strings"

	"bpart/internal/analysis"
)

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name: "errio",
	Doc: "forbid discarded writer/flush errors in I/O packages\n\n" +
		"In internal/gio, internal/telemetry, internal/cluster, " +
		"internal/recordlog, internal/report, internal/partaudit, internal/commview, " +
		"internal/resview and internal/servestats, errors from " +
		"Write*/Flush/Sync/fmt.Fprint* calls " +
		"must be checked; bytes.Buffer, strings.Builder and " +
		"http.ResponseWriter sinks are exempt.",
	Run: run,
}

// scope names the packages that write artifacts worth protecting.
var scope = []string{"gio", "telemetry", "cluster", "recordlog", "report", "partaudit", "commview", "resview", "servestats"}

func run(pass *analysis.Pass) error {
	if !pass.InScope(scope...) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					check(pass, call, "discarded")
				}
			case *ast.DeferStmt:
				check(pass, st.Call, "discarded by defer")
			case *ast.GoStmt:
				check(pass, st.Call, "discarded by go")
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 {
					return true
				}
				call, ok := st.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, lhs := range st.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						return true
					}
				}
				check(pass, call, "blanked with _")
			}
			return true
		})
	}
	return nil
}

// check reports call if it is a writer-shaped call returning an error that
// the surrounding statement throws away.
func check(pass *analysis.Pass, call *ast.CallExpr, how string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if name != "Flush" && name != "Sync" && !strings.HasPrefix(name, "Write") && !strings.HasPrefix(name, "Fprint") {
		return
	}
	if !returnsError(pass, call) {
		return
	}
	// Sinks that cannot fail, or whose failure has no caller-visible
	// remedy: in-memory buffers and HTTP response writers (the client is
	// gone; nothing to do). The exemption also covers Fprint* whose first
	// argument is such a sink.
	if exemptType(pass, sel.X) {
		return
	}
	if len(call.Args) > 0 && exemptType(pass, call.Args[0]) {
		return
	}
	pass.Reportf(call.Pos(), "error from %s %s: write/flush failures must be checked in I/O packages (or waived with bpartlint:ignore errio)", name, how)
}

// returnsError reports whether the call's results include an error.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isError(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isError(t)
	}
}

func isError(t types.Type) bool {
	return t != nil && t.String() == "error"
}

// exemptType reports whether expr is an in-memory or HTTP sink.
func exemptType(pass *analysis.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	t := strings.TrimPrefix(tv.Type.String(), "*")
	switch t {
	case "bytes.Buffer", "strings.Builder", "net/http.ResponseWriter":
		return true
	}
	return false
}
