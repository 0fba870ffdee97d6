// Package aliasret flags exported functions that retain or return a
// caller-supplied slice or map without copying it.
//
// This is the bug class behind the cluster.New assignment-aliasing fix:
// a constructor stored the caller's slice, the caller kept mutating it,
// and two owners silently shared one backing store — the kind of aliasing
// that becomes a data race the moment real goroutine parallelism lands.
// The pass inspects every exported function and method: a slice- or
// map-typed parameter that is returned as-is, stored into a struct field
// or composite literal, stashed in a container, or assigned to a
// package-level variable is a finding, unless some reassignment of the
// parameter (the `p = append([]T(nil), p...)` / maps.Clone defensive-copy
// idiom) dominates the retention on the control-flow graph (Pass.CFG).
//
// Unexported functions are exempt — intra-package helpers hand slices
// around by design, and the package owns both ends. APIs that document
// ownership transfer (zero-copy loaders, builders that adopt their input)
// waive with `bpartlint:ignore aliasret` and a reason, which is exactly
// the reviewable trail an ownership handoff deserves.
package aliasret

import (
	"go/ast"
	"go/types"

	"bpart/internal/analysis"
	"bpart/internal/analysis/cfg"
)

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name: "aliasret",
	Doc: "forbid retaining or returning caller-supplied slices/maps without copy\n\n" +
		"An exported function that stores or returns a parameter slice/map " +
		"aliases the caller's backing store; copy first (append, maps.Clone) " +
		"or waive with bpartlint:ignore aliasret to document ownership transfer.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// aliasable returns "slice" or "map" for reference types whose backing
// store a retention would share, "" otherwise.
func aliasable(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return ""
}

// paramVars collects the function's slice/map parameters.
func paramVars(pass *analysis.Pass, fd *ast.FuncDecl) map[*types.Var]string {
	out := map[*types.Var]string{}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			v, ok := pass.TypesInfo.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			if kind := aliasable(v.Type()); kind != "" {
				out[v] = kind
			}
		}
	}
	return out
}

// site is one retention of a parameter.
type site struct {
	node ast.Node // the retaining expression (for the position)
	verb string   // "returns" or "retains"
	v    *types.Var
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	params := paramVars(pass, fd)
	if len(params) == 0 {
		return
	}
	resolve := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || params[v] == "" {
			return nil
		}
		return v
	}

	var sites []site
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if v := resolve(r); v != nil {
					sites = append(sites, site{r, "returns", v})
				}
			}
		case *ast.CompositeLit:
			for _, elt := range st.Elts {
				e := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if v := resolve(e); v != nil {
					sites = append(sites, site{e, "retains", v})
				}
			}
		case *ast.AssignStmt:
			for i, r := range st.Rhs {
				if i >= len(st.Lhs) {
					break
				}
				v := resolve(r)
				if v == nil {
					continue
				}
				if retainingLHS(pass, st.Lhs[i]) {
					sites = append(sites, site{r, "retains", v})
				}
			}
		}
		return true
	})
	if len(sites) == 0 {
		return
	}

	g := pass.CFG(fd.Body)
	parents := cfg.Parents(fd.Body)
	for _, s := range sites {
		stmt := g.Enclosing(parents, s.node)
		if stmt == nil {
			continue
		}
		// A reassignment of the parameter before the retention is the
		// defensive-copy idiom: the retained value is no longer the
		// caller's. Checked on all paths from function entry.
		res := g.Find(cfg.Query{
			Clear: func(n ast.Node) bool { return n != stmt && reassigns(pass, n, s.v) },
			Sink:  func(n ast.Node) bool { return n == stmt },
		})
		if len(res.Sinks) == 0 {
			continue
		}
		pass.Reportf(s.node.Pos(), "%s %s its caller-supplied %s %q without copying: caller and callee now alias one backing store (copy with append/maps.Clone, or waive with bpartlint:ignore aliasret to document ownership transfer)",
			fd.Name.Name, s.verb, params[s.v], s.v.Name())
	}
}

// retainingLHS reports whether assigning to dst retains the value beyond
// the call: a struct field, a container slot, or a package-level
// variable. Plain locals are fine — they alias only within the call.
func retainingLHS(pass *analysis.Pass, dst ast.Expr) bool {
	switch d := ast.Unparen(dst).(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.Ident:
		v, ok := pass.TypesInfo.Uses[d].(*types.Var)
		if !ok {
			if v, ok = pass.TypesInfo.Defs[d].(*types.Var); !ok {
				return false
			}
		}
		return v != nil && v.Parent() == pass.Pkg.Scope()
	}
	return false
}

// reassigns reports whether stmt assigns a fresh value to v. A
// self-append — `p = append(p, x)` — is not a clear: append reuses the
// caller's backing array whenever capacity suffices, so the retained
// value can still alias it. The copying idiom `p = append([]T(nil), p...)`
// clears because its first argument is a fresh slice.
func reassigns(pass *analysis.Pass, n ast.Node, v *types.Var) bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return false
	}
	for i, l := range as.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok || (pass.TypesInfo.Uses[id] != v && pass.TypesInfo.Defs[id] != v) {
			continue
		}
		// Positional RHS only exists for non-tuple assignments; a tuple
		// assignment (`p, err := f()`) always produces a fresh value.
		if len(as.Rhs) == len(as.Lhs) && selfAppend(pass, as.Rhs[i], v) {
			continue
		}
		return true
	}
	return false
}

// selfAppend reports whether e is `append(v, ...)` — an append whose
// destination is the parameter itself, which may grow in place.
func selfAppend(pass *analysis.Pass, e ast.Expr, v *types.Var) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); !isBuiltin {
		return false
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && pass.TypesInfo.Uses[arg] == v
}
