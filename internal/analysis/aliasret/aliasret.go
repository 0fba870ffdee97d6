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
// A local assigned once from the parameter (`owner := p`, directly or
// through another such local) is the parameter under another name: its
// retention is a finding unless a copy of the parameter dominates the
// local's definition.
//
// Unexported functions are exempt — intra-package helpers hand slices
// around by design, and the package owns both ends. APIs that document
// ownership transfer (zero-copy loaders, builders that adopt their input)
// waive with `bpartlint:ignore aliasret` and a reason, which is exactly
// the reviewable trail an ownership handoff deserves.
package aliasret

import (
	"fmt"
	"go/ast"
	"go/token"
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
	held
}

// held is a parameter's value as an expression holds it: the parameter
// itself, or a local assigned once from it (or from another such local).
type held struct {
	param *types.Var
	local *types.Var // nil when the expression is the parameter
	read  ast.Expr   // where the parameter's value was read
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	params := paramVars(pass, fd)
	if len(params) == 0 {
		return
	}
	aliases := localAliases(pass, fd.Body, params)
	// resolve reports which parameter's value e holds, if any.
	resolve := func(e ast.Expr) (held, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return held{}, false
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return held{}, false
		}
		if params[v] != "" {
			return held{param: v, read: e}, true
		}
		h, ok := aliases[v]
		return h, ok
	}

	var sites []site
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if h, ok := resolve(r); ok {
					sites = append(sites, site{r, "returns", h})
				}
			}
		case *ast.CompositeLit:
			for _, elt := range st.Elts {
				e := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if h, ok := resolve(e); ok {
					sites = append(sites, site{e, "retains", h})
				}
			}
		case *ast.AssignStmt:
			for i, r := range st.Rhs {
				if i >= len(st.Lhs) {
					break
				}
				if h, ok := resolve(r); ok && retainingLHS(pass, st.Lhs[i]) {
					sites = append(sites, site{r, "retains", h})
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
		// The caller's value is captured where the parameter is read: at
		// the retention itself, or where the local was assigned from it.
		stmt := g.Enclosing(parents, s.read)
		if stmt == nil {
			continue
		}
		// A reassignment of the parameter before that read is the
		// defensive-copy idiom: the retained value is no longer the
		// caller's. Checked on all paths from function entry.
		res := g.Find(cfg.Query{
			Clear: func(n ast.Node) bool { return n != stmt && reassigns(pass, n, s.param) },
			Sink:  func(n ast.Node) bool { return n == stmt },
		})
		if len(res.Sinks) == 0 {
			continue
		}
		through := ""
		if s.local != nil {
			through = fmt.Sprintf(" through local %q", s.local.Name())
		}
		pass.Reportf(s.node.Pos(), "%s %s its caller-supplied %s %q%s without copying: caller and callee now alias one backing store (copy with append/maps.Clone, or waive with bpartlint:ignore aliasret to document ownership transfer)",
			fd.Name.Name, s.verb, params[s.param], s.param.Name(), through)
	}
}

// localAliases finds the locals that hold a parameter under another name:
// defined once from a parameter or from another such local (`x := p`,
// `var x = p`), never assigned again and never address-taken. A local
// assigned twice may hold a copy, so it is not tracked.
func localAliases(pass *analysis.Pass, body *ast.BlockStmt, params map[*types.Var]string) map[*types.Var]held {
	type def struct {
		local *types.Var
		rhs   ast.Expr
	}
	var defs []def // in source order, so a chain resolves front to back
	rewritten := map[*types.Var]bool{}
	define := func(names []*ast.Ident, values []ast.Expr) {
		if len(names) != len(values) {
			return
		}
		for i, name := range names {
			if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
				defs = append(defs, def{v, values[i]})
			}
		}
	}
	assigned := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
				rewritten[v] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			if st.Tok == token.DEFINE {
				names := make([]*ast.Ident, len(st.Lhs))
				for i, l := range st.Lhs {
					names[i], _ = l.(*ast.Ident)
				}
				define(names, st.Rhs)
			}
			// A redeclared name in `:=` and every `=` target is a rewrite.
			for _, l := range st.Lhs {
				assigned(l)
			}
		case *ast.ValueSpec:
			define(st.Names, st.Values)
		case *ast.RangeStmt:
			if st.Tok == token.ASSIGN {
				assigned(st.Key)
				assigned(st.Value)
			}
		case *ast.UnaryExpr:
			if st.Op == token.AND {
				assigned(st.X)
			}
		}
		return true
	})
	out := map[*types.Var]held{}
	for _, d := range defs {
		if rewritten[d.local] || aliasable(d.local.Type()) == "" {
			continue
		}
		id, ok := ast.Unparen(d.rhs).(*ast.Ident)
		if !ok {
			continue
		}
		src, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			continue
		}
		if params[src] != "" {
			out[d.local] = held{src, d.local, d.rhs}
		} else if h, ok := out[src]; ok {
			out[d.local] = held{h.param, d.local, h.read}
		}
	}
	return out
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
