// Package maporder finds `range` loops over maps whose iteration order
// can escape into output.
//
// Go randomizes map iteration order per run, so any map range that feeds
// an order-sensitive consumer makes reruns non-bit-identical — the exact
// property the repo's determinism gates (trace diffs, BENCH byte
// comparisons, recovery proofs) stand on. Four escape channels are
// modeled:
//
//   - slice append: elements collected in iteration order, unless every
//     path from the loop sorts the slice before its next use (checked on
//     the control-flow graph via Pass.CFG — the canonical
//     collect-keys/sort/iterate idiom stays clean);
//   - output: fmt printing or Write*/Encode-style writer calls inside the
//     body emit in iteration order;
//   - float accumulation: += and friends on a float declared outside the
//     loop round differently per order (integer accumulation is exact and
//     commutative, so it is exempt);
//   - channel send: downstream receivers observe the order.
//
// Counting, map-to-map transfers, and min/max scans are order-insensitive
// and stay silent, as are writes into per-iteration buffers and follow-up
// `v = append(v, ...)` collection phases (growing a slice does not observe
// its order; the sort obligation carries past them). Test files are exempt. Where order provably cannot
// escape but the pattern is too clever for the pass, waive with
// `bpartlint:ignore maporder` and say why.
package maporder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"bpart/internal/analysis"
	"bpart/internal/analysis/cfg"
)

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name: "maporder",
	Doc: "forbid map iteration whose order escapes into output\n\n" +
		"A range over a map that appends to a slice (without sorting it " +
		"before use), prints, accumulates floats, or sends on a channel makes " +
		"reruns non-bit-identical. Iterate over sorted keys instead.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if tv, ok := pass.TypesInfo.Types[rng.X]; ok && isMap(tv.Type) {
					checkRange(pass, fd, rng)
				}
				return true
			})
		}
	}
	return nil
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkRange classifies everything the loop body does with the iteration
// order and reports the channels through which it escapes.
func checkRange(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	var reasons []string
	seen := map[string]bool{}
	addReason := func(r string) {
		if !seen[r] {
			seen[r] = true
			reasons = append(reasons, r)
		}
	}
	// collected maps each outer slice appended to inside the body to one
	// representative ident (for the message); order matters only if the
	// slice is later used unsorted, which the CFG query below decides.
	collected := map[*types.Var]bool{}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.SendStmt:
			addReason("a channel send")
		case *ast.AssignStmt:
			classifyAssign(pass, rng, st, collected, addReason)
		case *ast.CallExpr:
			if name, ok := outputCall(pass, rng, st); ok {
				addReason(name)
			}
		}
		return true
	})

	for v := range collected {
		if useBeforeSort(pass, fd, rng, v) {
			addReason(fmt.Sprintf("a slice %q used without a sort", v.Name()))
		}
	}
	if len(reasons) == 0 {
		return
	}
	sort.Strings(reasons)
	pass.Reportf(rng.For, "map iteration order escapes via %s; iterate over sorted keys or waive with bpartlint:ignore maporder",
		strings.Join(reasons, ", "))
}

// classifyAssign spots order-sensitive assignments in the loop body:
// appends that collect elements into an outer slice, and accumulation
// into outer floats or strings.
func classifyAssign(pass *analysis.Pass, rng *ast.RangeStmt, as *ast.AssignStmt, collected map[*types.Var]bool, addReason func(string)) {
	// x op= expr accumulation.
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		if len(as.Lhs) == 1 {
			if v := outerVar(pass, rng, as.Lhs[0]); v != nil {
				switch kind(v.Type()) {
				case "float":
					addReason("float accumulation")
				case "string":
					addReason("string concatenation")
				}
			}
		}
		return
	}
	for i, lhs := range as.Rhs {
		if i >= len(as.Lhs) {
			break
		}
		v := outerVar(pass, rng, as.Lhs[i])
		if v == nil {
			continue
		}
		call, ok := ast.Unparen(lhs).(*ast.CallExpr)
		if ok && isAppend(pass, call) {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				collected[v] = true
			}
			continue
		}
		// x = x + expr accumulation spelled out.
		if be, ok := ast.Unparen(lhs).(*ast.BinaryExpr); ok && be.Op == token.ADD {
			if mentionsVar(pass, be, v) {
				switch kind(v.Type()) {
				case "float":
					addReason("float accumulation")
				case "string":
					addReason("string concatenation")
				}
			}
		}
	}
}

// outerVar resolves e to a variable declared outside the range statement;
// loop-local temporaries cannot carry order out of the loop.
func outerVar(pass *analysis.Pass, rng *ast.RangeStmt, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return nil
	}
	if v.Pos() >= rng.Pos() && v.Pos() < rng.End() {
		return nil // declared inside the loop
	}
	return v
}

func kind(t types.Type) string {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return ""
	}
	switch {
	case b.Info()&types.IsFloat != 0:
		return "float"
	case b.Info()&types.IsString != 0:
		return "string"
	}
	return ""
}

func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// outputCall reports fmt printing and writer-method calls, which emit in
// iteration order. Writes into a destination declared inside the loop body
// (a per-iteration buffer) stay within one iteration and are exempt — if
// that buffer's contents later escape, they do so through a slice append
// or an outer writer, which the other channels catch.
func outputCall(pass *analysis.Pass, rng *ast.RangeStmt, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
			if strings.HasPrefix(sel.Sel.Name, "Print") ||
				(strings.HasPrefix(sel.Sel.Name, "Fprint") &&
					!(len(call.Args) > 0 && loopLocal(pass, rng, call.Args[0]))) {
				return "fmt output", true
			}
			return "", false
		}
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
		if !loopLocal(pass, rng, sel.X) {
			return "a writer call", true
		}
	}
	return "", false
}

// loopLocal reports whether e (possibly behind & or parens) names a
// variable declared inside the range statement.
func loopLocal(pass *analysis.Pass, rng *ast.RangeStmt, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ue, ok := e.(*ast.UnaryExpr); ok && ue.Op == token.AND {
		e = ast.Unparen(ue.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	return ok && v.Pos() >= rng.Pos() && v.Pos() < rng.End()
}

// mentionsVar reports whether v appears anywhere under n.
func mentionsVar(pass *analysis.Pass, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if pass.TypesInfo.ObjectOf(id) == v {
				found = true
			}
		}
		return !found
	})
	return found
}

// observesVar is mentionsVar minus the uses that cannot observe element
// order: len(v) and cap(v) see only the size, so the guard in the
// canonical `if len(v) > 0 { sort; use }` idiom is not a sink.
func observesVar(pass *analysis.Pass, n ast.Node, v *types.Var) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
					return false // size-only: skip the whole call
				}
			}
		}
		if id, ok := m.(*ast.Ident); ok {
			if pass.TypesInfo.ObjectOf(id) == v {
				found = true
			}
		}
		return !found
	})
	return found
}

// useBeforeSort asks the control-flow graph whether any path from the
// loop reaches a use of the collected slice before a sort call covers it.
// Paths on which the slice is never touched again are harmless.
func useBeforeSort(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, v *types.Var) bool {
	g := pass.CFG(fd.Body)
	if !g.Contains(rng) {
		// The range lives inside a closure: the obligation belongs to the
		// literal's own graph.
		var lit *ast.FuncLit
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				flg := pass.CFG(fl.Body)
				if flg.Contains(rng) {
					lit = fl
					return false
				}
			}
			return true
		})
		if lit == nil {
			return true // cannot anchor: be conservative
		}
		g = pass.CFG(lit.Body)
	}
	res := g.Find(cfg.Query{
		Start: rng,
		Clear: func(n ast.Node) bool { return sortsVar(pass, n, v) },
		Sink: func(n ast.Node) bool {
			if n.Pos() >= rng.Pos() && n.End() <= rng.End() {
				return false // the collecting loop itself
			}
			if selfAppend(pass, n, v) {
				return false // growing the slice does not observe its order
			}
			// A RangeStmt graph node stands for the loop header only; its
			// body statements live in their own blocks and are judged
			// there, so scan just the header expressions here.
			if rs, ok := n.(*ast.RangeStmt); ok {
				for _, h := range []ast.Node{rs.X, rs.Key, rs.Value} {
					if h != nil && observesVar(pass, h, v) {
						return true
					}
				}
				return false
			}
			return observesVar(pass, n, v)
		},
	})
	return len(res.Sinks) > 0
}

// selfAppend reports whether n is `v = append(v, ...)` with no other
// mention of v: a later collection phase (another loop appending into the
// same slice) extends the slice without observing element order, so it is
// not a use — the obligation to sort carries past it.
func selfAppend(pass *analysis.Pass, n ast.Node, v *types.Var) bool {
	as, ok := n.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	lhs, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(lhs) != v {
		return false
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !isAppend(pass, call) || len(call.Args) == 0 {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || pass.TypesInfo.ObjectOf(first) != v {
		return false
	}
	for _, a := range call.Args[1:] {
		if mentionsVar(pass, a, v) {
			return false
		}
	}
	return true
}

// sortsVar reports whether n is a statement calling a sort/slices sorting
// function over v.
func sortsVar(pass *analysis.Pass, n ast.Node, v *types.Var) bool {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return false
	}
	switch pn.Imported().Path() {
	case "sort", "slices":
		return mentionsVar(pass, call, v)
	}
	return false
}
