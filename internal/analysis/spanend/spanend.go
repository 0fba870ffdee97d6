// Package spanend checks that every telemetry span opened is also ended.
//
// Tracer.Span's contract (internal/telemetry) is "the returned Span must
// be Ended exactly once": a leaked span never records its duration, so the
// JSONL timeline silently loses the phase it was supposed to measure. The
// pass finds every `x := tr.Span(...)` whose result type has an End
// method, then walks the function's control-flow graph
// (internal/analysis/cfg, via Pass.CFG) demanding that every execution
// path from the start reaches an `x.End()` — direct or deferred — before
// any return, before the function falls off its end, and before the
// variable is overwritten by a fresh span.
//
// The check is a true all-paths analysis, not the lexical approximation
// earlier revisions used: an End in one branch no longer excuses the
// branch without one, and an End that is lexically below a return but
// flow-wise before it (goto, loop back edges) no longer trips a false
// positive. Two deliberate exemptions remain. Panic-only exits need no
// End — the block that panics has no successors in the CFG, so paths
// ending there are never charged (the trace is lost in the unwind
// anyway). And spans that escape (passed to a function, stored, returned,
// aliased) are assumed ended by their new owner and skipped.
package spanend

import (
	"go/ast"
	"go/types"

	"bpart/internal/analysis"
	"bpart/internal/analysis/cfg"
)

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc: "require every started telemetry span to be ended on all paths\n\n" +
		"A span from Tracer.Span must reach End() on every control-flow path: " +
		"either defer it or End it before each return (checked on the CFG). " +
		"Leaked spans drop their phase from the trace timeline.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				// Each function literal is its own frame: a span started
				// inside a closure must be ended by that closure's paths.
				checkFrame(pass, fd.Body)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FuncLit); ok {
						checkFrame(pass, fl.Body)
					}
					return true
				})
			}
		}
	}
	return nil
}

// checkFrame analyzes the spans started directly in one function body
// (spans started in nested literals belong to the nested frame).
func checkFrame(pass *analysis.Pass, body *ast.BlockStmt) {
	parents := cfg.Parents(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && fl.Body != body {
			return false
		}
		switch st := n.(type) {
		case *ast.ExprStmt:
			if call, ok := st.X.(*ast.CallExpr); ok && isSpanStart(pass, call) {
				pass.Reportf(call.Pos(), "span started and discarded: its End can never be called")
			}
		case *ast.AssignStmt:
			if len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i := range st.Rhs {
				call, ok := st.Rhs[i].(*ast.CallExpr)
				if !ok || !isSpanStart(pass, call) {
					continue
				}
				id, ok := st.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "span discarded into _: its End can never be called")
					continue
				}
				checkSpanVar(pass, body, parents, id, call)
			}
		}
		return true
	})
}

// isSpanStart reports whether call is `<recv>.Span(...)` yielding a value
// with an End method.
func isSpanStart(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Span" {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	obj, _, _ := types.LookupFieldOrMethod(tv.Type, true, pass.Pkg, "End")
	_, isFunc := obj.(*types.Func)
	return isFunc
}

type useKind int

const (
	useNeutral useKind = iota
	useEnd
	useDeferEnd
	useEscape
)

// checkSpanVar verifies that the span held in id reaches End on every
// control-flow path from its start.
func checkSpanVar(pass *analysis.Pass, body *ast.BlockStmt, parents map[ast.Node]ast.Node, id *ast.Ident, call *ast.CallExpr) {
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok || v.Parent() == nil || v.Parent() == pass.Pkg.Scope() {
		return
	}

	g := pass.CFG(body)
	startStmt := g.Enclosing(parents, call)
	if startStmt == nil {
		return // start buried in an expression the CFG cannot anchor
	}

	// Classify every mention of the variable. End and defer-End uses are
	// lifted to their enclosing CFG statement: that statement clears the
	// obligation on paths that execute it. An End inside a nested closure
	// only lifts when the closure provably runs at that statement
	// (immediately invoked or deferred there); a closure merely stored or
	// passed along may run later, on some paths, or never — the span
	// escapes into it instead. Any escaping use transfers ownership and
	// ends the analysis.
	clear := map[ast.Node]bool{}
	escaped := false
	ast.Inspect(body, func(n ast.Node) bool {
		use, ok := n.(*ast.Ident)
		if !ok || use == id {
			return true
		}
		if pass.TypesInfo.ObjectOf(use) != v {
			return true
		}
		switch classifyUse(parents, use) {
		case useEnd, useDeferEnd:
			if !runsAtStatement(parents, use, body) {
				escaped = true
				return true
			}
			if stmt := g.Enclosing(parents, use); stmt != nil && stmt != startStmt {
				clear[stmt] = true
			}
		case useEscape:
			escaped = true
		}
		return true
	})
	if escaped {
		return
	}

	// reassigns reports whether stmt overwrites v (a fresh Span start or
	// any other assignment): reaching one with the current span unended
	// leaks it. The start statement itself counts — reaching it again on
	// a loop back edge restarts the span over an unended one.
	reassigns := func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return false
		}
		for _, l := range as.Lhs {
			if lid, ok := l.(*ast.Ident); ok {
				if pass.TypesInfo.ObjectOf(lid) == v {
					return true
				}
			}
		}
		return false
	}

	res := g.Find(cfg.Query{
		Start: startStmt,
		Clear: func(n ast.Node) bool { return clear[n] },
		Sink: func(n ast.Node) bool {
			if _, ok := n.(*ast.ReturnStmt); ok {
				return true
			}
			return reassigns(n)
		},
		ExitSink: true,
	})

	if len(clear) == 0 {
		// No End anywhere: one finding at the start reads better than one
		// per leaking path — unless every path panics, which needs no End.
		if len(res.Sinks) > 0 || res.ReachedExit {
			pass.Reportf(call.Pos(), "span %q is never ended: defer %s.End() or End it on every path", id.Name, id.Name)
		}
		return
	}
	for _, sink := range res.Sinks {
		if _, ok := sink.(*ast.ReturnStmt); ok {
			pass.Reportf(sink.Pos(), "span %q (started at %s) is not ended on this return path", id.Name, pass.Fset.Position(call.Pos()))
		} else {
			pass.Reportf(sink.Pos(), "span %q (started at %s) is overwritten before being ended", id.Name, pass.Fset.Position(call.Pos()))
		}
	}
	if res.ReachedExit {
		pass.Reportf(body.Rbrace, "span %q (started at %s) is not ended on this return path", id.Name, pass.Fset.Position(call.Pos()))
	}
}

// runsAtStatement reports whether every FuncLit boundary between use and
// the frame body is executed exactly when its anchoring statement runs:
// the literal is the function of a call that is either evaluated in place
// (`func() { sp.End() }()`) or deferred (`defer func() { sp.End() }()`).
// A literal that is stored, passed to a function, or launched with `go`
// gives no such guarantee — its End may run later, on some paths only, or
// never.
func runsAtStatement(parents map[ast.Node]ast.Node, use ast.Node, body *ast.BlockStmt) bool {
	for p := parents[use]; p != nil && p != ast.Node(body); p = parents[p] {
		fl, ok := p.(*ast.FuncLit)
		if !ok {
			continue
		}
		outer := parents[fl]
		for {
			pe, ok := outer.(*ast.ParenExpr)
			if !ok {
				break
			}
			outer = parents[pe]
		}
		call, ok := outer.(*ast.CallExpr)
		if !ok || ast.Unparen(call.Fun) != ast.Expr(fl) {
			return false // stored or passed along, not invoked here
		}
		if g, ok := parents[call].(*ast.GoStmt); ok && g.Call == call {
			return false // runs concurrently, unordered with frame exit
		}
	}
	return true
}

// classifyUse decides what one mention of the span variable does with it.
func classifyUse(parents map[ast.Node]ast.Node, id *ast.Ident) useKind {
	switch p := parents[id].(type) {
	case *ast.SelectorExpr:
		if p.X != ast.Expr(id) {
			return useEscape
		}
		call, ok := parents[p].(*ast.CallExpr)
		if !ok || call.Fun != ast.Expr(p) {
			// Method value (sp.End passed around): treat as escape.
			return useEscape
		}
		if p.Sel.Name != "End" {
			return useNeutral // Annotate and friends keep ownership
		}
		if d, ok := parents[call].(*ast.DeferStmt); ok && d.Call == call {
			return useDeferEnd
		}
		return useEnd
	case *ast.BinaryExpr:
		return useNeutral // nil checks
	case *ast.AssignStmt:
		for _, l := range p.Lhs {
			if l == ast.Expr(id) {
				return useNeutral // reassignment is a fresh start, checked separately
			}
		}
		return useEscape
	case *ast.ValueSpec:
		return useNeutral
	default:
		return useEscape
	}
}
