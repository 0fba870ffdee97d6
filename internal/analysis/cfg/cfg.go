// Package cfg builds per-function control-flow graphs over go/ast bodies,
// giving the bpartlint analyzers (internal/analysis) a flow-sensitive
// substrate: instead of reasoning about lexical position, a pass can ask
// whether every execution path from one statement reaches another.
//
// The graph is intraprocedural and intentionally simple — basic blocks of
// statement nodes connected by successor edges — but it models the full
// Go control-flow menu: if/else, for and range loops, switch and type
// switch (including fallthrough), select, labeled break/continue, goto,
// and terminating calls. Return statements edge into a synthetic Exit
// block; calls that provably never return (panic, os.Exit, log.Fatal*,
// runtime.Goexit, testing's Fatal/FailNow/Skip family) end their block
// with no successors, so "all paths" analyses naturally exempt
// panic-only exits. Function literals are opaque: their bodies are
// expression subtrees of the enclosing statement and contribute no edges,
// matching the analyzers' view that a closure runs on someone else's
// clock.
//
// The shape mirrors golang.org/x/tools/go/cfg (not vendored — the build
// is offline, see internal/analysis); porting an analyzer between the two
// is mechanical.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Block is one basic block: a maximal straight-line run of statements
// (and loop-header control nodes) executed in order, ending in zero or
// more successor edges.
type Block struct {
	// Index is the block's position in Graph.Blocks; Blocks[0] is entry.
	Index int
	// Kind names the construct that created the block ("entry", "if.then",
	// "range.loop", "panic", ...) for dumps and tests.
	Kind string
	// Nodes holds the block's statements and control expressions in
	// execution order. Compound statements (RangeStmt headers, for-loop
	// conditions) appear as single nodes; their nested bodies live in
	// their own blocks.
	Nodes []ast.Node
	// Succs are the possible next blocks. Empty for panic/terminating
	// blocks and for the Exit block.
	Succs []*Block
	// Preds are the blocks that can flow here (computed once at the end
	// of construction).
	Preds []*Block
}

// Graph is the control-flow graph of one function body.
type Graph struct {
	// Blocks lists every block; Blocks[0] is the entry block.
	Blocks []*Block
	// Exit is the synthetic function-exit block: every return statement
	// and the implicit fall-off-the-end path edge into it. Panic-style
	// terminations do not.
	Exit *Block

	pos map[ast.Node]nodePos
}

type nodePos struct {
	block *Block
	index int
}

// New builds the CFG for one function body.
func New(body *ast.BlockStmt) *Graph {
	g := &Graph{pos: map[ast.Node]nodePos{}}
	b := &builder{g: g, labels: map[string]*lblock{}}
	b.cur = g.newBlock("entry")
	g.Exit = g.newBlock("exit")
	b.stmt(body, "")
	edge(b.cur, g.Exit) // implicit return at the end of the body
	for _, blk := range g.Blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	return g
}

// Contains reports whether n was recorded as a node of the graph (i.e. it
// is a statement or control node of this function body, not nested inside
// another statement).
func (g *Graph) Contains(n ast.Node) bool {
	_, ok := g.pos[n]
	return ok
}

// Enclosing climbs from n to the nearest ancestor that is a node of the
// graph — the statement that anchors n on a path — or returns nil.
// parents comes from Parents over the function body.
func (g *Graph) Enclosing(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for p := n; p != nil; p = parents[p] {
		if g.Contains(p) {
			return p
		}
	}
	return nil
}

// Parents records each node's parent within root.
func Parents(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// Describe renders the graph compactly for tests and debugging: one line
// per block with its kind, node count and successor indices.
func (g *Graph) Describe() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s nodes=%d succs=[", b.Index, b.Kind, len(b.Nodes))
		for i, s := range b.Succs {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "b%d", s.Index)
		}
		sb.WriteString("]\n")
	}
	return sb.String()
}

// builder threads the construction state: the block under construction,
// the stack of enclosing break/continue targets, and the label table.
type builder struct {
	g      *Graph
	cur    *Block
	tgt    *targets
	labels map[string]*lblock
	// fall is the next case-body block while building a switch case, the
	// target of a fallthrough statement.
	fall *Block
}

// targets is one frame of the break/continue stack.
type targets struct {
	tail  *targets
	brk   *Block
	cont  *Block // nil for switch/select frames
	label string
}

// lblock collects the blocks a label can address: its goto target and,
// when the label names a loop/switch/select, its break and continue
// targets.
type lblock struct {
	gotoB *Block
	brk   *Block
	cont  *Block
}

func edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

func (g *Graph) newBlock(kind string) *Block {
	b := &Block{Index: len(g.Blocks), Kind: kind}
	g.Blocks = append(g.Blocks, b)
	return b
}

// add appends n to the current block and records its position.
func (b *builder) add(n ast.Node) {
	b.g.pos[n] = nodePos{b.cur, len(b.cur.Nodes)}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// labeledBlock returns (creating on first mention, so forward gotos work)
// the label's block record.
func (b *builder) labeledBlock(name string) *lblock {
	lb := b.labels[name]
	if lb == nil {
		lb = &lblock{gotoB: b.g.newBlock("label." + name)}
		b.labels[name] = lb
	}
	return lb
}

// stmt builds s into the graph. label is the name of the LabeledStmt
// directly wrapping s ("" when unlabeled): loops and switches register
// their break/continue targets under it.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case nil, *ast.BadStmt, *ast.EmptyStmt:
		// no effect on flow

	case *ast.BlockStmt:
		for _, t := range s.List {
			b.stmt(t, "")
		}

	case *ast.LabeledStmt:
		lb := b.labeledBlock(s.Label.Name)
		edge(b.cur, lb.gotoB)
		b.cur = lb.gotoB
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ExprStmt:
		b.add(s)
		if terminates(s.X) {
			b.cur.Kind = "panic"
			b.cur = b.g.newBlock("unreachable")
		}

	case *ast.ReturnStmt:
		b.add(s)
		edge(b.cur, b.g.Exit)
		b.cur = b.g.newBlock("unreachable")

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, label)

	case *ast.RangeStmt:
		b.rangeStmt(s, label)

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s.Body, label, true)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s.Body, label, false)

	case *ast.SelectStmt:
		b.selectStmt(s, label)

	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, GoStmt, DeferStmt:
		// straight-line statements.
		b.add(s)
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	then := b.g.newBlock("if.then")
	done := b.g.newBlock("if.done")
	els := done
	if s.Else != nil {
		els = b.g.newBlock("if.else")
	}
	edge(cond, then)
	edge(cond, els)
	b.cur = then
	b.stmt(s.Body, "")
	edge(b.cur, done)
	if s.Else != nil {
		b.cur = els
		b.stmt(s.Else, "")
		edge(b.cur, done)
	}
	b.cur = done
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	loop := b.g.newBlock("for.loop")
	edge(b.cur, loop)
	b.cur = loop
	if s.Cond != nil {
		b.add(s.Cond)
	}
	body := b.g.newBlock("for.body")
	done := b.g.newBlock("for.done")
	edge(loop, body)
	if s.Cond != nil {
		edge(loop, done)
	}
	cont := loop
	if s.Post != nil {
		cont = b.g.newBlock("for.post")
	}
	if label != "" {
		lb := b.labeledBlock(label)
		lb.brk, lb.cont = done, cont
	}
	b.tgt = &targets{tail: b.tgt, brk: done, cont: cont, label: label}
	b.cur = body
	b.stmt(s.Body, "")
	edge(b.cur, cont)
	if s.Post != nil {
		b.cur = cont
		b.add(s.Post)
		edge(b.cur, loop)
	}
	b.tgt = b.tgt.tail
	b.cur = done
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	loop := b.g.newBlock("range.loop")
	edge(b.cur, loop)
	b.cur = loop
	// The RangeStmt itself is the header's control node: analyses can
	// start a path query "after the loop" from it.
	b.add(s)
	body := b.g.newBlock("range.body")
	done := b.g.newBlock("range.done")
	edge(loop, body)
	edge(loop, done)
	if label != "" {
		lb := b.labeledBlock(label)
		lb.brk, lb.cont = done, loop
	}
	b.tgt = &targets{tail: b.tgt, brk: done, cont: loop, label: label}
	b.cur = body
	b.stmt(s.Body, "")
	edge(b.cur, loop)
	b.tgt = b.tgt.tail
	b.cur = done
}

// switchBody builds the shared case-clause structure of switch and type
// switch. allowFall wires fallthrough targets (expression switches only).
func (b *builder) switchBody(body *ast.BlockStmt, label string, allowFall bool) {
	head := b.cur
	done := b.g.newBlock("switch.done")
	if label != "" {
		b.labeledBlock(label).brk = done
	}
	b.tgt = &targets{tail: b.tgt, brk: done, label: label}
	bodies := make([]*Block, len(body.List))
	hasDefault := false
	for i := range body.List {
		bodies[i] = b.g.newBlock("switch.body")
	}
	savedFall := b.fall
	for i, clause := range body.List {
		cc := clause.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		// Case guard expressions are evaluated while control still sits in
		// the head block.
		b.cur = head
		for _, e := range cc.List {
			b.add(e)
		}
		edge(head, bodies[i])
		b.cur = bodies[i]
		b.fall = nil
		if allowFall && i+1 < len(bodies) {
			b.fall = bodies[i+1]
		}
		for _, st := range cc.Body {
			b.stmt(st, "")
		}
		edge(b.cur, done)
	}
	b.fall = savedFall
	if !hasDefault {
		edge(head, done)
	}
	b.tgt = b.tgt.tail
	b.cur = done
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	done := b.g.newBlock("select.done")
	if label != "" {
		b.labeledBlock(label).brk = done
	}
	b.tgt = &targets{tail: b.tgt, brk: done, label: label}
	for _, clause := range s.Body.List {
		cc := clause.(*ast.CommClause)
		body := b.g.newBlock("select.body")
		edge(head, body)
		b.cur = body
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		for _, st := range cc.Body {
			b.stmt(st, "")
		}
		edge(b.cur, done)
	}
	// A bare `select {}` blocks forever: head keeps no edge to done, so
	// done is unreachable — exactly the semantics.
	b.tgt = b.tgt.tail
	b.cur = done
}

func (b *builder) branch(s *ast.BranchStmt) {
	b.add(s)
	var target *Block
	switch s.Tok {
	case token.BREAK:
		if s.Label != nil {
			target = b.labeledBlock(s.Label.Name).brk
		} else {
			for t := b.tgt; t != nil; t = t.tail {
				if t.brk != nil {
					target = t.brk
					break
				}
			}
		}
	case token.CONTINUE:
		if s.Label != nil {
			target = b.labeledBlock(s.Label.Name).cont
		} else {
			for t := b.tgt; t != nil; t = t.tail {
				if t.cont != nil {
					target = t.cont
					break
				}
			}
		}
	case token.FALLTHROUGH:
		target = b.fall
	case token.GOTO:
		if s.Label != nil {
			target = b.labeledBlock(s.Label.Name).gotoB
		}
	}
	if target != nil {
		edge(b.cur, target)
	}
	b.cur = b.g.newBlock("unreachable")
}

// terminates reports whether the expression statement provably never
// returns. The check is a name heuristic (no type information reaches the
// builder): the builtin panic, os.Exit, runtime.Goexit, the log.Fatal
// family, and testing's goroutine-terminating Fatal/FailNow/Skip family.
// The Fatal family is recognised only on the conventional receivers —
// the log package and testing's t/b/tb parameters — so a custom type
// whose Fatal method returns normally does not cut the CFG path and
// starve downstream all-path analyses of the statements after the call.
func terminates(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		recv, _ := fun.X.(*ast.Ident)
		if recv == nil {
			return false
		}
		switch fun.Sel.Name {
		case "Exit":
			return recv.Name == "os"
		case "Goexit":
			return recv.Name == "runtime"
		case "Fatal", "Fatalf", "Fatalln":
			return recv.Name == "log" || testingRecv[recv.Name]
		case "FailNow", "SkipNow":
			return testingRecv[recv.Name]
		}
	}
	return false
}

// testingRecv names the conventional identifiers for *testing.T/B and
// testing.TB parameters, whose Fatal/FailNow/SkipNow terminate the
// goroutine.
var testingRecv = map[string]bool{"t": true, "b": true, "tb": true}
