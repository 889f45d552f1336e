package caplint

import "repro/internal/capl"

// The control-flow pass builds a statement-granular CFG per handler and
// function body. Each simple statement and each branch condition is one
// node; reachability over the graph yields CAPL0004, and the dataflow
// pass (dataflow.go) runs worklist analyses over the same graph.

type cfgNode struct {
	id int
	// Exactly one of stmt/cond is set; the synthetic entry/exit nodes
	// have neither.
	stmt  capl.Stmt
	cond  capl.Expr
	at    pos
	succs []*cfgNode
	preds []*cfgNode
}

type cfg struct {
	entry, exit *cfgNode
	nodes       []*cfgNode
}

type cfgBuilder struct {
	g *cfg
	// breakTargets/continueTargets are stacks of pending edge lists:
	// break/continue nodes attach to the innermost enclosing target.
	breakNodes    [][]*cfgNode
	continueNodes [][]*cfgNode
}

func (b *cfgBuilder) newNode(stmt capl.Stmt, cond capl.Expr, at pos) *cfgNode {
	n := &cfgNode{id: len(b.g.nodes), stmt: stmt, cond: cond, at: at}
	b.g.nodes = append(b.g.nodes, n)
	return n
}

func edge(from, to *cfgNode) {
	from.succs = append(from.succs, to)
	to.preds = append(to.preds, from)
}

func connect(preds []*cfgNode, to *cfgNode) {
	for _, p := range preds {
		edge(p, to)
	}
}

// buildCFG constructs the graph for one body.
func buildCFG(body *capl.BlockStmt) *cfg {
	g := &cfg{}
	b := &cfgBuilder{g: g}
	g.entry = b.newNode(nil, nil, pos{})
	g.exit = b.newNode(nil, nil, pos{})
	out := b.stmtList(body.Stmts, []*cfgNode{g.entry})
	connect(out, g.exit)
	return g
}

// stmtList threads control through the statements in order. in is the
// set of nodes whose control falls into the list; the return value is
// the set that falls out the end.
func (b *cfgBuilder) stmtList(list []capl.Stmt, in []*cfgNode) []*cfgNode {
	cur := in
	for _, s := range list {
		cur = b.stmt(s, cur)
	}
	return cur
}

func (b *cfgBuilder) stmt(s capl.Stmt, in []*cfgNode) []*cfgNode {
	switch x := s.(type) {
	case *capl.BlockStmt:
		return b.stmtList(x.Stmts, in)

	case *capl.DeclStmt:
		n := b.newNode(x, nil, pos{x.Line, x.Col})
		connect(in, n)
		return []*cfgNode{n}

	case *capl.ExprStmt:
		n := b.newNode(x, nil, pos{x.Line, x.Col})
		connect(in, n)
		return []*cfgNode{n}

	case *capl.ReturnStmt:
		n := b.newNode(x, nil, pos{x.Line, x.Col})
		connect(in, n)
		edge(n, b.g.exit)
		return nil

	case *capl.BreakStmt:
		n := b.newNode(x, nil, pos{x.Line, x.Col})
		connect(in, n)
		if k := len(b.breakNodes); k > 0 {
			b.breakNodes[k-1] = append(b.breakNodes[k-1], n)
		} else {
			edge(n, b.g.exit) // stray break; keep the graph total
		}
		return nil

	case *capl.ContinueStmt:
		n := b.newNode(x, nil, pos{x.Line, x.Col})
		connect(in, n)
		if k := len(b.continueNodes); k > 0 {
			b.continueNodes[k-1] = append(b.continueNodes[k-1], n)
		} else {
			edge(n, b.g.exit)
		}
		return nil

	case *capl.IfStmt:
		c := b.newNode(nil, x.Cond, pos{x.Line, x.Col})
		connect(in, c)
		// Constant conditions prune an arm (the translator folds them
		// too); the pruned arm is still built so its statements exist
		// as unreachable nodes.
		v, isConst := capl.ConstEval(x.Cond)
		thenIn, elseIn := []*cfgNode{c}, []*cfgNode{c}
		if isConst {
			if v != 0 {
				elseIn = nil
			} else {
				thenIn = nil
			}
		}
		out := b.stmt(x.Then, thenIn)
		if x.Else != nil {
			out = append(out, b.stmt(x.Else, elseIn)...)
		} else {
			out = append(out, elseIn...)
		}
		return out

	case *capl.WhileStmt:
		c := b.newNode(nil, x.Cond, pos{x.Line, x.Col})
		connect(in, c)
		b.pushLoop()
		v, isConst := capl.ConstEval(x.Cond)
		bodyIn := []*cfgNode{c}
		if isConst && v == 0 {
			bodyIn = nil
		}
		bodyOut := b.stmt(x.Body, bodyIn)
		breaks, continues := b.popLoop()
		connect(bodyOut, c)
		connect(continues, c)
		out := breaks
		if !(isConst && v != 0) {
			out = append(out, c) // loop may be skipped or exited
		}
		return out

	case *capl.DoWhileStmt:
		c := b.newNode(nil, x.Cond, pos{x.Line, x.Col})
		b.pushLoop()
		bodyOut := b.stmt(x.Body, append(in, c))
		breaks, continues := b.popLoop()
		connect(bodyOut, c)
		connect(continues, c)
		v, isConst := capl.ConstEval(x.Cond)
		out := breaks
		if !(isConst && v != 0) {
			out = append(out, c)
		}
		return out

	case *capl.ForStmt:
		cur := in
		if x.Init != nil {
			cur = b.stmt(x.Init, cur)
		}
		// The loop head is the condition node, or a synthetic join for
		// the condition-less `for (;;)`.
		head := b.newNode(nil, x.Cond, pos{x.Line, x.Col})
		connect(cur, head)
		b.pushLoop()
		bodyOut := b.stmt(x.Body, []*cfgNode{head})
		breaks, continues := b.popLoop()
		back := append(bodyOut, continues...)
		if x.Post != nil {
			p := b.newNode(&capl.ExprStmt{X: x.Post, Line: x.Line, Col: x.Col}, nil, pos{x.Line, x.Col})
			connect(back, p)
			back = []*cfgNode{p}
		}
		connect(back, head)
		out := breaks
		if x.Cond != nil {
			if v, isConst := capl.ConstEval(x.Cond); !(isConst && v != 0) {
				out = append(out, head)
			}
		}
		return out

	case *capl.SwitchStmt:
		t := b.newNode(nil, x.Tag, pos{x.Line, x.Col})
		connect(in, t)
		b.breakNodes = append(b.breakNodes, nil)
		var fall []*cfgNode
		sawDefault := false
		for _, c := range x.Cases {
			if c.Value == nil {
				sawDefault = true
			}
			fall = b.stmtList(c.Stmts, append(fall, t))
		}
		breaks := b.breakNodes[len(b.breakNodes)-1]
		b.breakNodes = b.breakNodes[:len(b.breakNodes)-1]
		out := append(breaks, fall...)
		if !sawDefault || len(x.Cases) == 0 {
			out = append(out, t)
		}
		return out
	}
	return in
}

func (b *cfgBuilder) pushLoop() {
	b.breakNodes = append(b.breakNodes, nil)
	b.continueNodes = append(b.continueNodes, nil)
}

func (b *cfgBuilder) popLoop() (breaks, continues []*cfgNode) {
	breaks = b.breakNodes[len(b.breakNodes)-1]
	continues = b.continueNodes[len(b.continueNodes)-1]
	b.breakNodes = b.breakNodes[:len(b.breakNodes)-1]
	b.continueNodes = b.continueNodes[:len(b.continueNodes)-1]
	return breaks, continues
}

// reachable marks nodes reachable from entry.
func (g *cfg) reachable() []bool {
	seen := make([]bool, len(g.nodes))
	stack := []*cfgNode{g.entry}
	seen[g.entry.id] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range n.succs {
			if !seen[s.id] {
				seen[s.id] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}
