package caplint

import (
	"sort"

	"repro/internal/capl"
)

// The dataflow pass runs three analyses over each body's CFG:
//
//   - reachability        -> CAPL0004 unreachable statement
//   - backward liveness   -> CAPL0005 dead store
//   - forward must-assign -> CAPL0006 read before any assignment
//
// Only scalar, non-array locals participate in the value analyses:
// globals carry state between handlers, arrays and message objects see
// weak updates, and parameters arrive assigned. A name declared in two
// different blocks of the same body is skipped entirely (the analyses
// are name- rather than scope-based, so shadowing would conflate them).

type localInfo struct {
	hasInit  bool
	zeroInit bool // initialiser is the constant 0 (idiomatic clear)
	isParam  bool
	skip     bool // shadowed, array, or non-scalar
}

// checkFlow builds a CFG per handler and function body and runs the
// three analyses.
func (a *analysis) checkFlow() {
	for _, h := range a.prog.Handlers {
		a.flowBody(h.Body, nil)
	}
	for _, f := range a.prog.Functions {
		a.flowBody(f.Body, f.Params)
	}
}

func (a *analysis) flowBody(body *capl.BlockStmt, params []*capl.VarDecl) {
	if body == nil {
		return
	}
	g := buildCFG(body)
	locals := collectLocals(body, params)

	a.reportUnreachable(g)

	// Per-node use/def sets over the participating locals.
	uses := make([]map[string]bool, len(g.nodes))
	defs := make([]map[string]bool, len(g.nodes))
	stores := make([]map[string]pos, len(g.nodes))
	declInits := make([]map[string]bool, len(g.nodes))
	for _, n := range g.nodes {
		u, d, st, di := nodeUseDef(n, locals)
		uses[n.id], defs[n.id], stores[n.id], declInits[n.id] = u, d, st, di
	}

	a.reportDeadStores(g, locals, uses, defs, stores)
	a.reportUninitReads(g, locals, uses, defs, declInits, params)
}

// collectLocals gathers the body's declared locals and parameters,
// marking names the analyses must skip.
func collectLocals(body *capl.BlockStmt, params []*capl.VarDecl) map[string]*localInfo {
	locals := map[string]*localInfo{}
	for _, p := range params {
		locals[p.Name] = &localInfo{hasInit: true, isParam: true, skip: len(p.Type.ArrayDims) > 0}
	}
	var walk func(s capl.Stmt)
	walk = func(s capl.Stmt) {
		switch x := s.(type) {
		case *capl.BlockStmt:
			for _, st := range x.Stmts {
				walk(st)
			}
		case *capl.DeclStmt:
			for _, d := range x.Decls {
				if prev, ok := locals[d.Name]; ok {
					prev.skip = true // shadowing across blocks
					continue
				}
				zero := false
				if v, isConst := capl.ConstEval(d.Init); isConst && v == 0 {
					zero = true
				}
				locals[d.Name] = &localInfo{
					hasInit:  d.Init != nil,
					zeroInit: zero,
					skip: len(d.Type.ArrayDims) > 0 ||
						d.Type.Base == capl.TypeMessage ||
						d.Type.Base == capl.TypeMsTimer ||
						d.Type.Base == capl.TypeTimer,
				}
			}
		case *capl.IfStmt:
			walk(x.Then)
			if x.Else != nil {
				walk(x.Else)
			}
		case *capl.WhileStmt:
			walk(x.Body)
		case *capl.DoWhileStmt:
			walk(x.Body)
		case *capl.ForStmt:
			if x.Init != nil {
				walk(x.Init)
			}
			walk(x.Body)
		case *capl.SwitchStmt:
			for _, c := range x.Cases {
				for _, st := range c.Stmts {
					walk(st)
				}
			}
		}
	}
	walk(body)
	return locals
}

// tracked reports whether the name participates in the value analyses.
func tracked(locals map[string]*localInfo, name string) bool {
	li, ok := locals[name]
	return ok && !li.skip
}

// nodeUseDef extracts the node's variable reads (uses), strong writes
// (defs), reportable store sites (stores) and declaration initialisers
// (declInits) over the tracked locals.
func nodeUseDef(n *cfgNode, locals map[string]*localInfo) (uses, defs map[string]bool, stores map[string]pos, declInits map[string]bool) {
	uses = map[string]bool{}
	defs = map[string]bool{}
	stores = map[string]pos{}
	declInits = map[string]bool{}

	var walkExpr func(e capl.Expr)
	walkExpr = func(e capl.Expr) {
		switch x := e.(type) {
		case *capl.Ident:
			if tracked(locals, x.Name) {
				uses[x.Name] = true
			}
		case *capl.BinaryExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case *capl.UnaryExpr:
			if x.Op == capl.INC || x.Op == capl.DEC {
				if id, ok := x.X.(*capl.Ident); ok && tracked(locals, id.Name) {
					uses[id.Name] = true
					defs[id.Name] = true
					return
				}
			}
			walkExpr(x.X)
		case *capl.PostfixExpr:
			if id, ok := x.X.(*capl.Ident); ok && tracked(locals, id.Name) {
				uses[id.Name] = true
				defs[id.Name] = true
				return
			}
			walkExpr(x.X)
		case *capl.AssignExpr:
			walkExpr(x.R)
			switch l := x.L.(type) {
			case *capl.Ident:
				if tracked(locals, l.Name) {
					if x.Op != capl.ASSIGN {
						uses[l.Name] = true // compound assignment reads first
					}
					defs[l.Name] = true
					stores[l.Name] = pos{x.Line, x.Col}
				}
			default:
				// Member/index writes are weak updates: the base object
				// stays live and is also read.
				walkExpr(x.L)
			}
		case *capl.CondExpr:
			walkExpr(x.Cond)
			walkExpr(x.Then)
			walkExpr(x.Else)
		case *capl.CallExpr:
			for _, arg := range x.Args {
				walkExpr(arg)
			}
		case *capl.MemberExpr:
			walkExpr(x.X)
			for _, arg := range x.Args {
				walkExpr(arg)
			}
		case *capl.IndexExpr:
			walkExpr(x.X)
			walkExpr(x.Index)
		}
	}

	switch {
	case n.cond != nil:
		walkExpr(n.cond)
	case n.stmt != nil:
		switch s := n.stmt.(type) {
		case *capl.ExprStmt:
			walkExpr(s.X)
		case *capl.ReturnStmt:
			walkExpr(s.X)
		case *capl.DeclStmt:
			for _, d := range s.Decls {
				if d.Init == nil {
					continue
				}
				walkExpr(d.Init)
				if tracked(locals, d.Name) {
					defs[d.Name] = true
					declInits[d.Name] = true
					li := locals[d.Name]
					if !li.zeroInit {
						stores[d.Name] = pos{d.Line, d.Col}
					}
				}
			}
		}
	}
	return uses, defs, stores, declInits
}

// reportUnreachable flags the first statement of each maximal
// unreachable region (CAPL0004).
func (a *analysis) reportUnreachable(g *cfg) {
	seen := g.reachable()
	reportable := func(n *cfgNode) bool { return n.stmt != nil || n.cond != nil }
	for _, n := range g.nodes {
		if seen[n.id] || !reportable(n) {
			continue
		}
		// Report only region heads, so one finding covers a whole dead
		// region: a head has no unreachable reportable predecessor.
		head := true
		for _, p := range n.preds {
			if !seen[p.id] && reportable(p) {
				head = false
				break
			}
		}
		if head {
			a.report(CodeUnreachable, SevWarning, n.at.line, n.at.col,
				"statement can never execute")
		}
	}
}

// reportDeadStores runs backward liveness and flags stores whose value
// is never read (CAPL0005).
func (a *analysis) reportDeadStores(g *cfg, locals map[string]*localInfo, uses, defs []map[string]bool, stores []map[string]pos) {
	liveIn := make([]map[string]bool, len(g.nodes))
	for i := range liveIn {
		liveIn[i] = map[string]bool{}
	}
	changed := true
	for changed {
		changed = false
		for i := len(g.nodes) - 1; i >= 0; i-- {
			n := g.nodes[i]
			out := map[string]bool{}
			for _, s := range n.succs {
				for v := range liveIn[s.id] {
					out[v] = true
				}
			}
			in := map[string]bool{}
			for v := range uses[n.id] {
				in[v] = true
			}
			for v := range out {
				if !defs[n.id][v] {
					in[v] = true
				}
			}
			if !sameSet(in, liveIn[n.id]) {
				liveIn[n.id] = in
				changed = true
			}
		}
	}
	seen := g.reachable()
	type finding struct {
		at   pos
		name string
	}
	var found []finding
	for _, n := range g.nodes {
		if !seen[n.id] {
			continue // unreachable code is already reported
		}
		out := map[string]bool{}
		for _, s := range n.succs {
			for v := range liveIn[s.id] {
				out[v] = true
			}
		}
		for v, at := range stores[n.id] {
			if !out[v] {
				found = append(found, finding{at, v})
			}
		}
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].at.line != found[j].at.line {
			return found[i].at.line < found[j].at.line
		}
		return found[i].name < found[j].name
	})
	for _, f := range found {
		a.report(CodeDeadStore, SevWarning, f.at.line, f.at.col,
			"value stored to %q is never read", f.name)
	}
}

// reportUninitReads runs forward must-assigned analysis and flags reads
// of locals before any assignment (CAPL0006). CAPL zero-initialises,
// so this is a warning about intent, not undefined behaviour.
func (a *analysis) reportUninitReads(g *cfg, locals map[string]*localInfo, uses, defs []map[string]bool, declInits []map[string]bool, params []*capl.VarDecl) {
	// Universe: tracked locals declared without an initialiser.
	watch := map[string]bool{}
	for name, li := range locals {
		if !li.skip && !li.hasInit && !li.isParam {
			watch[name] = true
		}
	}
	if len(watch) == 0 {
		return
	}
	// assignedIn[n] = set of watched vars definitely assigned on every
	// path reaching n. Initialised to the universe and shrunk to a
	// greatest fixpoint.
	assignedIn := make([]map[string]bool, len(g.nodes))
	for i := range assignedIn {
		assignedIn[i] = copySet(watch)
	}
	assignedIn[g.entry.id] = map[string]bool{}
	changed := true
	for changed {
		changed = false
		for _, n := range g.nodes {
			if n == g.entry {
				continue
			}
			var in map[string]bool
			if len(n.preds) == 0 {
				in = copySet(watch) // unreachable: assume assigned
			} else {
				in = nil
				for _, p := range n.preds {
					outP := copySet(assignedIn[p.id])
					for v := range defs[p.id] {
						outP[v] = true
					}
					for v := range declInits[p.id] {
						outP[v] = true
					}
					if in == nil {
						in = outP
					} else {
						in = intersect(in, outP)
					}
				}
			}
			if !sameSet(in, assignedIn[n.id]) {
				assignedIn[n.id] = in
				changed = true
			}
		}
	}
	reported := map[string]bool{}
	type finding struct {
		at   pos
		name string
	}
	var found []finding
	seen := g.reachable()
	for _, n := range g.nodes {
		if !seen[n.id] {
			continue
		}
		for v := range uses[n.id] {
			if watch[v] && !assignedIn[n.id][v] {
				found = append(found, finding{n.at, v})
			}
		}
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].at.line != found[j].at.line {
			return found[i].at.line < found[j].at.line
		}
		return found[i].name < found[j].name
	})
	for _, f := range found {
		if reported[f.name] {
			continue
		}
		reported[f.name] = true
		a.report(CodeUninitRead, SevWarning, f.at.line, f.at.col,
			"%q read before any assignment (CAPL zero-initialises; assign explicitly if intended)", f.name)
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if !b[v] {
			return false
		}
	}
	return true
}

func copySet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for v := range s {
		out[v] = true
	}
	return out
}

func intersect(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for v := range a {
		if b[v] {
			out[v] = true
		}
	}
	return out
}
