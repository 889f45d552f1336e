package caplint

import (
	"repro/internal/candb"
	"repro/internal/capl"
)

// checkTimers validates the timer protocol across the whole program:
// a timer that is set but has no `on timer` handler can only expire
// into the void (CAPL0008), and an `on timer` handler for a timer that
// is never set can never run (CAPL0009). Both weaken the extracted
// model silently, so they are surfaced before translation.
func (a *analysis) checkTimers() {
	for _, v := range a.prog.Variables {
		if kindOf(v.Type) != symTimer {
			continue
		}
		sets := a.timersSet[v.Name]
		handlers := a.timersHandled[v.Name]
		if len(sets) > 0 && len(handlers) == 0 {
			at := sets[0]
			a.report(CodeOrphanTimer, SevWarning, at.line, at.col,
				"timer %q is set but has no `on timer` handler", v.Name)
		}
		if len(handlers) > 0 && len(sets) == 0 {
			at := handlers[0]
			a.report(CodeUnfiredTimer, SevWarning, at.line, at.col,
				"`on timer %s` can never fire: the timer is never set", v.Name)
		}
	}
}

// checkDB cross-checks the program against the CAN database when one
// was supplied: declared and handled message identifiers/names must
// exist there (CAPL0013), and constant signal writes must fit the
// declared bit width (CAPL0014 / CAPL0015).
func (a *analysis) checkDB() {
	db := a.opts.DB
	if db == nil {
		return
	}
	for _, v := range a.prog.MessageDecls() {
		switch {
		case v.MsgID >= 0:
			if _, ok := db.MessageByID(uint32(v.MsgID)); !ok {
				a.report(CodeDBUnknownMsg, SevWarning, v.Line, v.Col,
					"message 0x%x (%s) is not declared in the CAN database", v.MsgID, v.Name)
			}
		case v.MsgName != "" && v.MsgName != "*":
			if _, ok := db.MessageByName(v.MsgName); !ok {
				a.report(CodeDBUnknownMsg, SevWarning, v.Line, v.Col,
					"message %q (%s) is not declared in the CAN database", v.MsgName, v.Name)
			}
		}
	}
	for _, h := range a.prog.HandlersOf(capl.OnMessage) {
		if h.TargetID < 0 {
			continue
		}
		if _, ok := db.MessageByID(uint32(h.TargetID)); !ok {
			a.report(CodeDBUnknownMsg, SevWarning, h.Line, h.Col,
				"on message 0x%x: identifier is not declared in the CAN database", h.TargetID)
		}
	}
	for _, w := range a.signalWrites {
		decl := a.messageDeclOf(w.msgVar)
		if decl == nil {
			continue
		}
		msg, ok := a.dbMessageOf(decl)
		if !ok {
			continue // missing message already reported above
		}
		sig, ok := msg.Signal(w.field)
		if !ok {
			a.report(CodeDBUnknownSignal, SevWarning, w.at.line, w.at.col,
				"message %s has no signal %q in the CAN database", msg.Name, w.field)
			continue
		}
		v, isConst := capl.ConstEval(w.value)
		if !isConst {
			continue
		}
		lo, hi := signalRawRange(sig.Signed, sig.Length)
		if v < lo || v > hi {
			a.report(CodeDBSignalWidth, SevError, w.at.line, w.at.col,
				"value %d does not fit signal %s.%s (%d bit%s, raw range %d..%d)",
				v, msg.Name, sig.Name, sig.Length, plural(sig.Length), lo, hi)
		}
	}
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// signalRawRange returns the raw value range a signal of the given
// signedness and bit length can carry.
func signalRawRange(signed bool, length int) (lo, hi int64) {
	if length <= 0 || length > 63 {
		if signed {
			return -1 << 62, 1<<62 - 1
		}
		return 0, 1<<62 - 1
	}
	if signed {
		return -1 << uint(length-1), 1<<uint(length-1) - 1
	}
	return 0, 1<<uint(length) - 1
}

func (a *analysis) messageDeclOf(name string) *capl.VarDecl {
	sym, ok := a.syms.globals[name]
	if !ok || sym.kind != symMessage {
		return nil
	}
	return sym.decl
}

func (a *analysis) dbMessageOf(decl *capl.VarDecl) (*candb.Message, bool) {
	if decl.MsgID >= 0 {
		return a.opts.DB.MessageByID(uint32(decl.MsgID))
	}
	if decl.MsgName != "" && decl.MsgName != "*" {
		return a.opts.DB.MessageByName(decl.MsgName)
	}
	return nil, false
}

// checkSoundness statically flags every construct the model extractor
// (internal/translate) would abstract or drop, so the extraction's
// soundness caveats are visible *before* a model is trusted:
//
//   - calls to unknown functions vanish from the model (CAPL0007);
//   - recursive functions cannot be inlined (CAPL0020);
//   - data-dependent conditions and switches become internal choice
//     (CAPL0016);
//   - loops whose bodies communicate are over-approximated as
//     zero-or-more iterations (CAPL0017);
//   - `on key` / `on stopMeasurement` handlers are outside the network
//     model (CAPL0018);
//   - non-constant setTimer durations collapse to one tock under the
//     timed abstraction (CAPL0019).
//
// The walk mirrors translate/body.go's structure (including function
// inlining) without building processes.
func (a *analysis) checkSoundness() {
	for _, h := range a.prog.Handlers {
		switch h.Kind {
		case capl.OnKey, capl.OnStopMeasurement:
			a.report(CodeDroppedHandler, SevInfo, h.Line, h.Col,
				"on %s handler is dropped from the extracted network model", h.Kind)
		}
		a.soundStmts(h.Body.Stmts, nil)
	}
	// Function bodies are analyzed at their (transitive) call sites so
	// the inlining stack detects recursion exactly as translation would;
	// uncalled functions are still walked once for their own findings.
	called := map[string]bool{}
	for _, h := range a.prog.Handlers {
		markCalls(h.Body, a.prog, called, nil)
	}
	for _, f := range a.prog.Functions {
		if !called[f.Name] {
			a.soundStmts(f.Body.Stmts, []string{f.Name})
		}
	}
}

// markCalls records user functions transitively reachable from s.
func markCalls(s capl.Stmt, prog *capl.Program, called map[string]bool, stack []string) {
	forEachCall(s, func(c *capl.CallExpr) {
		fn, ok := prog.Function(c.Fun)
		if !ok || called[c.Fun] {
			return
		}
		for _, active := range stack {
			if active == c.Fun {
				return
			}
		}
		called[c.Fun] = true
		markCalls(fn.Body, prog, called, append(stack, c.Fun))
	})
}

// forEachCall visits every statement-position call expression in s.
func forEachCall(s capl.Stmt, visit func(*capl.CallExpr)) {
	switch x := s.(type) {
	case *capl.BlockStmt:
		for _, st := range x.Stmts {
			forEachCall(st, visit)
		}
	case *capl.ExprStmt:
		if c, ok := x.X.(*capl.CallExpr); ok {
			visit(c)
		}
	case *capl.IfStmt:
		forEachCall(x.Then, visit)
		if x.Else != nil {
			forEachCall(x.Else, visit)
		}
	case *capl.WhileStmt:
		forEachCall(x.Body, visit)
	case *capl.DoWhileStmt:
		forEachCall(x.Body, visit)
	case *capl.ForStmt:
		forEachCall(x.Body, visit)
	case *capl.SwitchStmt:
		for _, c := range x.Cases {
			for _, st := range c.Stmts {
				forEachCall(st, visit)
			}
		}
	}
}

// soundStmts walks a statement list with the current inlining stack.
func (a *analysis) soundStmts(list []capl.Stmt, inlining []string) {
	for _, s := range list {
		a.soundStmt(s, inlining)
	}
}

func (a *analysis) soundStmt(s capl.Stmt, inlining []string) {
	switch x := s.(type) {
	case *capl.BlockStmt:
		a.soundStmts(x.Stmts, inlining)

	case *capl.ExprStmt:
		call, ok := x.X.(*capl.CallExpr)
		if !ok {
			return // pure state: the intended abstraction
		}
		switch call.Fun {
		case "output", "cancelTimer", "write", "writeEx", "writeLineEx":
			return
		case "setTimer":
			if len(call.Args) >= 2 {
				if _, isConst := capl.ConstEval(call.Args[1]); !isConst {
					a.report(CodeInexactDuration, SevInfo, x.Line, x.Col,
						"non-constant timer duration is approximated as one tock under the timed abstraction")
				}
			}
			return
		}
		fn, ok := a.prog.Function(call.Fun)
		if !ok {
			a.report(CodeUnknownFunc, SevError, x.Line, x.Col,
				"call to unknown function %s() would be abstracted away, weakening the extracted model", call.Fun)
			return
		}
		for _, active := range inlining {
			if active == call.Fun {
				a.report(CodeRecursiveFunc, SevError, x.Line, x.Col,
					"recursive function %s() cannot be inlined into the model", call.Fun)
				return
			}
		}
		a.soundStmts(fn.Body.Stmts, append(inlining, call.Fun))

	case *capl.IfStmt:
		if _, isConst := capl.ConstEval(x.Cond); !isConst {
			if a.prog.HasEvents(x.Then, true, inlining) || (x.Else != nil && a.prog.HasEvents(x.Else, true, inlining)) {
				a.report(CodeAbstractedCond, SevInfo, x.Line, x.Col,
					"data-dependent condition is abstracted to internal choice")
			}
		}
		a.soundStmt(x.Then, inlining)
		if x.Else != nil {
			a.soundStmt(x.Else, inlining)
		}

	case *capl.WhileStmt:
		a.soundLoop(x.Body, x.Line, x.Col, inlining)
	case *capl.ForStmt:
		a.soundLoop(x.Body, x.Line, x.Col, inlining)
	case *capl.DoWhileStmt:
		a.soundLoop(x.Body, x.Line, x.Col, inlining)

	case *capl.SwitchStmt:
		if _, isConst := capl.ConstEval(x.Tag); !isConst {
			hasEvents := false
			for _, c := range x.Cases {
				for _, st := range c.Stmts {
					if a.prog.HasEvents(st, true, inlining) {
						hasEvents = true
						break
					}
				}
			}
			if hasEvents {
				a.report(CodeAbstractedCond, SevInfo, x.Line, x.Col,
					"switch on runtime data is abstracted to internal choice over its arms")
			}
		}
		for _, c := range x.Cases {
			a.soundStmts(c.Stmts, inlining)
		}
	}
}

func (a *analysis) soundLoop(body capl.Stmt, line, col int, inlining []string) {
	if a.prog.HasEvents(body, true, inlining) {
		a.report(CodeAbstractedLoop, SevInfo, line, col,
			"loop with communicating body is over-approximated as zero-or-more iterations")
	}
	a.soundStmt(body, inlining)
}
