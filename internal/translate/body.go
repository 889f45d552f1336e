package translate

import (
	"fmt"

	"repro/internal/capl"
	"repro/internal/caplint"
	"repro/internal/cspm"
)

// stmts translates a statement list into a process expression ending in
// cont. inlining tracks the user-function inlining stack to reject
// recursion.
func (t *translator) stmts(list []capl.Stmt, cont cspm.ProcExpr, inlining []string) (cspm.ProcExpr, error) {
	// Translate back to front so each statement prefixes the rest.
	out := cont
	for i := len(list) - 1; i >= 0; i-- {
		var err error
		out, err = t.stmt(list[i], out, inlining)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (t *translator) stmt(s capl.Stmt, cont cspm.ProcExpr, inlining []string) (cspm.ProcExpr, error) {
	switch x := s.(type) {
	case *capl.BlockStmt:
		return t.stmts(x.Stmts, cont, inlining)

	case *capl.DeclStmt:
		// Local state is abstracted away.
		return cont, nil

	case *capl.ExprStmt:
		return t.exprStmt(x, cont, inlining)

	case *capl.IfStmt:
		return t.ifStmt(x, cont, inlining)

	case *capl.WhileStmt:
		return t.loop(x.Body, cont, inlining, false, x.Line)

	case *capl.ForStmt:
		return t.loop(x.Body, cont, inlining, false, x.Line)

	case *capl.DoWhileStmt:
		return t.loop(x.Body, cont, inlining, true, x.Line)

	case *capl.SwitchStmt:
		return t.switchStmt(x, cont, inlining)

	case *capl.ReturnStmt:
		// Return ends the procedure; anything the caller appended after
		// the call still runs, so the continuation is reached directly.
		return cont, nil

	case *capl.BreakStmt, *capl.ContinueStmt:
		// Loop control inside an already-approximated loop; the
		// approximation (see loop) covers both exits.
		return cont, nil
	}
	return nil, fmt.Errorf("unsupported statement %T", s)
}

func (t *translator) exprStmt(s *capl.ExprStmt, cont cspm.ProcExpr, inlining []string) (cspm.ProcExpr, error) {
	call, ok := s.X.(*capl.CallExpr)
	if !ok {
		// Assignments, increments etc.: pure state, abstracted away.
		return cont, nil
	}
	switch call.Fun {
	case "output":
		if len(call.Args) != 1 {
			return nil, fmt.Errorf("line %d: output() expects one argument", s.Line)
		}
		id, ok := call.Args[0].(*capl.Ident)
		if !ok {
			return nil, fmt.Errorf("line %d: output() argument must be a message variable", s.Line)
		}
		ctor, ok := t.msgCtor[id.Name]
		if !ok {
			return nil, fmt.Errorf("line %d: output(%s): message variable not declared", s.Line, id.Name)
		}
		return prefix(t.opts.OutChannel, cspm.FieldOut, cspm.IdentE{Name: ctor}, cont), nil

	case "setTimer", "cancelTimer":
		if !t.opts.IncludeTimers {
			return cont, nil
		}
		if len(call.Args) < 1 {
			return nil, fmt.Errorf("line %d: %s() expects a timer argument", s.Line, call.Fun)
		}
		id, ok := call.Args[0].(*capl.Ident)
		if !ok || !t.u.timers.has[id.Name] {
			return nil, fmt.Errorf("line %d: %s(): first argument must be a declared timer", s.Line, call.Fun)
		}
		if t.opts.TockTime && call.Fun == "setTimer" {
			ms := int64(t.opts.TockMs) // default: one tock
			if len(call.Args) >= 2 {
				if v, ok := capl.ConstEval(call.Args[1]); ok {
					ms = v
				} else {
					t.diag(caplint.CodeInexactDuration, s.Line, "non-constant timer duration approximated as one tock")
				}
			}
			return t.tockSetTimerEvent(id.Name, ms, cont)
		}
		ch := SetTimerChan
		if call.Fun == "cancelTimer" {
			ch = CancelTimerChan
		}
		return prefix(ch, cspm.FieldDot, cspm.IdentE{Name: id.Name}, cont), nil

	case "write", "writeEx", "writeLineEx":
		// Diagnostics do not appear in the network model.
		return cont, nil
	}

	// User-defined function: inline its body.
	fn, ok := t.prog.Function(call.Fun)
	if !ok {
		t.diag(caplint.CodeUnknownFunc, s.Line, "call to unknown function %s() abstracted away", call.Fun)
		return cont, nil
	}
	for _, active := range inlining {
		if active == call.Fun {
			return nil, fmt.Errorf("line %d: recursive function %s() cannot be inlined", s.Line, call.Fun)
		}
	}
	return t.stmts(fn.Body.Stmts, cont, append(inlining, call.Fun))
}

func (t *translator) ifStmt(s *capl.IfStmt, cont cspm.ProcExpr, inlining []string) (cspm.ProcExpr, error) {
	thenP, err := t.stmt(s.Then, cont, inlining)
	if err != nil {
		return nil, err
	}
	elseP := cont
	if s.Else != nil {
		elseP, err = t.stmt(s.Else, cont, inlining)
		if err != nil {
			return nil, err
		}
	}
	// Conditions over runtime data (message bytes, variables) are not
	// represented in the extracted model; translate to a literal
	// conditional when the condition is compile-time constant, otherwise
	// over-approximate by internal choice.
	if v, ok := capl.ConstEval(s.Cond); ok {
		if v != 0 {
			return thenP, nil
		}
		return elseP, nil
	}
	if sameProc(thenP, elseP) {
		return thenP, nil
	}
	t.diag(caplint.CodeAbstractedCond, s.Line, "data-dependent condition abstracted to internal choice")
	return cspm.BinProcE{Op: cspm.OpIntChoice, L: thenP, R: elseP}, nil
}

// loop over-approximates a loop whose body communicates: the body runs
// zero or more times (at least once for do-while). Event-free loops are
// dropped entirely.
func (t *translator) loop(body capl.Stmt, cont cspm.ProcExpr, inlining []string, atLeastOnce bool, line int) (cspm.ProcExpr, error) {
	if !t.prog.HasEvents(body, t.opts.IncludeTimers, inlining) {
		return cont, nil
	}
	t.auxCount++
	aux := fmt.Sprintf("%s_LOOP%d", t.opts.NodeName, t.auxCount)
	bodyP, err := t.stmt(body, cspm.CallE{Name: aux}, inlining)
	if err != nil {
		return nil, err
	}
	t.defs = append(t.defs, cspm.ProcDef{
		Name: aux,
		Body: cspm.BinProcE{Op: cspm.OpIntChoice, L: bodyP, R: cont},
	})
	t.diag(caplint.CodeAbstractedLoop, line, "loop approximated as zero-or-more iterations (%s)", aux)
	if atLeastOnce {
		return t.stmt(body, cspm.CallE{Name: aux}, inlining)
	}
	return cspm.CallE{Name: aux}, nil
}

func (t *translator) switchStmt(s *capl.SwitchStmt, cont cspm.ProcExpr, inlining []string) (cspm.ProcExpr, error) {
	if len(s.Cases) == 0 {
		return cont, nil
	}
	// A compile-time constant tag selects a single arm.
	if tag, ok := capl.ConstEval(s.Tag); ok {
		for _, c := range s.Cases {
			if c.Value == nil {
				continue
			}
			if v, ok := capl.ConstEval(c.Value); ok && v == tag {
				return t.stmts(stripBreak(c.Stmts), cont, inlining)
			}
		}
		for _, c := range s.Cases {
			if c.Value == nil {
				return t.stmts(stripBreak(c.Stmts), cont, inlining)
			}
		}
		return cont, nil
	}
	var arms []cspm.ProcExpr
	sawDefault := false
	for _, c := range s.Cases {
		if c.Value == nil {
			sawDefault = true
		}
		arm, err := t.stmts(stripBreak(c.Stmts), cont, inlining)
		if err != nil {
			return nil, err
		}
		arms = append(arms, arm)
	}
	if !sawDefault {
		arms = append(arms, cont)
	}
	t.diag(caplint.CodeAbstractedCond, s.Line, "switch on runtime data abstracted to internal choice over %d arm(s)", len(arms))
	out := arms[0]
	for _, a := range arms[1:] {
		if sameProc(out, a) {
			continue
		}
		out = cspm.BinProcE{Op: cspm.OpIntChoice, L: out, R: a}
	}
	return out, nil
}

// stripBreak removes a trailing break from a case arm.
func stripBreak(list []capl.Stmt) []capl.Stmt {
	if n := len(list); n > 0 {
		if _, ok := list[n-1].(*capl.BreakStmt); ok {
			return list[:n-1]
		}
	}
	return list
}

// sameProc reports whether two translated processes are the same
// syntax tree (used to collapse redundant internal choices).
var sameProc = cspm.EqualProc
