package capl

// HasEvents reports whether executing s can produce an event in the
// extracted model: an output, or with timers a setTimer/cancelTimer,
// reached directly or through the program's functions. inlining lists
// the functions already being expanded; a recursive call to one of them
// adds no events.
func (p *Program) HasEvents(s Stmt, timers bool, inlining []string) bool {
	switch x := s.(type) {
	case *BlockStmt:
		for _, st := range x.Stmts {
			if p.HasEvents(st, timers, inlining) {
				return true
			}
		}
	case *ExprStmt:
		call, ok := x.X.(*CallExpr)
		if !ok {
			return false
		}
		switch call.Fun {
		case "output":
			return true
		case "setTimer", "cancelTimer":
			return timers
		case "write", "writeEx", "writeLineEx":
			return false
		}
		if fn, ok := p.Function(call.Fun); ok {
			for _, active := range inlining {
				if active == call.Fun {
					return false
				}
			}
			return p.HasEvents(fn.Body, timers, append(inlining, call.Fun))
		}
	case *IfStmt:
		if p.HasEvents(x.Then, timers, inlining) {
			return true
		}
		if x.Else != nil {
			return p.HasEvents(x.Else, timers, inlining)
		}
	case *WhileStmt:
		return p.HasEvents(x.Body, timers, inlining)
	case *DoWhileStmt:
		return p.HasEvents(x.Body, timers, inlining)
	case *ForStmt:
		return p.HasEvents(x.Body, timers, inlining)
	case *SwitchStmt:
		for _, c := range x.Cases {
			for _, st := range c.Stmts {
				if p.HasEvents(st, timers, inlining) {
					return true
				}
			}
		}
	}
	return false
}

// ConstEval folds a compile-time constant integer expression. The
// translator and the linter both fold through it, so reachability
// decisions agree with the generated model.
func ConstEval(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, true
	case *UnaryExpr:
		v, ok := ConstEval(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case MINUS:
			return -v, true
		case BANG:
			if v == 0 {
				return 1, true
			}
			return 0, true
		case TILDE:
			return ^v, true
		}
	case *BinaryExpr:
		l, ok := ConstEval(x.L)
		if !ok {
			return 0, false
		}
		r, ok := ConstEval(x.R)
		if !ok {
			return 0, false
		}
		return constBinary(x.Op, l, r)
	}
	return 0, false
}

func constBinary(op Kind, l, r int64) (int64, bool) {
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case PLUS:
		return l + r, true
	case MINUS:
		return l - r, true
	case STAR:
		return l * r, true
	case SLASH:
		if r == 0 {
			return 0, false
		}
		return l / r, true
	case PERCENT:
		if r == 0 {
			return 0, false
		}
		return l % r, true
	case EQ:
		return b2i(l == r), true
	case NE:
		return b2i(l != r), true
	case LT:
		return b2i(l < r), true
	case LE:
		return b2i(l <= r), true
	case GT:
		return b2i(l > r), true
	case GE:
		return b2i(l >= r), true
	case ANDAND:
		return b2i(l != 0 && r != 0), true
	case OROR:
		return b2i(l != 0 || r != 0), true
	case AMP:
		return l & r, true
	case PIPE:
		return l | r, true
	case CARET:
		return l ^ r, true
	case SHL:
		return l << uint(r&63), true
	case SHR:
		return l >> uint(r&63), true
	}
	return 0, false
}
