package translate

import (
	"fmt"

	"repro/internal/capl"
	"repro/internal/cspm"
)

// This file implements the paper's preferred approach to time (section
// VII-B): extending the model alphabet with a distinguished `tock`
// event rather than moving to continuous Timed CSP. Under
// Options.TockTime:
//
//   - a `tock` channel marks the passage of one time quantum
//     (Options.TockMs milliseconds of CAPL time);
//   - setTimer(t, ms) becomes the event setTimer.t.d where d is the
//     duration in tocks (constant-folded from the CAPL literal);
//   - the generated TIMER(t) process counts tocks down and offers
//     timeout.t exactly when the countdown reaches zero;
//   - the node's recurring states allow tock to pass freely, while
//     handler bodies execute without intervening tocks (the synchrony
//     hypothesis: event procedures are instantaneous at this
//     abstraction level).
//
// The resulting models let time-dependent ordering be checked with the
// same untimed trace refinement machinery.

// TockChan is the time-passage channel name.
const TockChan = "tock"

// tockDuration converts a CAPL millisecond literal to tocks, rounding
// up so a timer never fires early. Translate has set TockMs > 0.
func (t *translator) tockDuration(ms int64) int {
	q := int64(t.opts.TockMs)
	return max(1, int((ms+q-1)/q))
}

// maxTockDuration scans the program for constant setTimer durations and
// returns the largest in tocks (minimum 1).
func (t *translator) maxTockDuration() int {
	maxDur := 1
	var walkStmt func(s capl.Stmt)
	walkExpr := func(e capl.Expr) {
		call, ok := e.(*capl.CallExpr)
		if !ok || call.Fun != "setTimer" || len(call.Args) < 2 {
			return
		}
		if ms, ok := capl.ConstEval(call.Args[1]); ok {
			if d := t.tockDuration(ms); d > maxDur {
				maxDur = d
			}
		}
	}
	walkStmt = func(s capl.Stmt) {
		switch x := s.(type) {
		case *capl.BlockStmt:
			for _, st := range x.Stmts {
				walkStmt(st)
			}
		case *capl.ExprStmt:
			walkExpr(x.X)
		case *capl.IfStmt:
			walkStmt(x.Then)
			if x.Else != nil {
				walkStmt(x.Else)
			}
		case *capl.WhileStmt:
			walkStmt(x.Body)
		case *capl.DoWhileStmt:
			walkStmt(x.Body)
		case *capl.ForStmt:
			walkStmt(x.Body)
		case *capl.SwitchStmt:
			for _, c := range x.Cases {
				for _, st := range c.Stmts {
					walkStmt(st)
				}
			}
		}
	}
	for _, h := range t.prog.Handlers {
		walkStmt(h.Body)
	}
	for _, fn := range t.prog.Functions {
		walkStmt(fn.Body)
	}
	return maxDur
}

// tockSetTimerEvent builds the setTimer.t.d prefix for the tock model.
func (t *translator) tockSetTimerEvent(timer string, ms int64, cont cspm.ProcExpr) (cspm.ProcExpr, error) {
	d := t.tockDuration(ms)
	if d > t.maxDur {
		return nil, fmt.Errorf("internal: duration %d exceeds computed maximum %d", d, t.maxDur)
	}
	return cspm.PrefixE{
		Chan: SetTimerChan,
		Fields: []cspm.FieldE{
			{Kind: cspm.FieldDot, Expr: cspm.IdentE{Name: timer}},
			{Kind: cspm.FieldDot, Expr: cspm.IntE{Val: d}},
		},
		Cont: cont,
	}, nil
}

// tockTimerProcess builds the counting timer:
//
//	TIMER(t) = setTimer.t?d -> ARMED(t, d) [] tock -> TIMER(t)
//	ARMED(t, n) = if n == 0 then timeout.t -> TIMER(t)
//	              else (tock -> ARMED(t, n-1) [] cancelTimer.t -> TIMER(t))
func tockTimerProcess() []cspm.ProcDef {
	tVar, nVar := cspm.IdentE{Name: "t"}, cspm.IdentE{Name: "n"}
	timer := cspm.CallE{Name: "TIMER", Args: []cspm.ExprE{tVar}}
	set := cspm.PrefixE{
		Chan:   SetTimerChan,
		Fields: []cspm.FieldE{{Kind: cspm.FieldOut, Expr: tVar}, {Kind: cspm.FieldIn, Var: "d"}},
		Cont:   cspm.CallE{Name: "ARMED", Args: []cspm.ExprE{tVar, cspm.IdentE{Name: "d"}}},
	}
	countdown := cspm.CallE{Name: "ARMED", Args: []cspm.ExprE{tVar, cspm.BinE{Op: "-", L: nVar, R: cspm.IntE{Val: 1}}}}
	armed := cspm.IfE{
		Cond: cspm.BinE{Op: "==", L: nVar, R: cspm.IntE{Val: 0}},
		Then: prefix(TimeoutChan, cspm.FieldOut, tVar, timer),
		Else: cspm.BinProcE{Op: cspm.OpExtChoice,
			L: cspm.PrefixE{Chan: TockChan, Cont: countdown},
			R: prefix(CancelTimerChan, cspm.FieldOut, tVar, timer)},
	}
	return []cspm.ProcDef{
		{Name: "TIMER", Params: []string{"t"}, Body: allowTock(set, timer)},
		{Name: "ARMED", Params: []string{"t", "n"}, Body: armed},
	}
}

// allowTock wraps a recurring state's body so that time may pass:
// body [] tock -> <self>.
func allowTock(body cspm.ProcExpr, self cspm.ProcExpr) cspm.ProcExpr {
	return cspm.BinProcE{
		Op: cspm.OpExtChoice,
		L:  body,
		R:  cspm.PrefixE{Chan: TockChan, Cont: self},
	}
}
