package cspm

import (
	"fmt"
	"strings"
)

// Print renders a Script as CSPm source text. The output parses back to
// an equivalent script (modulo whitespace), which the round-trip tests
// verify.
func Print(s *Script) string {
	var sb strings.Builder
	for i, d := range s.Decls {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(PrintDecl(d))
		sb.WriteByte('\n')
	}
	if len(s.Asserts) > 0 {
		sb.WriteByte('\n')
	}
	for _, a := range s.Asserts {
		sb.WriteString(printAssert(a))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// PrintDecl renders one top-level declaration on a single line.
func PrintDecl(d Decl) string {
	switch x := d.(type) {
	case ChannelDecl:
		out := "channel " + strings.Join(x.Names, ", ")
		if len(x.Fields) > 0 {
			parts := make([]string, len(x.Fields))
			for i, f := range x.Fields {
				parts[i] = printTypeExpr(f)
			}
			out += " : " + strings.Join(parts, ".")
		}
		return out
	case DatatypeDecl:
		parts := make([]string, len(x.Ctors))
		for i, c := range x.Ctors {
			p := c.Name
			for _, f := range c.Fields {
				p += "." + printTypeExpr(f)
			}
			parts[i] = p
		}
		return "datatype " + x.Name + " = " + strings.Join(parts, " | ")
	case NametypeDecl:
		return "nametype " + x.Name + " = " + printSet(x.Set)
	case ProcDef:
		head := x.Name
		if len(x.Params) > 0 {
			head += "(" + strings.Join(x.Params, ", ") + ")"
		}
		return head + " = " + PrintProc(x.Body)
	}
	return fmt.Sprintf("-- unknown declaration %T", d)
}

func printTypeExpr(t TypeExpr) string {
	switch x := t.(type) {
	case TypeRef:
		return x.Name
	case TypeRange:
		return fmt.Sprintf("{%d..%d}", x.Lo, x.Hi)
	}
	return "?"
}

func printAssert(a Assertion) string {
	switch a.Kind {
	case AssertTraceRef:
		return "assert " + PrintProc(a.Spec) + " [T= " + PrintProc(a.Impl)
	case AssertFailRef:
		return "assert " + PrintProc(a.Spec) + " [F= " + PrintProc(a.Impl)
	case AssertFDRef:
		return "assert " + PrintProc(a.Spec) + " [FD= " + PrintProc(a.Impl)
	case AssertDeadlockFree:
		return "assert " + PrintProc(a.Impl) + " :[deadlock free]"
	case AssertDivergenceFree:
		return "assert " + PrintProc(a.Impl) + " :[divergence free]"
	}
	return "-- unknown assertion"
}

// Operator binding strengths for minimal parenthesisation; larger binds
// tighter, mirroring the parser's precedence levels.
const (
	precIntChoice = iota + 1
	precExtChoice
	precPar
	precSeq
	precGuard
	precPostfix
	precPrimary
)

// PrintProc renders a process expression in CSPm concrete syntax.
func PrintProc(p ProcExpr) string {
	return printProc(p, precIntChoice)
}

func printProc(p ProcExpr, outer int) string {
	var out string
	var prec int
	switch x := p.(type) {
	case StopE:
		return "STOP"
	case SkipE:
		return "SKIP"
	case CallE:
		if len(x.Args) == 0 {
			return x.Name
		}
		parts := make([]string, len(x.Args))
		for i, a := range x.Args {
			parts[i] = PrintExpr(a)
		}
		return x.Name + "(" + strings.Join(parts, ", ") + ")"
	case PrefixE:
		comm := x.Chan
		for _, f := range x.Fields {
			switch f.Kind {
			case FieldDot:
				comm += "." + printFieldExpr(f.Expr)
			case FieldOut:
				comm += "!" + printFieldExpr(f.Expr)
			case FieldIn:
				comm += "?" + f.Var
				if f.In != nil {
					comm += ":" + printSet(f.In)
				}
			}
		}
		out = comm + " -> " + printProc(x.Cont, precGuard)
		prec = precGuard
	case BinProcE:
		var op string
		switch x.Op {
		case OpExtChoice:
			op, prec = "[]", precExtChoice
		case OpIntChoice:
			op, prec = "|~|", precIntChoice
		case OpSeqComp:
			op, prec = ";", precSeq
		case OpInterleave:
			op, prec = "|||", precPar
		case OpGenPar:
			op, prec = "[| "+printSet(x.Sync)+" |]", precPar
		}
		out = printProc(x.L, prec) + " " + op + " " + printProc(x.R, prec+1)
	case ReplE:
		op := "[]"
		if x.Op == OpInterleave {
			op = "|||"
		}
		out = op + " " + x.Var + ":" + printSet(x.Set) + " @ " + printProc(x.Body, precGuard)
		prec = precGuard
	case HideE:
		out = printProc(x.P, precPostfix) + " \\ " + printSet(x.Set)
		prec = precPostfix
	case RenameE:
		pairs := make([]string, len(x.Pairs))
		for i, pr := range x.Pairs {
			pairs[i] = pr[0] + " <- " + pr[1]
		}
		out = printProc(x.P, precPostfix) + "[[" + strings.Join(pairs, ", ") + "]]"
		prec = precPostfix
	case IfE:
		out = "if " + PrintExpr(x.Cond) + " then " + printProc(x.Then, precIntChoice) +
			" else " + printProc(x.Else, precIntChoice)
		prec = precIntChoice
	case GuardE:
		out = PrintExpr(x.Cond) + " & " + printProc(x.P, precGuard)
		prec = precGuard
	default:
		return fmt.Sprintf("<unknown %T>", p)
	}
	if prec < outer {
		return "(" + out + ")"
	}
	return out
}

// printFieldExpr renders a communication field value, parenthesising
// compound (dotted or operator) expressions as the parser requires.
func printFieldExpr(e ExprE) string {
	switch e.(type) {
	case IntE, BoolE, IdentE:
		return PrintExpr(e)
	}
	return "(" + PrintExpr(e) + ")"
}

// PrintExpr renders a value expression.
func PrintExpr(e ExprE) string {
	switch x := e.(type) {
	case IntE:
		return fmt.Sprintf("%d", x.Val)
	case BoolE:
		if x.Val {
			return "true"
		}
		return "false"
	case IdentE:
		return x.Name
	case DottedE:
		parts := make([]string, 0, len(x.Args)+1)
		parts = append(parts, x.Head)
		for _, a := range x.Args {
			parts = append(parts, printAtomExpr(a))
		}
		return strings.Join(parts, ".")
	case BinE:
		return "(" + PrintExpr(x.L) + " " + x.Op + " " + PrintExpr(x.R) + ")"
	case UnE:
		if x.Op == "-" {
			return "(-" + PrintExpr(x.X) + ")"
		}
		return "(not " + PrintExpr(x.X) + ")"
	case MemberE:
		return "member(" + PrintExpr(x.Elem) + ", " + printSet(x.Set) + ")"
	}
	return fmt.Sprintf("<unknown %T>", e)
}

func printAtomExpr(e ExprE) string {
	switch e.(type) {
	case IntE, BoolE, IdentE:
		return PrintExpr(e)
	}
	return "(" + PrintExpr(e) + ")"
}

func printSet(s SetExpr) string {
	switch x := s.(type) {
	case ProdSet:
		return "{| " + strings.Join(x.Channels, ", ") + " |}"
	case ExplicitSet:
		parts := make([]string, len(x.Elems))
		for i, e := range x.Elems {
			parts[i] = PrintExpr(e)
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case RangeSet:
		return fmt.Sprintf("{%d..%d}", x.Lo, x.Hi)
	case SetRef:
		return x.Name
	case SetUnion:
		return "union(" + printSet(x.L) + ", " + printSet(x.R) + ")"
	}
	return "?"
}
