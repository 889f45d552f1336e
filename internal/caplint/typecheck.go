package caplint

import (
	"fmt"

	"repro/internal/candb"
	"repro/internal/capl"
)

// This file is the CAPL typechecker pass (the CAPL0100+ codes): a type
// lattice over the declared CAPL types, implicit-conversion rules with
// lossy-narrowing warnings, CANdb signal-width agreement for
// non-constant writes, call-site arity/argument checking for user
// functions and the timer/builtin API, and return-type checking.
//
// Two deliberate silences keep the pass composable with the earlier
// ones: an unresolved name types as tyInvalid and produces nothing here
// (the resolver already reported CAPL0002/0003), and constant writes to
// CANdb signals are left to the existing CAPL0014 range check. CAPL's
// own compiler is forgiving about numeric mixing, so plain width-safe
// conversions are accepted; only conversions that can lose value range,
// sign or fractional part are reported, and only when the source type
// is actually known (an expression of unknown width never warns).

// tyClass partitions the CAPL types by how values may be used.
type tyClass int

const (
	tyInvalid tyClass = iota // unresolved or already-reported: stays silent
	tyNumeric
	tyMessage
	tyTimer
	tyString
	tyArray
	tyVoid
)

// ty is the inferred type of an expression.
type ty struct {
	class tyClass
	// Numeric info. bits is 0 when the width is unknown (literals,
	// comparison results, unknown signals); unknown widths never warn.
	bits   int
	signed bool
	float  bool
	// name is the CAPL spelling used in diagnostics ("long", "byte[8]").
	name string
	// spec is the declared type for arrays (indexing strips dimensions).
	spec capl.TypeSpec
	// msgDecl/msgID locate the CANdb message for signal selectors:
	// msgDecl for `message X m` variables, msgID for `this` inside
	// `on message 0x123`. msgID is -1 when unknown.
	msgDecl *capl.VarDecl
	msgID   int64
	// isSignal marks a CANdb signal lvalue (bits = declared signal
	// length); narrowing into one reports CAPL0108, not CAPL0101.
	isSignal bool
	sigRef   string // "Message.Signal" for diagnostics
}

func (t ty) String() string {
	if t.name != "" {
		return t.name
	}
	switch t.class {
	case tyNumeric:
		return "numeric"
	case tyMessage:
		return "message"
	case tyTimer:
		return "timer"
	case tyString:
		return "string"
	case tyArray:
		return "array"
	case tyVoid:
		return "void"
	}
	return "unknown"
}

// tyOfSpec maps a declared TypeSpec onto the lattice.
func tyOfSpec(t capl.TypeSpec) ty {
	if len(t.ArrayDims) > 0 {
		return ty{class: tyArray, spec: t, name: t.String()}
	}
	switch t.Base {
	case capl.TypeByte:
		return ty{class: tyNumeric, bits: 8, name: "byte"}
	case capl.TypeChar:
		return ty{class: tyNumeric, bits: 8, signed: true, name: "char"}
	case capl.TypeInt:
		return ty{class: tyNumeric, bits: 16, signed: true, name: "int"}
	case capl.TypeWord:
		return ty{class: tyNumeric, bits: 16, name: "word"}
	case capl.TypeLong:
		return ty{class: tyNumeric, bits: 32, signed: true, name: "long"}
	case capl.TypeDword:
		return ty{class: tyNumeric, bits: 32, name: "dword"}
	case capl.TypeFloat:
		return ty{class: tyNumeric, float: true, name: "float"}
	case capl.TypeDouble:
		return ty{class: tyNumeric, float: true, name: "double"}
	case capl.TypeVoid:
		return ty{class: tyVoid, name: "void"}
	case capl.TypeMessage:
		return ty{class: tyMessage, name: "message", msgID: -1}
	case capl.TypeMsTimer, capl.TypeTimer:
		return ty{class: tyTimer, name: t.Base.String()}
	}
	return ty{class: tyInvalid}
}

// numAny is a numeric value of unknown width: it participates in
// arithmetic but never triggers narrowing warnings.
func numAny() ty { return ty{class: tyNumeric, name: "int"} }

// definite reports whether the class is known well enough to complain
// about (tyInvalid means an earlier pass already did).
func (t ty) definite() bool { return t.class != tyInvalid }

// numRange returns the representable range of a known-width integer
// type; ok is false for floats and unknown widths.
func numRange(t ty) (lo, hi int64, ok bool) {
	if t.float || t.bits <= 0 {
		return 0, 0, false
	}
	lo, hi = signalRawRange(t.signed, t.bits)
	return lo, hi, true
}

// fitsWithin reports whether every value of rt is representable in lt.
// Unknown widths conservatively fit (silence over noise).
func fitsWithin(rt, lt ty) bool {
	if lt.float {
		return true
	}
	if rt.float {
		return false
	}
	rlo, rhi, rok := numRange(rt)
	llo, lhi, lok := numRange(lt)
	if !rok || !lok {
		return true
	}
	return rlo >= llo && rhi <= lhi
}

// mergeNum is the principal type of a binary arithmetic expression:
// float beats integer, wider beats narrower, and a known-width operand
// beats an unknown one. The sign bit is sticky — mixing a signed and an
// unsigned operand of the same width yields a signed result, which is
// what makes the later range check sound.
func mergeNum(l, r ty) ty {
	if l.class != tyNumeric {
		return r
	}
	if r.class != tyNumeric {
		return l
	}
	if l.float || r.float {
		out := ty{class: tyNumeric, float: true, name: "double"}
		if l.float {
			out.name = l.name
		} else if r.float {
			out.name = r.name
		}
		return out
	}
	if l.bits == 0 && r.bits == 0 {
		return numAny()
	}
	if l.bits == 0 {
		return ty{class: tyNumeric, bits: r.bits, signed: r.signed, name: r.name}
	}
	if r.bits == 0 {
		return ty{class: tyNumeric, bits: l.bits, signed: l.signed, name: l.name}
	}
	wider := l
	if r.bits > l.bits {
		wider = r
	}
	return ty{class: tyNumeric, bits: wider.bits, signed: l.signed || r.signed, name: wider.name}
}

// checkTypes is the typechecker pass entry point: global initialisers,
// then every handler and function body.
func (a *analysis) checkTypes() {
	for _, v := range a.prog.Variables {
		if v.Init == nil {
			continue
		}
		tc := &tchecker{a: a, thisID: -1}
		rt := tc.expr(v.Init, nil)
		tc.checkAssign(tyOfSpec(v.Type), rt, v.Init, true, v.Line, v.Col)
	}
	for _, h := range a.prog.Handlers {
		tc := &tchecker{a: a, thisID: -1}
		if h.Kind == capl.OnMessage {
			tc.inMsgHandler = true
			tc.thisID = h.TargetID
			if h.Target != "" && h.Target != "*" && h.TargetID < 0 {
				if sym, ok := a.syms.globals[h.Target]; ok && sym.kind == symMessage {
					tc.thisDecl = sym.decl
				}
			}
		}
		tc.block(h.Body, nil)
	}
	for _, f := range a.prog.Functions {
		tc := &tchecker{a: a, thisID: -1, fn: f}
		top := &scope{names: map[string]*symbol{}}
		for _, p := range f.Params {
			top.names[p.Name] = &symbol{name: p.Name, kind: symParam, typ: p.Type, decl: p, at: pos{p.Line, p.Col}}
		}
		tc.block(f.Body, top)
		ret := tyOfSpec(f.Return)
		if ret.class != tyVoid && ret.definite() && !tc.sawValueReturn {
			a.report(CodeBadReturn, SevError, f.Line, f.Col,
				"function %q is declared to return %s but never returns a value", f.Name, ret)
		}
	}
}

// tchecker walks one handler or function body with a lexical scope
// chain mirroring the resolver's.
type tchecker struct {
	a *analysis
	// this-context for `on message` handlers.
	inMsgHandler bool
	thisDecl     *capl.VarDecl
	thisID       int64
	// fn is the enclosing function; nil inside handlers.
	fn             *capl.FuncDecl
	sawValueReturn bool
}

func (tc *tchecker) report(code string, sev Severity, line, col int, format string, args ...any) {
	tc.a.report(code, sev, line, col, format, args...)
}

// lookup resolves a name through the scope chain, then the globals,
// without reporting (the resolver already did).
func (tc *tchecker) lookup(name string, sc *scope) (*symbol, bool) {
	if sc != nil {
		if sym, ok := sc.lookup(name); ok {
			return sym, true
		}
	}
	sym, ok := tc.a.syms.globals[name]
	return sym, ok
}

func (tc *tchecker) block(b *capl.BlockStmt, parent *scope) {
	sc := &scope{parent: parent, names: map[string]*symbol{}}
	for _, s := range b.Stmts {
		tc.stmt(s, sc)
	}
}

func (tc *tchecker) stmt(s capl.Stmt, sc *scope) {
	switch x := s.(type) {
	case *capl.BlockStmt:
		tc.block(x, sc)
	case *capl.DeclStmt:
		for _, d := range x.Decls {
			if d.Init != nil {
				rt := tc.expr(d.Init, sc)
				tc.checkAssign(tyOfSpec(d.Type), rt, d.Init, true, d.Line, d.Col)
			}
			sc.names[d.Name] = &symbol{name: d.Name, kind: kindOf(d.Type), typ: d.Type, decl: d, at: pos{d.Line, d.Col}}
		}
	case *capl.ExprStmt:
		tc.expr(x.X, sc)
	case *capl.IfStmt:
		tc.cond(x.Cond, sc, "if condition")
		tc.stmt(x.Then, sc)
		if x.Else != nil {
			tc.stmt(x.Else, sc)
		}
	case *capl.WhileStmt:
		tc.cond(x.Cond, sc, "while condition")
		tc.stmt(x.Body, sc)
	case *capl.DoWhileStmt:
		tc.stmt(x.Body, sc)
		tc.cond(x.Cond, sc, "do-while condition")
	case *capl.ForStmt:
		inner := &scope{parent: sc, names: map[string]*symbol{}}
		if x.Init != nil {
			tc.stmt(x.Init, inner)
		}
		if x.Cond != nil {
			tc.cond(x.Cond, inner, "for condition")
		}
		if x.Post != nil {
			tc.expr(x.Post, inner)
		}
		tc.stmt(x.Body, inner)
	case *capl.SwitchStmt:
		tc.cond(x.Tag, sc, "switch tag")
		for _, c := range x.Cases {
			if c.Value != nil {
				tc.requireNumeric(tc.expr(c.Value, sc), exprPos(c.Value), "case value")
			}
			inner := &scope{parent: sc, names: map[string]*symbol{}}
			for _, st := range c.Stmts {
				tc.stmt(st, inner)
			}
		}
	case *capl.ReturnStmt:
		tc.checkReturn(x, sc)
	case *capl.BreakStmt, *capl.ContinueStmt:
	}
}

// cond types a condition-position expression and requires it numeric.
func (tc *tchecker) cond(e capl.Expr, sc *scope, ctx string) {
	t := tc.expr(e, sc)
	if t.definite() && t.class != tyNumeric {
		at := exprPos(e)
		line, col := at[0], at[1]
		tc.report(CodeBadCondition, SevError, line, col,
			"%s is %s, not a numeric value", ctx, t)
	}
}

// checkReturn validates one return statement against the enclosing
// declaration (handler or function).
func (tc *tchecker) checkReturn(x *capl.ReturnStmt, sc *scope) {
	var rt ty
	if x.X != nil {
		rt = tc.expr(x.X, sc)
	}
	if tc.fn == nil {
		if x.X != nil {
			tc.report(CodeBadReturn, SevError, x.Line, x.Col,
				"event handlers cannot return a value")
		}
		return
	}
	ret := tyOfSpec(tc.fn.Return)
	if ret.class == tyVoid {
		if x.X != nil {
			tc.report(CodeBadReturn, SevError, x.Line, x.Col,
				"void function %q returns a value", tc.fn.Name)
		}
		return
	}
	if x.X == nil {
		tc.report(CodeBadReturn, SevError, x.Line, x.Col,
			"missing return value in function %q (declared %s)", tc.fn.Name, ret)
		return
	}
	tc.sawValueReturn = true
	if rt.definite() && ret.definite() && rt.class != ret.class {
		tc.report(CodeBadReturn, SevError, x.Line, x.Col,
			"returning %s from function %q declared to return %s", rt, tc.fn.Name, ret)
	}
}

// requireNumeric reports a definite non-numeric type used where a
// number is needed. Arrays get the array-misuse code; everything else
// the general mismatch code.
func (tc *tchecker) requireNumeric(t ty, at [2]int, ctx string) bool {
	if !t.definite() || t.class == tyNumeric {
		return true
	}
	code := CodeTypeMismatch
	if t.class == tyArray {
		code = CodeArrayMisuse
	}
	tc.report(code, SevError, at[0], at[1], "%s value used as %s", t, ctx)
	return false
}

// checkAssign validates storing rt into lt. declInit permits the
// `char name[n] = "literal"` initialiser form.
func (tc *tchecker) checkAssign(lt, rt ty, rhs capl.Expr, declInit bool, line, col int) {
	if !lt.definite() {
		return
	}
	switch lt.class {
	case tyArray:
		if declInit && lt.spec.Base == capl.TypeChar && rt.class == tyString {
			return // char buffer initialised from a string literal
		}
		tc.report(CodeArrayMisuse, SevError, line, col,
			"cannot assign to %s as a whole; assign to its elements", lt)
	case tyMessage:
		if rt.definite() && rt.class != tyMessage {
			tc.report(CodeTypeMismatch, SevError, line, col,
				"cannot assign %s to a message variable", rt)
		}
	case tyTimer:
		tc.report(CodeTypeMismatch, SevError, line, col,
			"timers cannot be assigned; use setTimer()/cancelTimer()")
	case tyNumeric:
		if rt.definite() && rt.class != tyNumeric {
			code := CodeTypeMismatch
			if rt.class == tyArray {
				code = CodeArrayMisuse
			}
			tc.report(code, SevError, line, col,
				"cannot assign %s to %s", rt, lt)
			return
		}
		if rt.class != tyNumeric {
			return
		}
		tc.checkNarrowing(lt, rt, rhs, line, col)
	}
}

// checkNarrowing applies the numeric conversion rules for one store:
// a constant that does not fit is an error (CAPL0102), a non-constant
// source of a known wider type is a lossy-narrowing warning (CAPL0101),
// and a non-constant store into a CANdb signal lvalue that can exceed
// the raw range is the signal-width warning (CAPL0108).
func (tc *tchecker) checkNarrowing(lt, rt ty, rhs capl.Expr, line, col int) {
	if v, isConst := capl.ConstEval(rhs); isConst {
		if lt.isSignal {
			return // constant signal writes are CAPL0014's range check
		}
		if lo, hi, ok := numRange(lt); ok && (v < lo || v > hi) {
			tc.report(CodeConstOverflow, SevError, line, col,
				"constant %d does not fit %s (range %d..%d)", v, lt, lo, hi)
		}
		return
	}
	if fitsWithin(rt, lt) {
		return
	}
	if lt.isSignal {
		lo, hi, _ := numRange(lt)
		tc.report(CodeSignalNarrow, SevWarning, line, col,
			"%s expression may exceed signal %s (%d bit%s, raw range %d..%d)",
			rt, lt.sigRef, lt.bits, plural(lt.bits), lo, hi)
		return
	}
	why := "value range"
	if rt.float && !lt.float {
		why = "the fractional part"
	}
	tc.report(CodeNarrowing, SevWarning, line, col,
		"implicit conversion from %s to %s may lose %s", rt, lt, why)
}

// expr infers the type of an expression, reporting type errors as it
// goes. It is total over the AST (FuzzTypecheck pins this) and never
// reports through a tyInvalid operand.
func (tc *tchecker) expr(e capl.Expr, sc *scope) ty {
	switch x := e.(type) {
	case nil:
		return ty{}
	case *capl.IntLit:
		return numAny()
	case *capl.FloatLit:
		return ty{class: tyNumeric, float: true, name: "double"}
	case *capl.StrLit:
		return ty{class: tyString, name: "string"}
	case *capl.Ident:
		sym, ok := tc.lookup(x.Name, sc)
		if !ok {
			return ty{}
		}
		t := tyOfSpec(sym.typ)
		if t.class == tyMessage {
			t.msgDecl = sym.decl
		}
		return t
	case *capl.ThisExpr:
		return ty{class: tyMessage, name: "message", msgDecl: tc.thisDecl, msgID: tc.thisID}
	case *capl.BinaryExpr:
		return tc.binary(x, sc)
	case *capl.UnaryExpr:
		t := tc.expr(x.X, sc)
		switch x.Op {
		case capl.BANG:
			tc.requireNumeric(t, [2]int{x.Line, x.Col}, "a logical operand")
			return numAny()
		case capl.MINUS:
			if tc.requireNumeric(t, [2]int{x.Line, x.Col}, "an arithmetic operand") && t.class == tyNumeric {
				t.signed = true
				return t
			}
			return numAny()
		case capl.TILDE:
			tc.requireNumeric(t, [2]int{x.Line, x.Col}, "a bitwise operand")
			return t
		case capl.INC, capl.DEC:
			tc.requireNumeric(t, [2]int{x.Line, x.Col}, "an increment/decrement operand")
			return t
		}
		return t
	case *capl.PostfixExpr:
		t := tc.expr(x.X, sc)
		tc.requireNumeric(t, [2]int{x.Line, x.Col}, "an increment/decrement operand")
		return t
	case *capl.AssignExpr:
		lt := tc.expr(x.L, sc)
		rt := tc.expr(x.R, sc)
		if lt.class == tyMessage && x.Op != capl.ASSIGN {
			tc.report(CodeTypeMismatch, SevError, x.Line, x.Col,
				"compound assignment is not defined for message variables")
			return lt
		}
		if x.Op == capl.ASSIGN {
			tc.checkAssign(lt, rt, x.R, false, x.Line, x.Col)
		} else {
			// Compound assignment folds an arithmetic step in: the
			// effective source type is the merge of both sides.
			if tc.requireNumeric(lt, [2]int{x.Line, x.Col}, "a compound-assignment target") &&
				tc.requireNumeric(rt, [2]int{x.Line, x.Col}, "a compound-assignment operand") &&
				lt.class == tyNumeric && rt.class == tyNumeric {
				tc.checkNarrowing(lt, mergeNum(lt, rt), x, x.Line, x.Col)
			}
		}
		return lt
	case *capl.CondExpr:
		tc.cond(x.Cond, sc, "ternary condition")
		tt := tc.expr(x.Then, sc)
		et := tc.expr(x.Else, sc)
		if tt.class == tyNumeric && et.class == tyNumeric {
			return mergeNum(tt, et)
		}
		if tt.definite() && et.definite() && tt.class != et.class {
			tc.report(CodeTypeMismatch, SevError, x.Line, x.Col,
				"ternary arms have mismatched types (%s and %s)", tt, et)
			return ty{}
		}
		if tt.definite() {
			return tt
		}
		return et
	case *capl.CallExpr:
		return tc.call(x, sc)
	case *capl.MemberExpr:
		return tc.member(x, sc)
	case *capl.IndexExpr:
		return tc.index(x, sc)
	}
	return ty{}
}

// binary types a binary operation. Comparisons and logical connectives
// yield a width-free numeric 0/1; arithmetic and bitwise operations
// yield the merged principal type; shifts keep the left operand's type.
func (tc *tchecker) binary(x *capl.BinaryExpr, sc *scope) ty {
	l := tc.expr(x.L, sc)
	r := tc.expr(x.R, sc)
	switch x.Op {
	case capl.EQ, capl.NE, capl.LT, capl.LE, capl.GT, capl.GE:
		tc.requireNumeric(l, exprPos(x.L), "a comparison operand")
		tc.requireNumeric(r, exprPos(x.R), "a comparison operand")
		return numAny()
	case capl.ANDAND, capl.OROR:
		tc.requireNumeric(l, exprPos(x.L), "a logical operand")
		tc.requireNumeric(r, exprPos(x.R), "a logical operand")
		return numAny()
	case capl.SHL, capl.SHR:
		tc.requireNumeric(l, exprPos(x.L), "a shift operand")
		tc.requireNumeric(r, exprPos(x.R), "a shift amount")
		if l.class == tyNumeric {
			return l
		}
		return numAny()
	default:
		tc.requireNumeric(l, exprPos(x.L), "an arithmetic operand")
		tc.requireNumeric(r, exprPos(x.R), "an arithmetic operand")
		if l.class == tyNumeric && r.class == tyNumeric {
			return mergeNum(l, r)
		}
		return numAny()
	}
}

// builtinFieldTy maps the translator-supported message selectors to
// their types; ok is false for .dbc signal selectors.
func builtinFieldTy(field string) (ty, bool) {
	switch field {
	case "ID", "id":
		return ty{class: tyNumeric, bits: 32, name: "dword"}, true
	case "DLC", "dlc":
		return ty{class: tyNumeric, bits: 8, name: "byte"}, true
	case "byte":
		return ty{class: tyNumeric, bits: 8, name: "byte"}, true
	case "word":
		return ty{class: tyNumeric, bits: 16, name: "word"}, true
	case "dword":
		return ty{class: tyNumeric, bits: 32, name: "dword"}, true
	case "long":
		return ty{class: tyNumeric, bits: 32, signed: true, name: "long"}, true
	case "int":
		return ty{class: tyNumeric, bits: 16, signed: true, name: "int"}, true
	case "char":
		return ty{class: tyNumeric, bits: 8, signed: true, name: "char"}, true
	}
	return ty{}, false
}

// member types m.field and m.sel(i): builtin selectors carry their
// fixed widths, anything else is looked up as a CANdb signal when a
// database and the message's identity are known.
func (tc *tchecker) member(x *capl.MemberExpr, sc *scope) ty {
	mt := tc.expr(x.X, sc)
	for _, arg := range x.Args {
		at := tc.expr(arg, sc)
		tc.requireNumeric(at, exprPos(arg), fmt.Sprintf("the index of .%s()", x.Field))
	}
	if mt.definite() && mt.class != tyMessage {
		code := CodeTypeMismatch
		if mt.class == tyArray {
			code = CodeArrayMisuse
		}
		tc.report(code, SevError, x.Line, x.Col,
			"selector .%s on %s value (selectors need a message)", x.Field, mt)
		return ty{}
	}
	if ft, ok := builtinFieldTy(x.Field); ok {
		if x.IsCall && len(x.Args) != 1 {
			tc.report(CodeBadBuiltinArg, SevError, x.Line, x.Col,
				".%s() selector takes exactly one byte-offset argument, got %d", x.Field, len(x.Args))
		}
		return ft
	}
	if mt.class != tyMessage {
		return ty{}
	}
	if sig, msg, ok := tc.signalOf(mt, x.Field); ok {
		return ty{
			class: tyNumeric, bits: sig.Length, signed: sig.Signed,
			name:     fmt.Sprintf("signal %s.%s", msg.Name, sig.Name),
			isSignal: true, sigRef: fmt.Sprintf("%s.%s", msg.Name, sig.Name),
		}
	}
	// Unknown signal (or no database): numeric of unknown width, and
	// CAPL0015 has the missing-signal report.
	return numAny()
}

// signalOf resolves a message-typed value's CANdb signal.
func (tc *tchecker) signalOf(mt ty, field string) (*candb.Signal, *candb.Message, bool) {
	db := tc.a.opts.DB
	if db == nil {
		return nil, nil, false
	}
	var msg *candb.Message
	var ok bool
	switch {
	case mt.msgDecl != nil:
		msg, ok = tc.a.dbMessageOf(mt.msgDecl)
	case mt.msgID >= 0:
		msg, ok = db.MessageByID(uint32(mt.msgID))
	}
	if !ok || msg == nil {
		return nil, nil, false
	}
	sig, ok := msg.Signal(field)
	if !ok {
		return nil, nil, false
	}
	return sig, msg, true
}

// index types a[i], checking that a is an array, i is numeric, and a
// constant index stays inside a sized dimension.
func (tc *tchecker) index(x *capl.IndexExpr, sc *scope) ty {
	at := tc.expr(x.X, sc)
	it := tc.expr(x.Index, sc)
	if it.definite() && it.class != tyNumeric {
		at := exprPos(x.Index)
		line, col := at[0], at[1]
		tc.report(CodeArrayMisuse, SevError, line, col,
			"array index is %s, not a numeric value", it)
	}
	if !at.definite() {
		return ty{}
	}
	if at.class != tyArray {
		tc.report(CodeArrayMisuse, SevError, x.Line, x.Col,
			"cannot index %s value (not an array)", at)
		return ty{}
	}
	if dim := at.spec.ArrayDims[0]; dim > 0 {
		if v, isConst := capl.ConstEval(x.Index); isConst && (v < 0 || v >= int64(dim)) {
			tc.report(CodeArrayMisuse, SevError, x.Line, x.Col,
				"constant index %d is out of bounds for %s (valid: 0..%d)", v, at, dim-1)
		}
	}
	if len(at.spec.ArrayDims) > 1 {
		rest := capl.TypeSpec{Base: at.spec.Base, ArrayDims: at.spec.ArrayDims[1:]}
		return tyOfSpec(rest)
	}
	return tyOfSpec(capl.TypeSpec{Base: at.spec.Base})
}

// call types a call expression: builtin signatures are checked here
// (CAPL0109, complementing the resolver's CAPL0010/0011/0021 shape
// checks), user functions get arity (CAPL0103) and per-argument
// (CAPL0104) checks against the declaration. Unknown functions stay
// silent — CAPL0007 owns them.
func (tc *tchecker) call(x *capl.CallExpr, sc *scope) ty {
	args := make([]ty, len(x.Args))
	for i, arg := range x.Args {
		args[i] = tc.expr(arg, sc)
	}
	switch x.Fun {
	case "output":
		// Arity and message-ness are the resolver's CAPL0021/0011.
		return ty{class: tyVoid, name: "void"}
	case "setTimer":
		if len(x.Args) != 2 {
			tc.report(CodeBadBuiltinArg, SevError, x.Line, x.Col,
				"setTimer() expects (timer, duration), got %d argument%s", len(x.Args), plural(len(x.Args)))
		} else if args[1].definite() && args[1].class != tyNumeric {
			at := exprPos(x.Args[1])
			line, col := at[0], at[1]
			tc.report(CodeBadBuiltinArg, SevError, line, col,
				"setTimer() duration is %s, not a numeric value", args[1])
		}
		return ty{class: tyVoid, name: "void"}
	case "cancelTimer":
		if len(x.Args) != 1 {
			tc.report(CodeBadBuiltinArg, SevError, x.Line, x.Col,
				"cancelTimer() expects exactly one timer argument, got %d", len(x.Args))
		}
		return ty{class: tyVoid, name: "void"}
	case "write":
		if len(x.Args) >= 1 && args[0].definite() && args[0].class != tyString {
			at := exprPos(x.Args[0])
			line, col := at[0], at[1]
			tc.report(CodeBadBuiltinArg, SevError, line, col,
				"write() format argument is %s, not a string", args[0])
		}
		return ty{class: tyVoid, name: "void"}
	case "writeEx", "writeLineEx":
		return ty{class: tyVoid, name: "void"}
	}
	fn, ok := tc.a.prog.Function(x.Fun)
	if !ok {
		return ty{} // unknown function: CAPL0007's report
	}
	if len(x.Args) != len(fn.Params) {
		tc.report(CodeCallArity, SevError, x.Line, x.Col,
			"%s() expects %d argument%s, got %d", fn.Name, len(fn.Params), plural(len(fn.Params)), len(x.Args))
		return tyOfSpec(fn.Return)
	}
	for i, p := range fn.Params {
		pt := tyOfSpec(p.Type)
		at := args[i]
		if !pt.definite() || !at.definite() {
			continue
		}
		if pt.class != at.class {
			tc.report(CodeCallArgType, SevError, exprLine(x.Args[i]), exprCol(x.Args[i]),
				"argument %d of %s(): cannot pass %s as %s %q", i+1, fn.Name, at, pt, p.Name)
			continue
		}
		if pt.class == tyNumeric {
			tc.checkNarrowing(pt, at, x.Args[i], exprLine(x.Args[i]), exprCol(x.Args[i]))
		}
	}
	return tyOfSpec(fn.Return)
}

// exprPos returns the source position of an expression for reporting.
func exprPos(e capl.Expr) [2]int {
	return [2]int{exprLine(e), exprCol(e)}
}

func exprLine(e capl.Expr) int {
	switch x := e.(type) {
	case *capl.IntLit:
		return x.Line
	case *capl.FloatLit:
		return x.Line
	case *capl.StrLit:
		return x.Line
	case *capl.Ident:
		return x.Line
	case *capl.ThisExpr:
		return x.Line
	case *capl.BinaryExpr:
		return x.Line
	case *capl.UnaryExpr:
		return x.Line
	case *capl.PostfixExpr:
		return x.Line
	case *capl.AssignExpr:
		return x.Line
	case *capl.CondExpr:
		return x.Line
	case *capl.CallExpr:
		return x.Line
	case *capl.MemberExpr:
		return x.Line
	case *capl.IndexExpr:
		return x.Line
	}
	return 0
}

func exprCol(e capl.Expr) int {
	switch x := e.(type) {
	case *capl.IntLit:
		return x.Col
	case *capl.FloatLit:
		return x.Col
	case *capl.StrLit:
		return x.Col
	case *capl.Ident:
		return x.Col
	case *capl.ThisExpr:
		return x.Col
	case *capl.BinaryExpr:
		return x.Col
	case *capl.UnaryExpr:
		return x.Col
	case *capl.PostfixExpr:
		return x.Col
	case *capl.AssignExpr:
		return x.Col
	case *capl.CondExpr:
		return x.Col
	case *capl.CallExpr:
		return x.Col
	case *capl.MemberExpr:
		return x.Col
	case *capl.IndexExpr:
		return x.Col
	}
	return 0
}
