package csp

import (
	"strings"
	"testing"
)

func TestValueEquality(t *testing.T) {
	cases := []struct {
		a, b  Value
		equal bool
	}{
		{Int(3), Int(3), true},
		{Int(3), Int(4), false},
		{Int(3), Sym("3"), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Sym("x"), Sym("x"), true},
		{Sym("x"), Sym("y"), false},
		{NewDotted("f", Int(1)), NewDotted("f", Int(1)), true},
		{NewDotted("f", Int(1)), NewDotted("f", Int(2)), false},
		{NewDotted("f", Int(1)), NewDotted("g", Int(1)), false},
		{NewDotted("f", Int(1)), NewDotted("f", Int(1), Int(2)), false},
		{NewSet(Int(1), Int(2)), NewSet(Int(2), Int(1)), true},
		{NewSet(Int(1)), NewSet(Int(1), Int(2)), false},
	}
	for _, tc := range cases {
		if got := tc.a.Equal(tc.b); got != tc.equal {
			t.Errorf("%s.Equal(%s) = %v, want %v", tc.a, tc.b, got, tc.equal)
		}
	}
}

func TestSetValueOperations(t *testing.T) {
	s := NewSet(Sym("b"), Sym("a"), Sym("b"))
	if s.Len() != 2 {
		t.Errorf("len = %d, want 2 (dedup)", s.Len())
	}
	if s.String() != "{a,b}" {
		t.Errorf("canonical form = %s", s.String())
	}
	s2 := s.Add(Sym("a"))
	if s2.Len() != 2 {
		t.Error("re-adding a member grew the set")
	}
	s3 := s.Add(Sym("c"))
	if !s3.Contains(Sym("c")) || s.Contains(Sym("c")) {
		t.Error("Add must be persistent (copy-on-write)")
	}
}

func TestUnionAndExplicitTypes(t *testing.T) {
	u := UnionType{
		TypeName: "U",
		Members:  []Type{EnumType("A", "x", "y"), EnumType("B", "y", "z")},
	}
	vals := u.Values()
	if len(vals) != 3 {
		t.Errorf("union values = %v, want 3 distinct", vals)
	}
	if !u.Contains(Sym("z")) || u.Contains(Sym("w")) {
		t.Error("union membership wrong")
	}
	if u.Name() != "U" {
		t.Errorf("name = %s", u.Name())
	}
	e := ExplicitType{TypeName: "E", Elems: []Value{Int(1), Int(5)}}
	if !e.Contains(Int(5)) || e.Contains(Int(2)) {
		t.Error("explicit membership wrong")
	}
	if got := TypeUnionName([]Type{e, u}); got != "union(E,U)" {
		t.Errorf("TypeUnionName = %s", got)
	}
}

func TestIntRangeEdges(t *testing.T) {
	empty := IntRange{Lo: 5, Hi: 3}
	if len(empty.Values()) != 0 {
		t.Error("inverted range should be empty")
	}
	r := IntRange{Lo: -1, Hi: 1}
	if len(r.Values()) != 3 || !r.Contains(Int(-1)) || r.Contains(Int(2)) {
		t.Errorf("range semantics wrong: %v", r.Values())
	}
	bt := BoolType{}
	if !bt.Contains(Bool(true)) || bt.Contains(Int(0)) {
		t.Error("bool membership wrong")
	}
	if len(bt.Values()) != 2 || bt.Name() != "Bool" {
		t.Error("bool enumeration wrong")
	}
}

func TestEvalErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		e    Expr
		want string
	}{
		{"unbound", V("x"), "unbound variable"},
		{"div0", Binary{Op: OpDiv, L: LitInt(1), R: LitInt(0)}, "division by zero"},
		{"mod0", Binary{Op: OpMod, L: LitInt(1), R: LitInt(0)}, "modulo by zero"},
		{"bool on int", Binary{Op: OpAnd, L: LitInt(1), R: LitBool(true)}, "boolean operator"},
		{"arith on sym", Binary{Op: OpAdd, L: LitSym("a"), R: LitInt(1)}, "arithmetic"},
		{"neg bool", Unary{Op: OpNeg, X: LitBool(true)}, "negate"},
		{"not int", Unary{Op: OpNot, X: LitInt(1)}, "non-boolean"},
		{"member non-set", MemberExpr{Elem: LitInt(1), Set: LitInt(2)}, "non-set"},
		{"union non-set", SetAddExpr{Base: LitInt(1), Elem: LitInt(2)}, "not a set"},
		{"nil", nil, "nil expression"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Eval(tc.e)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// false && <error> must not evaluate the right side.
	bad := Binary{Op: OpDiv, L: LitInt(1), R: LitInt(0)}
	v, err := Eval(Binary{Op: OpAnd, L: LitBool(false), R: bad})
	if err != nil || v != Bool(false) {
		t.Errorf("short-circuit and: %v %v", v, err)
	}
	v, err = Eval(Binary{Op: OpOr, L: LitBool(true), R: bad})
	if err != nil || v != Bool(true) {
		t.Errorf("short-circuit or: %v %v", v, err)
	}
}

func TestEvalCompoundExpressions(t *testing.T) {
	// member(x, S) and set union evaluate correctly.
	set := NewSet(Sym("a"), Sym("b"))
	v, err := Eval(MemberExpr{Elem: LitSym("a"), Set: Lit{Val: set}})
	if err != nil || v != Bool(true) {
		t.Errorf("member = %v %v", v, err)
	}
	grown, err := Eval(SetAddExpr{Base: Lit{Val: set}, Elem: LitSym("c")})
	if err != nil {
		t.Fatal(err)
	}
	if !grown.(SetValue).Contains(Sym("c")) {
		t.Error("SetAdd did not add")
	}
	dotted, err := Eval(DotExpr{Head: "pair", Args: []Expr{LitInt(1), LitSym("a")}})
	if err != nil {
		t.Fatal(err)
	}
	if dotted.String() != "pair.1.a" {
		t.Errorf("dotted = %s", dotted)
	}
	// Nullary DotExpr degrades to the symbol.
	bare, err := Eval(DotExpr{Head: "unit"})
	if err != nil || bare.String() != "unit" {
		t.Errorf("bare dotted = %v %v", bare, err)
	}
}

func TestEventSetOperations(t *testing.T) {
	a := Events(Ev("a"))
	b := EventsOf("ch")
	u := a.Union(b)
	if !u.Contains(Ev("a")) || !u.Contains(Ev("ch", Sym("m1"))) {
		t.Error("union membership wrong")
	}
	if !strings.Contains(u.Key(), "{|ch|}") || !strings.Contains(u.Key(), "a") {
		t.Errorf("key = %s", u.Key())
	}
	var nilSet *EventSet
	if nilSet.Contains(Ev("a")) {
		t.Error("nil set semantics wrong")
	}
	if nilSet.Key() != "{}" {
		t.Errorf("nil key = %s", nilSet.Key())
	}
	if u.Contains(Tau()) || u.Contains(Tick()) {
		t.Error("tau/tick must never be set members")
	}
}

func TestEnvOperations(t *testing.T) {
	env := NewEnv()
	env.MustDefine("P", nil, Stop())
	env.MustDefine("Q", []string{"x"}, Stop())
	if err := env.Define("P", nil, Skip()); err == nil {
		t.Error("redefinition accepted")
	}
	names := env.Names()
	if len(names) != 2 || names[0] != "P" || names[1] != "Q" {
		t.Errorf("names = %v", names)
	}
	if _, ok := env.Lookup("P"); !ok {
		t.Error("lookup failed")
	}
	if _, err := env.Expand(CallProc{Name: "R"}); err == nil {
		t.Error("expanding undefined process accepted")
	}
	if _, err := env.Expand(CallProc{Name: "Q"}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := env.Expand(CallProc{Name: "Q", Args: []Expr{V("free")}}); err == nil {
		t.Error("unbound argument accepted")
	}
}

func TestDataTypeContainsMistyped(t *testing.T) {
	dt := DataType{TypeName: "T", Ctors: []Ctor{
		{Head: "leaf"},
		{Head: "node", Fields: []Type{IntRange{Lo: 0, Hi: 1}}},
	}}
	if dt.Contains(Int(3)) {
		t.Error("datatype contains unrelated int")
	}
	if dt.Contains(NewDotted("node", Int(5))) {
		t.Error("out-of-range payload accepted")
	}
	if dt.Contains(NewDotted("leaf", Int(0))) {
		t.Error("nullary constructor with payload accepted")
	}
	if !dt.Contains(NewDotted("node", Int(1))) || !dt.Contains(Sym("leaf")) {
		t.Error("legitimate members rejected")
	}
}

func TestContextErrors(t *testing.T) {
	ctx := NewContext()
	ctx.MustChannel("a")
	if err := ctx.DeclareType("T", BoolType{}); err != nil {
		t.Fatal(err)
	}
	if err := ctx.DeclareType("T", BoolType{}); err == nil {
		t.Error("duplicate type accepted")
	}
	if _, err := ctx.EventsOf("nope"); err == nil {
		t.Error("events of undeclared channel accepted")
	}
	if _, ok := ctx.Type("T"); !ok {
		t.Error("type lookup failed")
	}
	names := ctx.ChannelNames()
	if len(names) != 1 || names[0] != "a" {
		t.Errorf("channel names = %v", names)
	}
}

func TestSemanticsErrorPaths(t *testing.T) {
	ctx := testContext(t)
	sem := NewSemantics(NewEnv(), ctx)
	// Prefix with wrong field count.
	if _, err := sem.Transitions(Prefix("ch", nil, Stop())); err == nil {
		t.Error("field-count mismatch accepted")
	}
	// Prefix on undeclared channel.
	if _, err := sem.Transitions(DoEvent("zz", Stop())); err == nil {
		t.Error("undeclared channel accepted")
	}
	// Conditional with non-boolean guard.
	if _, _, err := sem.Unfold(If(LitInt(1), Stop(), Stop())); err == nil || err.Error() != "conditional guard is not boolean: 1" {
		t.Errorf("non-boolean guard: err = %v", err)
	}
	// Conditional with unbound guard.
	if _, _, err := sem.Unfold(If(V("x"), Stop(), Stop())); err == nil || !strings.HasPrefix(err.Error(), "conditional guard: ") {
		t.Errorf("unbound guard: err = %v", err)
	}
	// Restricted input with non-boolean predicate.
	bad := Prefix("ch", []CommField{InSuchThat("x", LitInt(1))}, Stop())
	if _, err := sem.Transitions(bad); err == nil {
		t.Error("non-boolean restriction accepted")
	}
	// Nil process.
	if _, err := sem.Transitions(nil); err == nil {
		t.Error("nil process accepted")
	}
}
