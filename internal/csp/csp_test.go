package csp

import (
	"testing"
)

// testContext declares a small alphabet used across the unit tests:
// channels a, b, c with no fields and ch with one Msg field.
func testContext(t *testing.T) *Context {
	t.Helper()
	ctx := NewContext()
	msg := EnumType("Msg", "m1", "m2", "m3")
	if err := ctx.DeclareType("Msg", msg); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := ctx.DeclareChannel(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctx.DeclareChannel("ch", msg); err != nil {
		t.Fatal(err)
	}
	return ctx
}

func newSem(t *testing.T, ctx *Context) *Semantics {
	t.Helper()
	return NewSemantics(NewEnv(), ctx)
}

func mustTransitions(t *testing.T, sem *Semantics, p Process) []Transition {
	t.Helper()
	trs, err := sem.Transitions(p)
	if err != nil {
		t.Fatalf("Transitions(%s): %v", p.Key(), err)
	}
	return trs
}

func TestStopHasNoTransitions(t *testing.T) {
	sem := newSem(t, testContext(t))
	if trs := mustTransitions(t, sem, Stop()); len(trs) != 0 {
		t.Errorf("STOP has %d transitions, want 0", len(trs))
	}
}

func TestSkipTicks(t *testing.T) {
	sem := newSem(t, testContext(t))
	trs := mustTransitions(t, sem, Skip())
	if len(trs) != 1 || !trs[0].Ev.IsTick() {
		t.Fatalf("SKIP transitions = %v, want single tick", trs)
	}
	if _, ok := trs[0].To.(OmegaProc); !ok {
		t.Errorf("SKIP tick target = %T, want OmegaProc", trs[0].To)
	}
}

func TestPrefixBareEvent(t *testing.T) {
	sem := newSem(t, testContext(t))
	p := DoEvent("a", Stop())
	trs := mustTransitions(t, sem, p)
	if len(trs) != 1 {
		t.Fatalf("got %d transitions, want 1", len(trs))
	}
	if trs[0].Ev.String() != "a" {
		t.Errorf("event = %s, want a", trs[0].Ev)
	}
	if trs[0].To.Key() != "STOP" {
		t.Errorf("continuation = %s, want STOP", trs[0].To.Key())
	}
}

func TestPrefixOutput(t *testing.T) {
	sem := newSem(t, testContext(t))
	p := Send("ch", Stop(), Sym("m2"))
	trs := mustTransitions(t, sem, p)
	if len(trs) != 1 || trs[0].Ev.String() != "ch.m2" {
		t.Fatalf("transitions = %v, want single ch.m2", trs)
	}
}

func TestPrefixOutputOutsideDomainFails(t *testing.T) {
	sem := newSem(t, testContext(t))
	p := Send("ch", Stop(), Sym("bogus"))
	if _, err := sem.Transitions(p); err == nil {
		t.Fatal("expected domain error for ch!bogus")
	}
}

func TestPrefixInputEnumeratesDomain(t *testing.T) {
	sem := newSem(t, testContext(t))
	p := Recv("ch", Stop(), "x")
	trs := mustTransitions(t, sem, p)
	if len(trs) != 3 {
		t.Fatalf("input prefix offers %d events, want 3", len(trs))
	}
	seen := map[string]bool{}
	for _, tr := range trs {
		seen[tr.Ev.String()] = true
	}
	for _, want := range []string{"ch.m1", "ch.m2", "ch.m3"} {
		if !seen[want] {
			t.Errorf("missing input event %s", want)
		}
	}
}

func TestPrefixInputBindsContinuation(t *testing.T) {
	sem := newSem(t, testContext(t))
	// ch?x -> ch!x -> STOP: the echo process.
	p := Recv("ch", Prefix("ch", []CommField{Out(V("x"))}, Stop()), "x")
	trs := mustTransitions(t, sem, p)
	for _, tr := range trs {
		next := mustTransitions(t, sem, tr.To)
		if len(next) != 1 {
			t.Fatalf("echo continuation has %d transitions, want 1", len(next))
		}
		if !next[0].Ev.Equal(tr.Ev) {
			t.Errorf("echoed %s after %s", next[0].Ev, tr.Ev)
		}
	}
}

func TestPrefixRestrictedInput(t *testing.T) {
	sem := newSem(t, testContext(t))
	pred := Binary{Op: OpNe, L: V("x"), R: LitSym("m2")}
	p := Prefix("ch", []CommField{InSuchThat("x", pred)}, Stop())
	trs := mustTransitions(t, sem, p)
	if len(trs) != 2 {
		t.Fatalf("restricted input offers %d events, want 2", len(trs))
	}
	for _, tr := range trs {
		if tr.Ev.String() == "ch.m2" {
			t.Error("restricted input offered excluded value m2")
		}
	}
}

func TestInternalChoiceIsTwoTaus(t *testing.T) {
	sem := newSem(t, testContext(t))
	p := IntChoice(DoEvent("a", Stop()), DoEvent("b", Stop()))
	trs := mustTransitions(t, sem, p)
	if len(trs) != 2 || !trs[0].Ev.IsTau() || !trs[1].Ev.IsTau() {
		t.Fatalf("internal choice transitions = %v, want two taus", trs)
	}
}

// mustUnfold returns the term a call or conditional unfolds to.
func mustUnfold(t *testing.T, sem *Semantics, p Process) Process {
	t.Helper()
	q, ok, err := sem.Unfold(p)
	if err != nil || !ok {
		t.Fatalf("Unfold(%s) = %v, %v", p.Key(), ok, err)
	}
	return q
}

func TestConditionalProcess(t *testing.T) {
	sem := newSem(t, testContext(t))
	p := If(LitBool(true), DoEvent("a", Stop()), DoEvent("b", Stop()))
	trs := mustTransitions(t, sem, mustUnfold(t, sem, p))
	if len(trs) != 1 || trs[0].Ev.String() != "a" {
		t.Fatalf("if-true transitions = %v, want a", trs)
	}
	p = If(LitBool(false), DoEvent("a", Stop()), DoEvent("b", Stop()))
	trs = mustTransitions(t, sem, mustUnfold(t, sem, p))
	if len(trs) != 1 || trs[0].Ev.String() != "b" {
		t.Fatalf("if-false transitions = %v, want b", trs)
	}
}

func TestGuardFalseIsStop(t *testing.T) {
	sem := newSem(t, testContext(t))
	p := Guard(LitBool(false), DoEvent("a", Stop()))
	if trs := mustTransitions(t, sem, mustUnfold(t, sem, p)); len(trs) != 0 {
		t.Errorf("false-guarded process has transitions %v", trs)
	}
}

func TestUndefinedProcessError(t *testing.T) {
	sem := newSem(t, testContext(t))
	if _, ok, err := sem.Unfold(Call("NoSuch")); !ok || err == nil {
		t.Fatalf("Unfold(NoSuch) = %v, %v; want an undefined process error", ok, err)
	}
}

// TestUnfoldOnlyCallsAndConditionals pins the split of the semantics:
// Unfold answers "not unfoldable" for every other term, and Transitions
// has rules for leaves only, so a composite term is an error there.
func TestUnfoldOnlyCallsAndConditionals(t *testing.T) {
	env := NewEnv()
	env.MustDefine("P", []string{"x"}, Prefix("ch", []CommField{Out(V("x"))}, Stop()))
	sem := NewSemantics(env, testContext(t))
	if q := mustUnfold(t, sem, Call("P", LitSym("m1"))); q.Key() != Send("ch", Stop(), Sym("m1")).Key() {
		t.Errorf("P(m1) unfolds to %s", q.Key())
	}
	comp := ExtChoice(DoEvent("a", Stop()), DoEvent("b", Stop()))
	for _, p := range []Process{Stop(), Skip(), DoEvent("a", Stop()), IntChoice(Stop(), Skip()), comp} {
		if q, ok, err := sem.Unfold(p); ok || err != nil || q != nil {
			t.Errorf("Unfold(%s) = %v, %v, %v; want not unfoldable", p.Key(), q, ok, err)
		}
	}
	if _, err := sem.Transitions(comp); err == nil {
		t.Errorf("Transitions(%s) succeeded; composites have no leaf rule", comp.Key())
	}
}

func TestTraceHide(t *testing.T) {
	tr := Trace{Ev("a"), Ev("b"), Ev("a")}
	got := tr.Hide(Events(Ev("a")))
	if !got.Equal(Trace{Ev("b")}) {
		t.Errorf("trace hide = %s, want <b>", got)
	}
}

func TestTracePrefixRelation(t *testing.T) {
	long := Trace{Ev("a"), Ev("b"), Ev("c")}
	if !long.HasPrefix(Trace{Ev("a"), Ev("b")}) {
		t.Error("prefix relation failed on genuine prefix")
	}
	if long.HasPrefix(Trace{Ev("b")}) {
		t.Error("prefix relation accepted non-prefix")
	}
}

func TestEventSetProduction(t *testing.T) {
	set := EventsOf("ch")
	if !set.Contains(Ev("ch", Sym("m1"))) {
		t.Error("production set {|ch|} missing ch.m1")
	}
	if set.Contains(Ev("a")) {
		t.Error("production set {|ch|} contains a")
	}
}

func TestContextEnumeration(t *testing.T) {
	ctx := testContext(t)
	all := ctx.AllEvents()
	// a, b, c plus 3 ch.* events.
	if len(all) != 6 {
		t.Errorf("alphabet size = %d, want 6", len(all))
	}
	if err := ctx.DeclareChannel("a"); err == nil {
		t.Error("duplicate channel declaration accepted")
	}
}

func TestDataTypeWithPayload(t *testing.T) {
	key := EnumType("Key", "k1", "k2")
	payload := EnumType("Payload", "p1")
	dt := DataType{
		TypeName: "Packet",
		Ctors: []Ctor{
			{Head: "plain", Fields: []Type{payload}},
			{Head: "mac", Fields: []Type{key, payload}},
		},
	}
	vals := dt.Values()
	if len(vals) != 3 { // plain.p1, mac.k1.p1, mac.k2.p1
		t.Fatalf("datatype has %d values, want 3", len(vals))
	}
	if !dt.Contains(NewDotted("mac", Sym("k1"), Sym("p1"))) {
		t.Error("datatype missing mac.k1.p1")
	}
	if dt.Contains(NewDotted("mac", Sym("p1"), Sym("k1"))) {
		t.Error("datatype accepted ill-typed mac.p1.k1")
	}
}

func TestSubstShadowing(t *testing.T) {
	// (ch?x -> ch!x -> STOP).Subst(x, m1) must not touch the bound x.
	inner := Prefix("ch", []CommField{Out(V("x"))}, Stop())
	p := Recv("ch", inner, "x")
	q := p.Subst("x", Sym("m1"))
	if q.Key() != p.Key() {
		t.Errorf("substitution captured bound variable: %s != %s", q.Key(), p.Key())
	}
}

func TestKeyDeterminism(t *testing.T) {
	mk := func() Process {
		return Par(
			DoEvent("a", Stop()),
			EventsOf("ch").Union(Events(Ev("b"))),
			Hide(DoEvent("b", Skip()), Events(Ev("b"))),
		)
	}
	if mk().Key() != mk().Key() {
		t.Error("Key not deterministic for identical terms")
	}
}
