package lts

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/csp"
)

func testSem(t *testing.T) *csp.Semantics {
	t.Helper()
	ctx := csp.NewContext()
	for _, name := range []string{"a", "b", "c"} {
		ctx.MustChannel(name)
	}
	msg := csp.EnumType("Msg", "m1", "m2")
	ctx.MustChannel("ch", msg)
	return csp.NewSemantics(csp.NewEnv(), ctx)
}

// TestCompiledStepsMemoized pins the standalone memo the on-the-fly
// trace checker walks: a term's transitions are computed once, carry
// compiled event IDs that map back to the semantics' events, and lead
// to TermIDs whose terms are the semantics' successors.
func TestCompiledStepsMemoized(t *testing.T) {
	sem := testSem(t)
	p := csp.ExtChoice(csp.DoEvent("a", csp.Stop()), csp.DoEvent("b", csp.Skip()))
	m := Compile(sem)
	id := m.Intern(p)
	s1, err := m.Steps(id)
	if err != nil {
		t.Fatal(err)
	}
	_, misses := m.Memo()
	s2, err := m.Steps(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 2 || len(s2) != 2 || &s1[0] != &s2[0] {
		t.Fatalf("steps %v then %v, want one memoized pair", s1, s2)
	}
	if hits, again := m.Memo(); again != misses || hits == 0 {
		t.Errorf("second lookup: %d hits, %d misses (was %d), want a hit", hits, again, misses)
	}
	if ev := m.EventOf(s1[1].Ev); ev.String() != "b" || m.Event(csp.Ev("b")) != s1[1].Ev {
		t.Errorf("event %d is %s, want b", s1[1].Ev, ev)
	}
	if k := m.c.proc(s1[1].To).Key(); k != csp.Skip().Key() {
		t.Errorf("successor %s, want SKIP", k)
	}
}

func TestExploreSimplePrefixChain(t *testing.T) {
	sem := testSem(t)
	p := csp.DoEvent("a", csp.DoEvent("b", csp.Stop()))
	l, err := Explore(sem, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates() != 3 {
		t.Errorf("states = %d, want 3", l.NumStates())
	}
	if l.NumTransitions() != 2 {
		t.Errorf("transitions = %d, want 2", l.NumTransitions())
	}
}

func TestExploreRecursionIsFinite(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("a")
	env := csp.NewEnv()
	env.MustDefine("P", nil, csp.DoEvent("a", csp.Call("P")))
	sem := csp.NewSemantics(env, ctx)
	l, err := Explore(sem, csp.Call("P"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// P and a->P's continuation P collapse: Call("P") and the state after
	// a step are the same key, so 1 state and a self-loop.
	if l.NumStates() != 1 {
		t.Errorf("states = %d, want 1 (self-loop)", l.NumStates())
	}
	if l.Edges[l.Init][0].To != l.Init {
		t.Error("recursive process did not loop back to itself")
	}
}

func TestExploreStateLimit(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("count", csp.IntRange{Lo: 0, Hi: 1000})
	env := csp.NewEnv()
	env.MustDefine("C", []string{"n"},
		csp.Guard(csp.Binary{Op: csp.OpLt, L: csp.V("n"), R: csp.LitInt(1000)},
			csp.Prefix("count", []csp.CommField{csp.Out(csp.V("n"))},
				csp.Call("C", csp.Binary{Op: csp.OpAdd, L: csp.V("n"), R: csp.LitInt(1)}))))
	sem := csp.NewSemantics(env, ctx)
	_, err := Explore(sem, csp.Call("C", csp.LitInt(0)), Options{MaxStates: 10})
	if !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
}

func TestTauClosure(t *testing.T) {
	sem := testSem(t)
	// (a->STOP |~| b->STOP): init has two tau successors.
	p := csp.IntChoice(csp.DoEvent("a", csp.Stop()), csp.DoEvent("b", csp.Stop()))
	l, err := Explore(sem, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	closure := l.TauClosure([]int{l.Init})
	if len(closure) != 3 {
		t.Errorf("tau closure size = %d, want 3", len(closure))
	}
}

func TestHasTauCycle(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("a")
	env := csp.NewEnv()
	// DIV = a -> DIV hidden on a: a pure tau loop.
	env.MustDefine("DIV", nil, csp.DoEvent("a", csp.Call("DIV")))
	sem := csp.NewSemantics(env, ctx)

	hidden := csp.Hide(csp.Call("DIV"), csp.Events(csp.Ev("a")))
	l, err := Explore(sem, hidden, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cyc, _ := l.HasTauCycle(); !cyc {
		t.Error("hidden recursion should diverge")
	}

	plain, err := Explore(sem, csp.Call("DIV"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cyc, _ := plain.HasTauCycle(); cyc {
		t.Error("visible recursion reported as divergent")
	}
}

func TestIsStableAndInitials(t *testing.T) {
	sem := testSem(t)
	p := csp.ExtChoice(csp.DoEvent("a", csp.Stop()), csp.DoEvent("b", csp.Stop()))
	l, err := Explore(sem, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !l.IsStable(l.Init) {
		t.Error("external choice of prefixes should be stable")
	}
	if got := len(l.Initials(l.Init)); got != 2 {
		t.Errorf("initials = %d, want 2", got)
	}
}

func TestNormalizeDeterminises(t *testing.T) {
	sem := testSem(t)
	// a->b->STOP [] a->c->STOP: nondeterministic on a; the normalised
	// form has a single a-successor node offering both b and c.
	p := csp.ExtChoice(
		csp.DoEvent("a", csp.DoEvent("b", csp.Stop())),
		csp.DoEvent("a", csp.DoEvent("c", csp.Stop())),
	)
	l, err := Explore(sem, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := Normalize(l)
	aID, ok := l.EventID(csp.Ev("a"))
	if !ok {
		t.Fatal("event a not interned")
	}
	after, ok := n.Accepts(n.Init, aID)
	if !ok {
		t.Fatal("normalised process refuses a")
	}
	bID, _ := l.EventID(csp.Ev("b"))
	cID, _ := l.EventID(csp.Ev("c"))
	if _, ok := n.Accepts(after, bID); !ok {
		t.Error("after a, normalised node refuses b")
	}
	if _, ok := n.Accepts(after, cID); !ok {
		t.Error("after a, normalised node refuses c")
	}
}

func TestNormalizeMinAcceptances(t *testing.T) {
	sem := testSem(t)
	// a->STOP |~| b->STOP: the normalised root node must record the two
	// singleton acceptances {a} and {b} (no stable state offers both).
	p := csp.IntChoice(csp.DoEvent("a", csp.Stop()), csp.DoEvent("b", csp.Stop()))
	l, err := Explore(sem, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := Normalize(l)
	accs := n.Nodes[n.Init].MinAcceptances
	if len(accs) != 2 {
		t.Fatalf("min acceptances = %v, want two singletons", accs)
	}
	for _, a := range accs {
		if len(a) != 1 {
			t.Errorf("acceptance %v is not a singleton", a)
		}
	}
}

func TestRefusalPossible(t *testing.T) {
	sem := testSem(t)
	// Deterministic a->STOP [] b->STOP: the only acceptance is {a,b}, so
	// an implementation offering only {a} refuses b, which the spec does
	// not allow.
	p := csp.ExtChoice(csp.DoEvent("a", csp.Stop()), csp.DoEvent("b", csp.Stop()))
	l, err := Explore(sem, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := Normalize(l)
	aID, _ := l.EventID(csp.Ev("a"))
	bID, _ := l.EventID(csp.Ev("b"))
	if n.RefusalPossible(n.Init, []int{aID}) {
		t.Error("deterministic choice cannot refuse b when offered only a")
	}
	if !n.RefusalPossible(n.Init, []int{aID, bID}) {
		t.Error("offering the full acceptance must satisfy the node")
	}
}

func TestToDOT(t *testing.T) {
	sem := testSem(t)
	p := csp.ExtChoice(
		csp.DoEvent("a", csp.DoEvent("b", csp.Skip())),
		csp.DoEvent("c", csp.Stop()),
	)
	l, err := Explore(sem, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dot := l.ToDOT(DOTOptions{Name: "demo", HighlightTrace: []string{"a", "b"}})
	for _, want := range []string{
		"digraph \"demo\"",
		"init -> s0",
		"label=\"a\"",
		"label=\"b\"",
		"color=red",
		"shape=doublecircle", // the terminated state
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	small := l.ToDOT(DOTOptions{MaxStates: 2})
	if !strings.Contains(small, "truncated") {
		t.Error("truncation note missing")
	}
}
