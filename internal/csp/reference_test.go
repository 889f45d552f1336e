// Tests of the composite operators' rules, recursion and bounded trace
// sets. csp.Semantics holds only the leaf rules, so these run over the
// reference semantics (package cspref), the oracle the compiled
// semantics in package lts is checked against edge for edge.
package csp_test

import (
	"strings"
	"testing"

	"repro/internal/csp"
	"repro/internal/csp/cspref"
)

func newRefSem(t *testing.T) *csp.Semantics {
	t.Helper()
	return csp.NewSemantics(csp.NewEnv(), csp.NewTestContext(t))
}

func mustRefTransitions(t *testing.T, sem *csp.Semantics, p csp.Process) []csp.Transition {
	t.Helper()
	trs, err := cspref.Transitions(sem, p)
	if err != nil {
		t.Fatalf("Transitions(%s): %v", p.Key(), err)
	}
	return trs
}

func TestExternalChoiceOffersBoth(t *testing.T) {
	sem := newRefSem(t)
	p := csp.ExtChoice(csp.DoEvent("a", csp.Stop()), csp.DoEvent("b", csp.Stop()))
	trs := mustRefTransitions(t, sem, p)
	if len(trs) != 2 {
		t.Fatalf("choice offers %d events, want 2", len(trs))
	}
}

func TestExternalChoiceTauDoesNotResolve(t *testing.T) {
	sem := newRefSem(t)
	// (a->STOP |~| b->STOP) [] c->STOP: the internal choice contributes
	// taus that must preserve the right branch.
	p := csp.ExtChoice(
		csp.IntChoice(csp.DoEvent("a", csp.Stop()), csp.DoEvent("b", csp.Stop())),
		csp.DoEvent("c", csp.Stop()),
	)
	trs := mustRefTransitions(t, sem, p)
	tauCount := 0
	for _, tr := range trs {
		if tr.Ev.IsTau() {
			tauCount++
			// After tau the c branch must still be available.
			next := mustRefTransitions(t, sem, tr.To)
			foundC := false
			for _, n := range next {
				if n.Ev.String() == "c" {
					foundC = true
				}
			}
			if !foundC {
				t.Errorf("tau resolved external choice: %s lost branch c", tr.To.Key())
			}
		}
	}
	if tauCount != 2 {
		t.Errorf("tau transitions = %d, want 2", tauCount)
	}
}

func TestSequentialComposition(t *testing.T) {
	sem := newRefSem(t)
	p := csp.Seq(csp.DoEvent("a", csp.Skip()), csp.DoEvent("b", csp.Skip()))
	ts, err := cspref.Traces(sem, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := csp.Trace{csp.Ev("a"), csp.Ev("b"), csp.Tick()}
	if !ts.Contains(want) {
		t.Errorf("traces of a->SKIP;b->SKIP missing %s; got %v", want, ts.Slice())
	}
	// The first component's tick must be internal: <a, tick, ...> never occurs.
	bad := csp.Trace{csp.Ev("a"), csp.Tick()}
	if ts.Contains(bad) {
		t.Errorf("sequential composition leaked intermediate termination %s", bad)
	}
}

func TestParallelSynchronisation(t *testing.T) {
	sem := newRefSem(t)
	// a->b->SKIP [| {a} |] a->c->SKIP: must sync on a then interleave b,c.
	p := csp.Par(
		csp.DoEvent("a", csp.DoEvent("b", csp.Skip())),
		csp.Events(csp.Ev("a")),
		csp.DoEvent("a", csp.DoEvent("c", csp.Skip())),
	)
	ts, err := cspref.Traces(sem, p, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []csp.Trace{
		{csp.Ev("a"), csp.Ev("b"), csp.Ev("c"), csp.Tick()},
		{csp.Ev("a"), csp.Ev("c"), csp.Ev("b"), csp.Tick()},
	} {
		if !ts.Contains(want) {
			t.Errorf("missing trace %s", want)
		}
	}
	if ts.Contains(csp.Trace{csp.Ev("a"), csp.Ev("a")}) {
		t.Error("synchronised event a occurred twice")
	}
	if ts.Contains(csp.Trace{csp.Ev("b")}) {
		t.Error("b occurred before synchronised a")
	}
}

func TestParallelBlocksWithoutPartner(t *testing.T) {
	sem := newRefSem(t)
	// a->STOP [| {a,b} |] b->STOP deadlocks immediately.
	p := csp.Par(csp.DoEvent("a", csp.Stop()), csp.Events(csp.Ev("a"), csp.Ev("b")), csp.DoEvent("b", csp.Stop()))
	trs := mustRefTransitions(t, sem, p)
	if len(trs) != 0 {
		t.Errorf("mismatched sync produced transitions %v, want deadlock", trs)
	}
}

func TestInterleavingAllOrders(t *testing.T) {
	sem := newRefSem(t)
	p := csp.Interleave(csp.DoEvent("a", csp.Skip()), csp.DoEvent("b", csp.Skip()))
	ts, err := cspref.Traces(sem, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []csp.Trace{
		{csp.Ev("a"), csp.Ev("b"), csp.Tick()},
		{csp.Ev("b"), csp.Ev("a"), csp.Tick()},
	} {
		if !ts.Contains(want) {
			t.Errorf("missing interleaving %s", want)
		}
	}
}

func TestDistributedTermination(t *testing.T) {
	sem := newRefSem(t)
	// SKIP ||| a->SKIP cannot tick until both sides can.
	p := csp.Interleave(csp.Skip(), csp.DoEvent("a", csp.Skip()))
	ts, err := cspref.Traces(sem, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Contains(csp.Trace{csp.Tick()}) {
		t.Error("parallel terminated before both components could")
	}
	if !ts.Contains(csp.Trace{csp.Ev("a"), csp.Tick()}) {
		t.Error("missing trace <a, tick>")
	}
}

func TestHidingMakesEventsInternal(t *testing.T) {
	sem := newRefSem(t)
	p := csp.Hide(csp.DoEvent("a", csp.DoEvent("b", csp.Stop())), csp.Events(csp.Ev("a")))
	trs := mustRefTransitions(t, sem, p)
	if len(trs) != 1 || !trs[0].Ev.IsTau() {
		t.Fatalf("hidden prefix transitions = %v, want single tau", trs)
	}
	ts, err := cspref.Traces(sem, p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Contains(csp.Trace{csp.Ev("b")}) {
		t.Error("hiding removed the wrong events")
	}
	if ts.Contains(csp.Trace{csp.Ev("a")}) {
		t.Error("hidden event a still visible")
	}
}

func TestRenaming(t *testing.T) {
	sem := newRefSem(t)
	p := csp.Rename(csp.DoEvent("a", csp.Stop()), map[string]string{"a": "b"})
	trs := mustRefTransitions(t, sem, p)
	if len(trs) != 1 || trs[0].Ev.String() != "b" {
		t.Fatalf("renamed transitions = %v, want single b", trs)
	}
}

func TestRecursionViaEnv(t *testing.T) {
	ctx := csp.NewTestContext(t)
	env := csp.NewEnv()
	env.MustDefine("P", nil, csp.DoEvent("a", csp.Call("P")))
	sem := csp.NewSemantics(env, ctx)
	ts, err := cspref.Traces(sem, csp.Call("P"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Contains(csp.Trace{csp.Ev("a"), csp.Ev("a"), csp.Ev("a"), csp.Ev("a")}) {
		t.Error("recursive P = a -> P missing trace <a,a,a,a>")
	}
}

func TestParameterisedRecursion(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("count", csp.IntRange{Lo: 0, Hi: 5})
	env := csp.NewEnv()
	// COUNT(n) = count!n -> COUNT(n+1), bounded by guard at 3.
	env.MustDefine("COUNT", []string{"n"},
		csp.Guard(csp.Binary{Op: csp.OpLe, L: csp.V("n"), R: csp.LitInt(3)},
			csp.Prefix("count", []csp.CommField{csp.Out(csp.V("n"))},
				csp.Call("COUNT", csp.Binary{Op: csp.OpAdd, L: csp.V("n"), R: csp.LitInt(1)}))))
	sem := csp.NewSemantics(env, ctx)
	ts, err := cspref.Traces(sem, csp.Call("COUNT", csp.LitInt(0)), 10)
	if err != nil {
		t.Fatal(err)
	}
	want := csp.Trace{
		csp.Ev("count", csp.Int(0)), csp.Ev("count", csp.Int(1)),
		csp.Ev("count", csp.Int(2)), csp.Ev("count", csp.Int(3)),
	}
	if !ts.Contains(want) {
		t.Errorf("counter missing trace %s; have %d traces", want, ts.Len())
	}
	if ts.Contains(csp.Trace{csp.Ev("count", csp.Int(0)), csp.Ev("count", csp.Int(0))}) {
		t.Error("counter repeated a value")
	}
}

func TestUnguardedRecursionDetected(t *testing.T) {
	ctx := csp.NewTestContext(t)
	env := csp.NewEnv()
	env.MustDefine("P", nil, csp.Call("P"))
	sem := csp.NewSemantics(env, ctx)
	_, err := cspref.Transitions(sem, csp.Call("P"))
	if err == nil {
		t.Fatal("expected unguarded recursion error")
	}
	if !strings.Contains(err.Error(), "unguarded recursion") {
		t.Errorf("error = %v, want unguarded recursion", err)
	}
}

func TestTraceStateLimit(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("n", csp.IntRange{Lo: 0, Hi: 1 << 20})
	env := csp.NewEnv()
	env.MustDefine("UP", []string{"i"},
		csp.Prefix("n", []csp.CommField{csp.Out(csp.V("i"))},
			csp.Call("UP", csp.Binary{Op: csp.OpAdd, L: csp.V("i"), R: csp.LitInt(1)})))
	sem := csp.NewSemantics(env, ctx)
	// Each visible step reaches a new state; the bound keeps it finite.
	ts, err := cspref.Traces(sem, csp.Call("UP", csp.LitInt(0)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Contains(csp.Trace{csp.Ev("n", csp.Int(0)), csp.Ev("n", csp.Int(1)), csp.Ev("n", csp.Int(2))}) {
		t.Error("unbounded counter traces wrong")
	}
}
