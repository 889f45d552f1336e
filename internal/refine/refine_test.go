package refine

import (
	"strings"
	"testing"

	"repro/internal/csp"
)

// otaContext declares the case-study alphabet of the paper: channels
// send and rec carrying the X.1373 message types of Table II.
func otaContext(t *testing.T) (*csp.Context, *csp.Env) {
	t.Helper()
	ctx := csp.NewContext()
	msgs := csp.EnumType("Msgs", "reqSw", "rptSw", "reqApp", "rptUpd")
	if err := ctx.DeclareType("Msgs", msgs); err != nil {
		t.Fatal(err)
	}
	ctx.MustChannel("send", msgs)
	ctx.MustChannel("rec", msgs)
	ctx.MustChannel("other")
	return ctx, csp.NewEnv()
}

// sp02 builds the paper's SP_02 property: every software inventory
// request (send.reqSw) is answered by a report (rec.rptSw).
//
//	SP02 = send.reqSw -> rec.rptSw -> SP02
func sp02(env *csp.Env) csp.Process {
	env.MustDefine("SP02", nil,
		csp.Send("send", csp.Send("rec", csp.Call("SP02"), csp.Sym("rptSw")), csp.Sym("reqSw")))
	return csp.Call("SP02")
}

func TestSP02RefinedByCorrectSystem(t *testing.T) {
	ctx, env := otaContext(t)
	spec := sp02(env)
	// SYSTEM behaves exactly like the spec (the happy path of Fig. 2).
	env.MustDefine("SYSTEM", nil,
		csp.Send("send", csp.Send("rec", csp.Call("SYSTEM"), csp.Sym("rptSw")), csp.Sym("reqSw")))
	c := NewChecker(env, ctx)
	res, err := c.RefinesTraces(spec, csp.Call("SYSTEM"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Fatalf("SP02 [T= SYSTEM should hold; counterexample %s (%s)",
			res.Counterexample, res.Reason)
	}
}

func TestSP02ViolatedByFlawedSystem(t *testing.T) {
	ctx, env := otaContext(t)
	spec := sp02(env)
	// FLAWED answers a request with rptUpd instead of rptSw: an
	// integrity violation in the sense of section V-B.
	env.MustDefine("FLAWED", nil,
		csp.Send("send", csp.Send("rec", csp.Call("FLAWED"), csp.Sym("rptUpd")), csp.Sym("reqSw")))
	c := NewChecker(env, ctx)
	res, err := c.RefinesTraces(spec, csp.Call("FLAWED"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("flawed system must not refine SP02")
	}
	want := csp.Trace{csp.Ev("send", csp.Sym("reqSw")), csp.Ev("rec", csp.Sym("rptUpd"))}
	if !res.Counterexample.Equal(want) {
		t.Errorf("counterexample = %s, want %s", res.Counterexample, want)
	}
	if res.BadEvent == nil || res.BadEvent.String() != "rec.rptUpd" {
		t.Errorf("bad event = %v, want rec.rptUpd", res.BadEvent)
	}
}

func TestTraceRefinementEverySubsetHolds(t *testing.T) {
	ctx, env := otaContext(t)
	// RUN over {send} trace-refines any process using only send events.
	env.MustDefine("RUN", nil,
		csp.Recv("send", csp.Call("RUN"), "x"))
	env.MustDefine("ONE", nil,
		csp.Send("send", csp.Stop(), csp.Sym("reqApp")))
	c := NewChecker(env, ctx)
	res, err := c.RefinesTraces(csp.Call("RUN"), csp.Call("ONE"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("RUN [T= ONE should hold, got counterexample %s", res.Counterexample)
	}
	// And the reverse direction fails: ONE cannot match RUN's traces.
	res, err = c.RefinesTraces(csp.Call("ONE"), csp.Call("RUN"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("ONE [T= RUN must fail")
	}
}

func TestStopRefinesEverythingInTraces(t *testing.T) {
	ctx, env := otaContext(t)
	env.MustDefine("P", nil, csp.Send("send", csp.Call("P"), csp.Sym("reqSw")))
	c := NewChecker(env, ctx)
	res, err := c.RefinesTraces(csp.Call("P"), csp.Stop())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Error("P [T= STOP must hold (STOP has only the empty trace)")
	}
}

func TestFailuresRefinementDetectsNondeterminism(t *testing.T) {
	ctx, env := otaContext(t)
	// SPEC = deterministic choice; IMPL = internal choice. Traces agree
	// but IMPL can refuse either branch, so SPEC [F= IMPL fails while
	// SPEC [T= IMPL holds.
	env.MustDefine("SPEC", nil, csp.ExtChoice(
		csp.Send("send", csp.Stop(), csp.Sym("reqSw")),
		csp.Send("send", csp.Stop(), csp.Sym("reqApp")),
	))
	env.MustDefine("IMPL", nil, csp.IntChoice(
		csp.Send("send", csp.Stop(), csp.Sym("reqSw")),
		csp.Send("send", csp.Stop(), csp.Sym("reqApp")),
	))
	c := NewChecker(env, ctx)
	resT, err := c.RefinesTraces(csp.Call("SPEC"), csp.Call("IMPL"))
	if err != nil {
		t.Fatal(err)
	}
	if !resT.Holds {
		t.Errorf("SPEC [T= IMPL should hold, counterexample %s", resT.Counterexample)
	}
	resF, err := c.RefinesFailures(csp.Call("SPEC"), csp.Call("IMPL"))
	if err != nil {
		t.Fatal(err)
	}
	if resF.Holds {
		t.Error("SPEC [F= IMPL must fail: IMPL refuses events SPEC accepts")
	}
	if !strings.Contains(resF.Reason, "refuses") {
		t.Errorf("reason = %q, want refusal explanation", resF.Reason)
	}
}

func TestFailuresRefinementHoldsForEqualProcesses(t *testing.T) {
	ctx, env := otaContext(t)
	env.MustDefine("SPEC", nil, csp.Send("send", csp.Call("SPEC"), csp.Sym("reqSw")))
	env.MustDefine("IMPL", nil, csp.Send("send", csp.Call("IMPL"), csp.Sym("reqSw")))
	c := NewChecker(env, ctx)
	res, err := c.RefinesFailures(csp.Call("SPEC"), csp.Call("IMPL"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("identical processes must refine in failures; %s", res.Reason)
	}
}

func TestFailuresStopDoesNotRefineLiveSpec(t *testing.T) {
	ctx, env := otaContext(t)
	env.MustDefine("SPEC", nil, csp.Send("send", csp.Call("SPEC"), csp.Sym("reqSw")))
	c := NewChecker(env, ctx)
	res, err := c.RefinesFailures(csp.Call("SPEC"), csp.Stop())
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("SPEC [F= STOP must fail: STOP refuses everything")
	}
}

func TestDeadlockDetection(t *testing.T) {
	ctx, env := otaContext(t)
	// Two processes insisting on different synchronised events.
	sync := csp.EventsOf("send")
	deadlocked := csp.Par(
		csp.Send("send", csp.Stop(), csp.Sym("reqSw")),
		sync,
		csp.Send("send", csp.Stop(), csp.Sym("reqApp")),
	)
	c := NewChecker(env, ctx)
	res, err := c.DeadlockFree(deadlocked)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("mismatched synchronisation must deadlock")
	}
	if len(res.Counterexample) != 0 {
		t.Errorf("deadlock at the initial state should have empty trace, got %s", res.Counterexample)
	}
}

func TestDeadlockFreeRecursiveProcess(t *testing.T) {
	ctx, env := otaContext(t)
	env.MustDefine("P", nil, csp.Send("send", csp.Call("P"), csp.Sym("reqSw")))
	c := NewChecker(env, ctx)
	res, err := c.DeadlockFree(csp.Call("P"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("recurring process reported deadlocked: %s", res.Reason)
	}
}

func TestTerminationIsNotDeadlock(t *testing.T) {
	ctx, env := otaContext(t)
	c := NewChecker(env, ctx)
	res, err := c.DeadlockFree(csp.Send("send", csp.Skip(), csp.Sym("reqSw")))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("successful termination reported as deadlock: %s", res.Reason)
	}
	// STOP itself deadlocks immediately.
	res, err = c.DeadlockFree(csp.Stop())
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("STOP must be reported as deadlocked")
	}
}

func TestDivergenceDetection(t *testing.T) {
	ctx, env := otaContext(t)
	env.MustDefine("LOOP", nil, csp.DoEvent("other", csp.Call("LOOP")))
	c := NewChecker(env, ctx)
	res, err := c.DivergenceFree(csp.Hide(csp.Call("LOOP"), csp.EventsOf("other")))
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("hidden loop must diverge")
	}
	res, err = c.DivergenceFree(csp.Call("LOOP"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("visible loop wrongly reported divergent: %s", res.Reason)
	}
}

func TestRefineCounterexampleIsShortest(t *testing.T) {
	ctx, env := otaContext(t)
	// Spec allows only reqSw forever; impl can do reqSw then reqApp.
	env.MustDefine("SPEC", nil, csp.Send("send", csp.Call("SPEC"), csp.Sym("reqSw")))
	env.MustDefine("IMPL", nil,
		csp.Send("send",
			csp.ExtChoice(
				csp.Send("send", csp.Call("IMPL"), csp.Sym("reqSw")),
				csp.Send("send", csp.Stop(), csp.Sym("reqApp")),
			), csp.Sym("reqSw")))
	c := NewChecker(env, ctx)
	res, err := c.RefinesTraces(csp.Call("SPEC"), csp.Call("IMPL"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("refinement should fail")
	}
	if len(res.Counterexample) != 2 {
		t.Errorf("counterexample %s has length %d, want shortest length 2",
			res.Counterexample, len(res.Counterexample))
	}
}

func TestModelString(t *testing.T) {
	if Traces.String() != "[T=" || Failures.String() != "[F=" {
		t.Errorf("model strings = %q / %q", Traces.String(), Failures.String())
	}
}

func TestFDRefinementRejectsDivergentImpl(t *testing.T) {
	ctx, env := otaContext(t)
	env.MustDefine("LIVE", nil, csp.DoEvent("other", csp.Call("LIVE")))
	c := NewChecker(env, ctx)
	divergent := csp.Hide(csp.Call("LIVE"), csp.EventsOf("other"))
	// Any spec: the divergent implementation must be rejected under FD.
	res, err := c.RefinesFD(csp.Call("LIVE"), divergent)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("divergent implementation accepted under [FD=")
	}
	if !strings.Contains(res.Reason, "diverges") {
		t.Errorf("reason = %q", res.Reason)
	}
	// The same pair under plain failures: hiding everything leaves only
	// taus; the divergence is invisible to the stable-failures product
	// only if no stable state misbehaves — either way it must not error.
	if _, err := c.RefinesFailures(csp.Call("LIVE"), divergent); err != nil {
		t.Fatal(err)
	}
}

func TestFDRefinementHoldsForEqualLiveProcesses(t *testing.T) {
	ctx, env := otaContext(t)
	env.MustDefine("P", nil, csp.Send("send", csp.Call("P"), csp.Sym("reqSw")))
	c := NewChecker(env, ctx)
	res, err := c.RefinesFD(csp.Call("P"), csp.Call("P"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("P [FD= P failed: %s", res.Reason)
	}
}

func TestFailuresRefinementRejectsDivergentSpec(t *testing.T) {
	ctx, env := otaContext(t)
	env.MustDefine("LIVE2", nil, csp.DoEvent("other", csp.Call("LIVE2")))
	c := NewChecker(env, ctx)
	divergentSpec := csp.Hide(csp.Call("LIVE2"), csp.EventsOf("other"))
	_, err := c.RefinesFailures(divergentSpec, csp.Stop())
	if err == nil {
		t.Fatal("divergent specification accepted for [F=")
	}
	if !strings.Contains(err.Error(), "divergence-free specification") {
		t.Errorf("err = %v", err)
	}
	// Trace refinement has no such restriction.
	if _, err := c.RefinesTraces(divergentSpec, csp.Stop()); err != nil {
		t.Errorf("trace refinement rejected divergent spec: %v", err)
	}
}

// TestRefinesPunnedEventsFail pins event identity in the product
// search: Int(5) and Sym("5") both render as pun.5, but csp.Event.Equal
// tells them apart, so an implementation performing the Sym refines no
// specification that offers only the Int, under [T= and [F= alike.
// Against a specification that may also refuse everything (|~| STOP),
// the first failure under both models is the event itself, and the
// verdict names the Sym as the bad event.
// TestHidingPunnedEventFails pins event identity in hiding sets: hiding
// pun.Int(5) leaves pun.Sym("5") visible, so
// STOP [T= (pun!Sym("5") -> STOP) \ {pun.Int(5)} fails on that event,
// while hiding the Sym itself makes the check hold.
func TestHidingPunnedEventFails(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("pun", csp.ExplicitType{TypeName: "Pun", Elems: []csp.Value{csp.Int(5), csp.Sym("5")}})
	num, sym := csp.Ev("pun", csp.Int(5)), csp.Ev("pun", csp.Sym("5"))
	impl := csp.Prefix("pun", []csp.CommField{csp.OutVal(csp.Sym("5"))}, csp.Stop())
	c := NewChecker(csp.NewEnv(), ctx)
	res, err := c.RefinesTraces(csp.Stop(), csp.Hide(impl, csp.Events(num)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds || len(res.Counterexample) != 1 || !res.Counterexample[0].Equal(sym) {
		t.Errorf("holds=%v counterexample %#v, want a failure on %#v", res.Holds, res.Counterexample, sym)
	}
	if res, err := c.RefinesTraces(csp.Stop(), csp.Hide(impl, csp.Events(sym))); err != nil || !res.Holds {
		t.Errorf("hiding the Sym itself: %+v, %v", res, err)
	}
}

func TestRefinesPunnedEventsFail(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("pun", csp.ExplicitType{TypeName: "Pun", Elems: []csp.Value{csp.Int(5), csp.Sym("5")}})
	intOnly := csp.Prefix("pun", []csp.CommField{csp.OutVal(csp.Int(5))}, csp.Stop())
	impl := csp.Prefix("pun", []csp.CommField{csp.OutVal(csp.Sym("5"))}, csp.Stop())
	sym := csp.Ev("pun", csp.Sym("5"))
	c := NewChecker(csp.NewEnv(), ctx)
	for _, m := range []Model{Traces, Failures} {
		res, err := c.Refines(intOnly, impl, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Holds {
			t.Errorf("%s: pun!Sym(\"5\") -> STOP refines pun!Int(5) -> STOP", m)
		}
		res, err = c.Refines(csp.IntChoice(intOnly, csp.Stop()), impl, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.Holds || res.BadEvent == nil || !res.BadEvent.Equal(sym) {
			t.Errorf("%s: holds=%v BadEvent=%#v, want a failure on %#v", m, res.Holds, res.BadEvent, sym)
		}
		if len(res.Counterexample) != 1 || !res.Counterexample[0].Equal(sym) {
			t.Errorf("%s: counterexample = %#v, want <%#v>", m, res.Counterexample, sym)
		}
		// The same event on both sides still matches.
		if res, err := c.Refines(impl, impl, m); err != nil || !res.Holds {
			t.Errorf("%s: impl does not refine itself: %+v, %v", m, res, err)
		}
	}
}
