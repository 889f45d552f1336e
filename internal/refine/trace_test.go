package refine

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/csp"
	"repro/internal/obs"
)

func ev(ch, msg string) csp.Event {
	return csp.Event{Chan: ch, Args: []csp.Value{csp.Sym(msg)}}
}

func TestAcceptsTraceMembership(t *testing.T) {
	ctx, env := otaContext(t)
	impl := counterSystem(env)
	c := NewChecker(env, ctx)

	ok := []csp.Trace{
		{},
		{ev("send", "reqSw")},
		{ev("send", "reqSw"), ev("rec", "rptSw")},
		{ev("send", "reqSw"), ev("rec", "rptSw"), ev("send", "reqSw")},
	}
	for _, tr := range ok {
		res, err := c.AcceptsTrace(impl, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Errorf("trace %s should be accepted (failed at %d)", tr, res.FailedAt)
		}
	}

	res, err := c.AcceptsTrace(impl, csp.Trace{ev("send", "reqSw"), ev("rec", "rptUpd")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("wrong reply should be rejected")
	}
	if res.FailedAt != 1 {
		t.Errorf("FailedAt = %d, want 1", res.FailedAt)
	}
	if res.BadEvent == nil || res.BadEvent.String() != "rec.rptUpd" {
		t.Errorf("BadEvent = %v, want rec.rptUpd", res.BadEvent)
	}
	if len(res.Allowed) != 1 || res.Allowed[0].String() != "rec.rptSw" {
		t.Errorf("Allowed = %v, want [rec.rptSw]", res.Allowed)
	}
}

func TestAcceptsTraceThroughHiding(t *testing.T) {
	ctx, env := otaContext(t)
	// HID = SYSTEM with the send direction hidden: only rec.rptSw is
	// visible, preceded by a tau for the hidden send.
	impl := counterSystem(env)
	sendSet := csp.EventsOf("send")
	hidden := csp.Hide(impl, sendSet)
	c := NewChecker(env, ctx)
	res, err := c.AcceptsTrace(hidden, csp.Trace{ev("rec", "rptSw"), ev("rec", "rptSw")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Errorf("hidden-send trace should be accepted, failed at %d", res.FailedAt)
	}
}

func TestAcceptsTraceBudgets(t *testing.T) {
	ctx, env := otaContext(t)
	impl := bigCounter(t, ctx, env)
	c := NewChecker(env, ctx)
	c.MaxStates = 8
	long := make(csp.Trace, 0, 32)
	for i := 0; i < 32; i++ {
		long = append(long, csp.Event{Chan: "count", Args: []csp.Value{csp.Int(i)}})
	}
	_, err := c.AcceptsTrace(impl, long)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a *BudgetError", err)
	}
	if be.Phase != "trace" {
		t.Errorf("phase = %q, want trace", be.Phase)
	}

	c2 := NewChecker(env, ctx)
	c2.MaxDuration = time.Hour
	res, err := c2.AcceptsTrace(impl, long)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Errorf("counter trace should be accepted, failed at %d", res.FailedAt)
	}
}

// TestAcceptsTraceLeafErrorNamesTerm pins the error path of the compiled
// check: a leaf that fails to evaluate (unguarded recursion, an undefined
// process), alone or deep inside a composition, is an error naming the
// frontier term whose transitions failed — the reference check's exact
// message.
func TestAcceptsTraceLeafErrorNamesTerm(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("a")
	env := csp.NewEnv()
	env.MustDefine("LOOP", nil, csp.Call("LOOP"))
	env.MustDefine("OK", nil, csp.DoEvent("a", csp.Call("OK")))
	a := csp.Trace{csp.Ev("a")}
	for _, tc := range []struct {
		p     csp.Process
		trace csp.Trace
		term  string // Key() of the term the error must name
		is    error
		text  string
	}{
		{p: csp.Call("LOOP"), term: "LOOP", is: csp.ErrUnguardedRecursion},
		{p: csp.DoEvent("a", csp.Call("MISSING")), trace: a, term: "MISSING", text: `undefined process "MISSING"`},
		{
			p:     csp.Par(csp.Call("OK"), csp.EventsOf("a"), csp.DoEvent("a", csp.Hide(csp.Call("LOOP"), csp.EventsOf("a")))),
			trace: a,
			term:  csp.Par(csp.Call("OK"), csp.EventsOf("a"), csp.Hide(csp.Call("LOOP"), csp.EventsOf("a"))).Key(),
			is:    csp.ErrUnguardedRecursion,
		},
	} {
		c := NewChecker(env, ctx)
		_, err := c.AcceptsTrace(tc.p, tc.trace)
		if err == nil {
			t.Fatalf("%s: no error", tc.p.Key())
		}
		if tc.is != nil && !errors.Is(err, tc.is) {
			t.Errorf("%s: err = %v, want %v", tc.p.Key(), err, tc.is)
		}
		if want := "transitions of " + tc.term + ": "; !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), tc.text) {
			t.Errorf("%s: err = %q, want %q...%q", tc.p.Key(), err, want, tc.text)
		}
		if _, refErr := c.AcceptsTraceReference(tc.p, tc.trace); refErr == nil || refErr.Error() != err.Error() {
			t.Errorf("%s: err = %q, reference %v", tc.p.Key(), err, refErr)
		}
	}
}

// TestAcceptsTracePunnedEventsMatchExactly pins event identity: Int(5)
// and Sym("5") both render as pun.5 but are different events under
// csp.Event.Equal, and the compiled check's event IDs must tell them
// apart exactly as Equal does — in matching and in the diagnosis.
func TestAcceptsTracePunnedEventsMatchExactly(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("pun", csp.ExplicitType{TypeName: "Pun", Elems: []csp.Value{csp.Int(5), csp.Sym("5")}})
	env := csp.NewEnv()
	env.MustDefine("ANY", nil, csp.Prefix("pun", []csp.CommField{csp.In("x")}, csp.Call("ANY")))
	num, sym := csp.Ev("pun", csp.Int(5)), csp.Ev("pun", csp.Sym("5"))
	intOnly := csp.Prefix("pun", []csp.CommField{csp.OutVal(csp.Int(5))}, csp.Stop())
	c := NewChecker(env, ctx)
	for _, tc := range []struct {
		p        csp.Process
		trace    csp.Trace
		failedAt int
	}{
		{intOnly, csp.Trace{num}, -1},
		{intOnly, csp.Trace{sym}, 0},
		{csp.Call("ANY"), csp.Trace{num, sym, sym, num}, -1},
		{csp.Call("ANY"), csp.Trace{num, csp.Ev("pun", csp.Sym("6"))}, 1},
	} {
		got, err := c.AcceptsTrace(tc.p, tc.trace)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := c.AcceptsTraceReference(tc.p, tc.trace)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%s after %s", tc.p.Key(), tc.trace)
		if got.FailedAt != tc.failedAt || got.Accepted != (tc.failedAt < 0) {
			t.Errorf("%s: accepted=%v failedAt=%d, want failedAt=%d", label, got.Accepted, got.FailedAt, tc.failedAt)
		}
		if got.Accepted != ref.Accepted || got.FailedAt != ref.FailedAt || got.States != ref.States {
			t.Errorf("%s: %+v, reference %+v", label, got, ref)
		}
		if got.BadEvent != nil && !got.BadEvent.Equal(tc.trace[got.FailedAt]) {
			t.Errorf("%s: BadEvent %v is not the observed event", label, got.BadEvent)
		}
		if len(got.Allowed) != len(ref.Allowed) {
			t.Fatalf("%s: Allowed %v, reference %v", label, got.Allowed, ref.Allowed)
		}
		for i := range got.Allowed {
			if !got.Allowed[i].Equal(ref.Allowed[i]) {
				t.Errorf("%s: Allowed[%d] = %#v, reference %#v", label, i, got.Allowed[i], ref.Allowed[i])
			}
		}
	}
	// intOnly offers only the Int: a Sym observation is diagnosed with it.
	res, _ := c.AcceptsTrace(intOnly, csp.Trace{sym})
	if len(res.Allowed) != 1 || !res.Allowed[0].Equal(num) {
		t.Errorf("Allowed = %#v, want [%#v]", res.Allowed, num)
	}
	// A frontier offering both lists both, once each, in csp.Compare order.
	symOnly := csp.Prefix("pun", []csp.CommField{csp.OutVal(csp.Sym("5"))}, csp.Stop())
	res, _ = c.AcceptsTrace(csp.IntChoice(csp.ExtChoice(symOnly, intOnly), symOnly), csp.Trace{csp.Ev("pun", csp.Sym("6"))})
	if len(res.Allowed) != 2 || !res.Allowed[0].Equal(num) || !res.Allowed[1].Equal(sym) {
		t.Errorf("Allowed = %#v, want [%#v %#v]", res.Allowed, num, sym)
	}
}

// TestAcceptsTraceEmitsSpan pins the refine.trace span — the benchmark's
// layer name — with the check's size and memo effectiveness, and the
// refine.trace.states counter beside it.
func TestAcceptsTraceEmitsSpan(t *testing.T) {
	ctx, env := otaContext(t)
	impl := counterSystem(env)
	c := NewChecker(env, ctx)
	c.Obs = obs.New(obs.WithSpanRing(4))
	tr := csp.Trace{ev("send", "reqSw"), ev("rec", "rptSw"), ev("send", "reqSw")}
	res, err := c.AcceptsTrace(impl, tr)
	if err != nil || !res.Accepted {
		t.Fatalf("res %+v, err %v", res, err)
	}
	spans := c.Obs.Spans()
	if len(spans) != 1 || spans[0].Name != "refine.trace" {
		t.Fatalf("spans = %+v, want one refine.trace", spans)
	}
	a := spans[0].Attrs
	if a["states"] != int64(res.States) || a["events"] != int64(len(tr)) || a["verdict"] != "holds" {
		t.Errorf("attrs = %v, want verdict holds, states %d and events %d", a, res.States, len(tr))
	}
	if hits, _ := a["memo.hits"].(int64); hits == 0 {
		t.Errorf("attrs = %v: a cyclic model revisits memoized terms, want memo hits", a)
	}
	if misses, _ := a["memo.misses"].(int64); misses == 0 {
		t.Errorf("attrs = %v, want memo misses", a)
	}
	if got := c.Obs.Snapshot().Counters["refine.trace.states"]; got != int64(res.States) {
		t.Errorf("refine.trace.states = %d, want %d", got, res.States)
	}
}
