package learn

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/csp"
	"repro/internal/refine"
)

// otaContext declares the case-study alphabet (Table II of the paper).
func otaContext(t *testing.T) (*csp.Context, *csp.Env) {
	t.Helper()
	ctx := csp.NewContext()
	msgs := csp.EnumType("Msgs", "reqSw", "rptSw", "reqApp", "rptUpd")
	if err := ctx.DeclareType("Msgs", msgs); err != nil {
		t.Fatal(err)
	}
	ctx.MustChannel("send", msgs)
	ctx.MustChannel("rec", msgs)
	return ctx, csp.NewEnv()
}

func ev(ch, msg string) csp.Event {
	return csp.Event{Chan: ch, Args: []csp.Value{csp.Sym(msg)}}
}

func otaAlphabet() []csp.Event {
	return []csp.Event{ev("rec", "rptSw"), ev("rec", "rptUpd"), ev("send", "reqApp"), ev("send", "reqSw")}
}

// defineECU installs the extracted naive ECU:
//
//	ECU = send.reqSw -> rec!rptSw -> ECU [] send.reqApp -> rec!rptUpd -> ECU
func defineECU(t *testing.T, env *csp.Env) csp.Process {
	t.Helper()
	env.MustDefine("ECU", nil, csp.ExtChoice(
		csp.Send("send", csp.Send("rec", csp.Call("ECU"), csp.Sym("rptSw")), csp.Sym("reqSw")),
		csp.Send("send", csp.Send("rec", csp.Call("ECU"), csp.Sym("rptUpd")), csp.Sym("reqApp"))))
	return csp.Call("ECU")
}

func modelTeacher(t *testing.T) (*ModelTeacher, *refine.Checker, *csp.Env) {
	t.Helper()
	ctx, env := otaContext(t)
	proc := defineECU(t, env)
	checker := refine.NewChecker(env, ctx)
	return &ModelTeacher{Checker: checker, Proc: proc, Events: otaAlphabet()}, checker, env
}

func TestLearnECUFromModelTeacher(t *testing.T) {
	teacher, _, _ := modelTeacher(t)
	dfa, stats, err := Learn(Config{Teacher: teacher, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Minimal complete DFA: initial, post-reqSw, post-reqApp, reject sink.
	if dfa.States != 4 {
		t.Fatalf("learned %d states, want 4\n%s", dfa.States, mustJSON(t, dfa.JSON()))
	}
	accepting := 0
	for _, a := range dfa.Accepting {
		if a {
			accepting++
		}
	}
	if accepting != 3 {
		t.Fatalf("learned %d accepting states, want 3", accepting)
	}
	for _, tc := range []struct {
		w    csp.Trace
		want bool
	}{
		{csp.Trace{}, true},
		{csp.Trace{ev("send", "reqSw")}, true},
		{csp.Trace{ev("send", "reqSw"), ev("rec", "rptSw")}, true},
		{csp.Trace{ev("send", "reqSw"), ev("rec", "rptUpd")}, false},
		{csp.Trace{ev("send", "reqApp"), ev("rec", "rptUpd"), ev("send", "reqSw")}, true},
		{csp.Trace{ev("rec", "rptSw")}, false},
	} {
		if got := dfa.Accepts(tc.w); got != tc.want {
			t.Errorf("Accepts(%s) = %v, want %v", tc.w, got, tc.want)
		}
	}
	if stats.MembershipQueries == 0 || stats.EquivalenceRounds == 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}
}

// TestLearnTellsPunnedEventsApart: pun.Int(5) and pun.Sym("5") render
// alike, but they are two symbols of the alphabet. Against a model that
// performs only the Int, the learned automaton must accept the Int and
// reject the Sym; a learner that matched words by rendering would share
// one memo entry and one DFA symbol between them.
func TestLearnTellsPunnedEventsApart(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("pun", csp.ExplicitType{TypeName: "Pun", Elems: []csp.Value{csp.Int(5), csp.Sym("5")}})
	env := csp.NewEnv()
	env.MustDefine("P", nil, csp.Send("pun", csp.Call("P"), csp.Int(5)))
	num, sym := csp.Ev("pun", csp.Int(5)), csp.Ev("pun", csp.Sym("5"))
	for _, alpha := range [][]csp.Event{{num, sym}, {sym, num}} {
		teacher := &ModelTeacher{Checker: refine.NewChecker(env, ctx), Proc: csp.Call("P"), Events: alpha}
		dfa, _, err := Learn(Config{Teacher: teacher, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			w    csp.Trace
			want bool
		}{
			{csp.Trace{num, num}, true},
			{csp.Trace{sym}, false},
			{csp.Trace{num, sym}, false},
		} {
			if got := dfa.Accepts(tc.w); got != tc.want {
				t.Errorf("alphabet %v: Accepts(%#v) = %v, want %v", alpha, tc.w, got, tc.want)
			}
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestLearnDeterministicAcrossWorkerCounts pins the PR's core
// determinism claim at the learner level: the automaton AND the query
// statistics are byte-identical at any equivalence-pool width.
func TestLearnDeterministicAcrossWorkerCounts(t *testing.T) {
	var want []byte
	for _, workers := range []int{0, 1, 2, 4} {
		teacher, _, _ := modelTeacher(t)
		dfa, stats, err := Learn(Config{Teacher: teacher, Seed: 42, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		blob, err := json.Marshal(struct {
			DFA   *DFAJSON
			Stats Stats
		}{dfa.JSON(), stats})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = blob
			continue
		}
		if !bytes.Equal(blob, want) {
			t.Fatalf("workers=%d diverged:\n%s\nwant:\n%s", workers, blob, want)
		}
	}
}

// TestLoweredLearnedProcessIsTraceEquivalent closes the loop inside the
// model world: lowering the learned DFA back to CSP yields a process
// trace-equivalent to the one the teacher answered for.
func TestLoweredLearnedProcessIsTraceEquivalent(t *testing.T) {
	teacher, checker, env := modelTeacher(t)
	dfa, _, err := Learn(Config{Teacher: teacher, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	learned, err := dfa.Lower(env, "LEARNED")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []struct {
		name       string
		spec, impl csp.Process
	}{
		{"learned refines extracted", teacher.Proc, learned},
		{"extracted refines learned", learned, teacher.Proc},
	} {
		res, err := checker.RefinesTraces(dir.spec, dir.impl)
		if err != nil {
			t.Fatalf("%s: %v", dir.name, err)
		}
		if !res.Holds {
			t.Fatalf("%s fails: counterexample %s", dir.name, res.Counterexample)
		}
	}
}

// TestQueryBudgetAborts checks the budget error path: an impossibly
// small budget must surface a *QueryBudgetError, not hang or succeed.
func TestQueryBudgetAborts(t *testing.T) {
	teacher, _, _ := modelTeacher(t)
	_, _, err := Learn(Config{Teacher: teacher, Seed: 1, MaxQueries: 5})
	var qe *QueryBudgetError
	if !errors.As(err, &qe) {
		t.Fatalf("error %v is not a *QueryBudgetError", err)
	}
	if qe.Limit != 5 {
		t.Fatalf("budget limit %d, want 5", qe.Limit)
	}
}

// countingTeacher counts the membership queries that reach a teacher.
type countingTeacher struct {
	Teacher
	calls int64
}

func (c *countingTeacher) Membership(w csp.Trace) (bool, error) {
	c.calls++
	return c.Teacher.Membership(w)
}

// TestLearnErrorReportsStats pins the stats of an error return: a run
// stopped by MaxRounds before it converges still reports the membership
// queries the teacher answered and the observation table's size.
func TestLearnErrorReportsStats(t *testing.T) {
	inner, _, _ := modelTeacher(t)
	teacher := &countingTeacher{Teacher: inner}
	_, stats, err := Learn(Config{Teacher: teacher, Seed: 1, MaxRounds: 1, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "no convergence after 1 equivalence rounds") {
		t.Fatalf("err = %v, want non-convergence after 1 round", err)
	}
	if teacher.calls == 0 || stats.MembershipQueries != teacher.calls {
		t.Errorf("MembershipQueries = %d, teacher answered %d", stats.MembershipQueries, teacher.calls)
	}
	if stats.CacheHits == 0 || stats.TableRows == 0 || stats.TableSuffixes == 0 {
		t.Errorf("stats %+v: want non-zero cache hits and table size", stats)
	}
}
