package cspm

import (
	"strings"
	"testing"

	"repro/internal/csp"
	"repro/internal/csp/cspref"
	"repro/internal/refine"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("channel send, rec : Msgs -- comment\nP = send.reqSw -> P")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokKind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.Kind
	}
	want := []TokKind{
		TokChannel, TokIdent, TokComma, TokIdent, TokColon, TokIdent,
		TokIdent, TokEquals, TokIdent, TokDot, TokIdent, TokArrow, TokIdent,
		TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("token count = %d, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, kinds[i], want[i])
		}
	}
}

func TestLexCompositeOperators(t *testing.T) {
	src := `[] |~| ||| [| |] [[ ]] <- [T= [F= :[ {| |} -> .. == != <= >=`
	toks, err := Lex(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokKind{
		TokBox, TokIntCh, TokIleave, TokLPar, TokRPar, TokLRename,
		TokRRename, TokLArrow, TokRefT, TokRefF, TokColLBrack, TokLProd,
		TokRProd, TokArrow, TokDotDot, TokEq, TokNe, TokLe, TokGe, TokEOF,
	}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
}

func TestLexBlockComment(t *testing.T) {
	toks, err := Lex("P {- ignore\nme -} = STOP")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 { // P = STOP EOF
		t.Errorf("tokens = %v, want 4", toks)
	}
	if _, err := Lex("{- unterminated"); err == nil {
		t.Error("unterminated block comment accepted")
	}
}

func TestLexErrorPosition(t *testing.T) {
	_, err := Lex("P = STOP\n  $")
	if err == nil {
		t.Fatal("expected lex error for $")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Line != 2 || se.Col != 3 {
		t.Errorf("error at %d:%d, want 2:3", se.Line, se.Col)
	}
}

// paperScript is essentially the generated model of Figure 3 plus the
// SP_02 specification and the assertion of section V-B.
const paperScript = `
-- OTA software update case study (ITU-T X.1373 subset).
datatype Msgs = reqSw | rptSw | reqApp | rptUpd
channel send, rec : Msgs

SP02 = send.reqSw -> rec.rptSw -> SP02

VMG = send.reqSw -> rec?resp -> VMG
ECU = send?req -> (if req == reqSw then rec!rptSw -> ECU else rec!rptUpd -> ECU)

SYSTEM = VMG [| {| send, rec |} |] ECU

assert SP02 [T= SYSTEM
assert SYSTEM :[deadlock free]
`

func TestParsePaperScript(t *testing.T) {
	s, err := Parse(paperScript)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Decls) != 6 {
		t.Errorf("decls = %d, want 6", len(s.Decls))
	}
	if len(s.Asserts) != 2 {
		t.Fatalf("asserts = %d, want 2", len(s.Asserts))
	}
	if s.Asserts[0].Kind != AssertTraceRef {
		t.Errorf("first assertion kind = %v, want [T=", s.Asserts[0].Kind)
	}
	if s.Asserts[1].Kind != AssertDeadlockFree {
		t.Errorf("second assertion kind = %v, want deadlock free", s.Asserts[1].Kind)
	}
}

func TestEvaluateAndCheckPaperScript(t *testing.T) {
	m, err := Load(paperScript)
	if err != nil {
		t.Fatal(err)
	}
	c := refine.NewChecker(m.Env, m.Ctx)
	res, err := c.RefinesTraces(m.Asserts[0].Spec, m.Asserts[0].Impl)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("SP02 [T= SYSTEM failed: %s %s", res.Counterexample, res.Reason)
	}
	resDl, err := c.DeadlockFree(m.Asserts[1].Impl)
	if err != nil {
		t.Fatal(err)
	}
	if !resDl.Holds {
		t.Errorf("SYSTEM deadlocks: %s", resDl.Reason)
	}
}

func TestEvaluateFlawedScriptFindsCounterexample(t *testing.T) {
	flawed := `
datatype Msgs = reqSw | rptSw | reqApp | rptUpd
channel send, rec : Msgs
SP02 = send.reqSw -> rec.rptSw -> SP02
BADECU = send?req -> rec!rptUpd -> BADECU
VMG = send.reqSw -> rec?resp -> VMG
SYSTEM = VMG [| {| send, rec |} |] BADECU
assert SP02 [T= SYSTEM
`
	m, err := Load(flawed)
	if err != nil {
		t.Fatal(err)
	}
	c := refine.NewChecker(m.Env, m.Ctx)
	res, err := c.RefinesTraces(m.Asserts[0].Spec, m.Asserts[0].Impl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("flawed ECU must violate SP02")
	}
	if res.BadEvent == nil || res.BadEvent.String() != "rec.rptUpd" {
		t.Errorf("bad event = %v, want rec.rptUpd", res.BadEvent)
	}
}

func TestParameterisedProcesses(t *testing.T) {
	src := `
channel tick : {0..5}
COUNT(n) = n < 3 & tick!n -> COUNT(n+1)
`
	m, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(m.Env, m.Ctx)
	ts, err := cspref.Traces(sem, csp.Call("COUNT", csp.LitInt(0)), 5)
	if err != nil {
		t.Fatal(err)
	}
	want := csp.Trace{
		csp.Ev("tick", csp.Int(0)), csp.Ev("tick", csp.Int(1)), csp.Ev("tick", csp.Int(2)),
	}
	if !ts.Contains(want) {
		t.Errorf("missing trace %s", want)
	}
	if ts.Contains(csp.Trace{csp.Ev("tick", csp.Int(1))}) {
		t.Error("counter started at wrong value")
	}
}

func TestRestrictedInput(t *testing.T) {
	src := `
datatype M = a | b | c
channel ch : M
P = ch?x:{a, b} -> STOP
`
	m, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(m.Env, m.Ctx)
	ts, err := cspref.Traces(sem, csp.Call("P"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 3 { // <>, <ch.a>, <ch.b>
		t.Errorf("traces = %v, want 3 entries", ts.Slice())
	}
	if ts.Contains(csp.Trace{csp.Ev("ch", csp.Sym("c"))}) {
		t.Error("restricted input accepted excluded value c")
	}
}

func TestNametypeAndRanges(t *testing.T) {
	src := `
nametype Small = {1..3}
channel n : Small
P = n?x -> P
`
	m, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := m.Ctx.EventsOf("n")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Errorf("channel n has %d events, want 3", len(evs))
	}
}

func TestDatatypeWithPayloadInScript(t *testing.T) {
	src := `
datatype Key = k1 | k2
datatype Packet = plain.Key | handshake
channel net : Packet
P = net!(plain.k1) -> STOP
Q = net?p -> STOP
`
	m, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(m.Env, m.Ctx)
	ts, err := cspref.Traces(sem, csp.Call("P"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Contains(csp.Trace{csp.Ev("net", csp.NewDotted("plain", csp.Sym("k1")))}) {
		t.Errorf("missing net.plain.k1; have %v", ts.Slice())
	}
	tq, err := cspref.Traces(sem, csp.Call("Q"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if tq.Len() != 4 { // <> + 3 packets (plain.k1, plain.k2, handshake)
		t.Errorf("input over Packet gives %d traces, want 4", tq.Len())
	}
}

func TestHidingAndRenamingParse(t *testing.T) {
	src := `
channel a, b, c
P = (a -> b -> STOP) \ {| a |}
Q = (a -> STOP)[[a <- c]]
`
	m, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(m.Env, m.Ctx)
	ts, err := cspref.Traces(sem, csp.Call("P"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Contains(csp.Trace{csp.Ev("b")}) || ts.Contains(csp.Trace{csp.Ev("a")}) {
		t.Errorf("hiding wrong: %v", ts.Slice())
	}
	tq, err := cspref.Traces(sem, csp.Call("Q"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tq.Contains(csp.Trace{csp.Ev("c")}) {
		t.Errorf("renaming wrong: %v", tq.Slice())
	}
}

func TestSequentialAndInterleaveParse(t *testing.T) {
	src := `
channel a, b
P = (a -> SKIP) ; (b -> SKIP)
Q = (a -> SKIP) ||| (b -> SKIP)
`
	m, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(m.Env, m.Ctx)
	tp, err := cspref.Traces(sem, csp.Call("P"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !tp.Contains(csp.Trace{csp.Ev("a"), csp.Ev("b"), csp.Tick()}) {
		t.Error("sequential composition broken")
	}
	if tp.Contains(csp.Trace{csp.Ev("b")}) {
		t.Error("sequence allowed b first")
	}
	tq, err := cspref.Traces(sem, csp.Call("Q"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !tq.Contains(csp.Trace{csp.Ev("b"), csp.Ev("a"), csp.Tick()}) {
		t.Error("interleave missing b-first order")
	}
}

func TestPrefixPrecedenceOverChoice(t *testing.T) {
	// a -> STOP [] b -> STOP must parse as (a->STOP) [] (b->STOP).
	src := "channel a, b\nP = a -> STOP [] b -> STOP\n"
	m, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(m.Env, m.Ctx)
	ts, err := cspref.Traces(sem, csp.Call("P"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.Contains(csp.Trace{csp.Ev("a")}) || !ts.Contains(csp.Trace{csp.Ev("b")}) {
		t.Errorf("choice parse wrong: %v", ts.Slice())
	}
}

func TestRoundTripPrintParse(t *testing.T) {
	srcs := []string{
		paperScript,
		"channel a, b\nP = a -> STOP [] b -> SKIP\nassert P :[deadlock free]\n",
		"channel t : {0..3}\nC(n) = n < 3 & t!n -> C(n+1)\n",
		"channel a, b\nP = (a -> SKIP ||| b -> SKIP) \\ {| b |}\n",
		"datatype K = k1 | k2\nchannel e : K\nP = e?x -> (if x == k1 then P else STOP)\n",
		"channel a, b\nP = a -> STOP |~| b -> STOP\nassert P [F= P\n",
	}
	for _, src := range srcs {
		first, err := Parse(src)
		if err != nil {
			t.Fatalf("parse original: %v\n%s", err, src)
		}
		printed := Print(first)
		second, err := Parse(printed)
		if err != nil {
			t.Fatalf("parse printed form: %v\n%s", err, printed)
		}
		if again := Print(second); again != printed {
			t.Errorf("print not stable:\nfirst:\n%s\nsecond:\n%s", printed, again)
		}
		if !EqualScript(first, second) {
			t.Errorf("printed form parses to a different script:\n%s", printed)
		}
	}
	other, err := Parse("channel a, b\nP = a -> (STOP |~| b -> STOP)\nassert P [F= P\n")
	if err != nil {
		t.Fatal(err)
	}
	if last, _ := Parse(srcs[len(srcs)-1]); EqualScript(last, other) {
		t.Error("scripts that differ in grouping compare equal")
	}
}

func TestIsIdent(t *testing.T) {
	for s, want := range map[string]bool{
		"reqSw": true, "_t0": true, "x'": true, "anyMsg": true,
		"": false, "then": false, "STOP": false, "a b": false, "a--x": false,
		"ECU-1": false, "1a": false, "a.b": false,
	} {
		if got := IsIdent(s); got != want {
			t.Errorf("IsIdent(%q) = %v, want %v", s, got, want)
		}
	}
}

func TestEvalErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined process", "channel a\nP = Q\n", "undefined process"},
		{"undeclared channel", "P = a -> STOP\n", "undeclared channel"},
		{"unknown identifier", "channel c : {0..3}\nP = c!x -> STOP\n", "unknown identifier"},
		{"dup process", "channel a\nP = a -> STOP\nP = STOP\n", "defined twice"},
		{"dup type", "datatype T = x\ndatatype T = y\n", "declared twice"},
		{"ctor arity", "datatype T = f.{0..1}\nchannel c : T\nP = c!f -> STOP\n", "expects 1 argument"},
		{"call arity", "channel a\nP(n) = a -> STOP\nQ = P(1, 2)\n", "expects 1 argument"},
		{"bad rename", "channel a\nP = (a -> STOP)[[a <- zz]]\n", "undeclared channel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"P = ",
		"channel",
		"P = a ->",
		"assert P",
		"P = a.b", // communication without ->
		"datatype T =",
		"P = (a -> STOP",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseProcessStandalone(t *testing.T) {
	p, err := ParseProcess("a -> STOP [] SKIP")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(BinProcE); !ok {
		t.Errorf("parsed %T, want BinProcE", p)
	}
	if _, err := ParseProcess("a -> STOP trailing"); err == nil {
		t.Error("trailing tokens accepted")
	}
}

func TestAssertTextPreserved(t *testing.T) {
	s, err := Parse(paperScript)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Asserts[0].Text, "[T=") {
		t.Errorf("assertion text = %q, want it to mention [T=", s.Asserts[0].Text)
	}
}

func TestReplicatedExternalChoice(t *testing.T) {
	src := `
datatype M = m1 | m2 | m3
channel ch : M
P = [] x:M @ ch!x -> STOP
`
	m, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(m.Env, m.Ctx)
	ts, err := cspref.Traces(sem, csp.Call("P"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 4 { // <> plus one trace per member
		t.Errorf("traces = %v, want 4 entries", ts.Slice())
	}
	for _, name := range []string{"m1", "m2", "m3"} {
		if !ts.Contains(csp.Trace{csp.Ev("ch", csp.Sym(name))}) {
			t.Errorf("missing branch for %s", name)
		}
	}
}

func TestReplicatedInterleave(t *testing.T) {
	src := `
channel tick : {0..2}
P = ||| n:{0..2} @ tick!n -> SKIP
`
	m, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(m.Env, m.Ctx)
	ts, err := cspref.Traces(sem, csp.Call("P"), 4)
	if err != nil {
		t.Fatal(err)
	}
	want := csp.Trace{
		csp.Ev("tick", csp.Int(2)), csp.Ev("tick", csp.Int(0)),
		csp.Ev("tick", csp.Int(1)), csp.Tick(),
	}
	if !ts.Contains(want) {
		t.Errorf("interleaving missing permutation %s", want)
	}
}

func TestReplicatedRoundTrip(t *testing.T) {
	src := "datatype M = m1 | m2\nchannel ch : M\nP = [] x:M @ ch!x -> STOP\n"
	first, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(first)
	second, err := Parse(printed)
	if err != nil {
		t.Fatalf("printed form does not parse: %v\n%s", err, printed)
	}
	if Print(second) != printed {
		t.Errorf("replicated print not stable:\n%s", printed)
	}
}

func TestReplicatedErrors(t *testing.T) {
	if _, err := Load("channel a\nP = [] x: @ a -> STOP\n"); err == nil {
		t.Error("missing set accepted")
	}
	if _, err := Load("channel a\nP = [] x:{1..2} a -> STOP\n"); err == nil {
		t.Error("missing @ accepted")
	}
}

func TestFDAssertionParsesAndRuns(t *testing.T) {
	src := `
channel a
P = a -> P
assert P [FD= P
assert P [FD= (P \ {| a |})
`
	m, err := Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Asserts) != 2 || m.Asserts[0].Kind != AssertFDRef {
		t.Fatalf("asserts = %+v", m.Asserts)
	}
	c := refine.NewChecker(m.Env, m.Ctx)
	res, err := c.RefinesFD(m.Asserts[0].Spec, m.Asserts[0].Impl)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Error("P [FD= P failed")
	}
	res, err = c.RefinesFD(m.Asserts[1].Spec, m.Asserts[1].Impl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("hidden loop accepted under [FD=")
	}
}

// TestLoadMalformedIsTotal pins the no-panic contract of the CSPm
// frontend: garbage and truncated inputs must come back as errors, not
// panics — the conformance harness feeds Load whatever the extraction
// pipeline produced and contains failures as interpreter-error verdicts.
func TestLoadMalformedIsTotal(t *testing.T) {
	cases := []string{
		"channel",
		"channel a : ",
		"P = ",
		"P = a -> ",
		"P = (a -> STOP",
		"P = STOP [] ",
		"P Q R",
		"assert",
		"assert P [T=",
		"datatype D =",
		"P = P [[ a <- ]]",
		"\x00\xff\xfe",
		"P = if a then STOP",
		"channel a\nP = a -> P\nassert P [X= P",
	}
	for _, src := range cases {
		if _, err := Load(src); err == nil {
			t.Errorf("Load(%q) succeeded, want error", src)
		}
	}
}
