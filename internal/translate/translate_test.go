package translate

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/capl"
	"repro/internal/cspm"
	"repro/internal/refine"
)

// ecuSource is the demonstration ECU node of the case study (Figure 2),
// programmed as a CANoe network node.
const ecuSource = `
/*@!Encoding:1310*/
variables
{
  message 0x101 swInventoryReq;   // reqSw
  message 0x102 swInventoryRpt;   // rptSw
  message 0x103 applyUpdateReq;   // reqApp
  message 0x104 updateResultRpt;  // rptUpd
  int updatesApplied = 0;
}

on message swInventoryReq
{
  output(swInventoryRpt);
}

on message applyUpdateReq
{
  applyUpdate();
  output(updateResultRpt);
}

void applyUpdate()
{
  updatesApplied = updatesApplied + 1;
}
`

var paperRename = map[string]string{
	"swInventoryReq":  "reqSw",
	"swInventoryRpt":  "rptSw",
	"applyUpdateReq":  "reqApp",
	"updateResultRpt": "rptUpd",
}

func translateECU(t *testing.T) *Result {
	t.Helper()
	prog, err := capl.Parse(ecuSource)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions("ECU")
	opts.MessageRename = paperRename
	res, err := Translate(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestECUTranslationShape(t *testing.T) {
	res := translateECU(t)
	text := res.Text
	for _, want := range []string{
		"datatype Msgs = reqSw | rptSw | reqApp | rptUpd",
		"channel send, rec : Msgs",
		"ECU = ",
		"send.reqSw -> rec!rptSw -> ECU",
		"send.reqApp -> rec!rptUpd -> ECU",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("generated text missing %q:\n%s", want, text)
		}
	}
	if len(res.Diags) != 0 {
		t.Errorf("unexpected diagnostics: %v", res.Diags)
	}
}

func TestECUModelBehaviour(t *testing.T) {
	res := translateECU(t)
	// Append the paper's SP_02 property and check it against the
	// extracted model under the diagnose-only projection — the
	// end-to-end path of Figure 1.
	combined := res.Text + `
SP02 = send.reqSw -> rec.rptSw -> SP02
DIAG = ECU \ {send.reqApp, rec.rptUpd}
assert SP02 [T= DIAG
`
	m, err := cspm.Load(combined)
	if err != nil {
		t.Fatal(err)
	}
	c := refine.NewChecker(m.Env, m.Ctx)
	checkRes, err := c.RefinesTraces(m.Asserts[0].Spec, m.Asserts[0].Impl)
	if err != nil {
		t.Fatal(err)
	}
	if !checkRes.Holds {
		t.Errorf("SP02 violated by extracted ECU: %s (%s)", checkRes.Counterexample, checkRes.Reason)
	}
}

func TestVMGTranslationDirections(t *testing.T) {
	const vmgSource = `
variables
{
  message 0x101 swInventoryReq;
  message 0x102 swInventoryRpt;
}
on start { output(swInventoryReq); }
on message swInventoryRpt { output(swInventoryReq); }
`
	prog, err := capl.Parse(vmgSource)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		NodeName:      "VMG",
		InChannel:     "rec",
		OutChannel:    "send",
		MsgDatatype:   "Msgs",
		MessageRename: paperRename,
		IncludeTimers: true,
	}
	res, err := Translate(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"VMG = send!reqSw -> VMG_RUN",
		"VMG_RUN = rec.rptSw -> send!reqSw -> VMG_RUN",
	} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("missing %q in:\n%s", want, res.Text)
		}
	}
}

func TestTimerTranslation(t *testing.T) {
	const src = `
variables
{
  message 0x1 ping;
  msTimer cycle;
}
on start { setTimer(cycle, 100); }
on timer cycle { output(ping); setTimer(cycle, 100); }
`
	prog, err := capl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions("NODE")
	opts.GenerateTimerProcess = true
	res, err := Translate(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"datatype Timers = cycle",
		"channel setTimer, cancelTimer, timeout : Timers",
		"NODE = setTimer.cycle -> NODE_RUN",
		"NODE_RUN = timeout.cycle -> rec!ping -> setTimer.cycle -> NODE_RUN",
		"TIMER(t) = setTimer!t ->",
	} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("missing %q in:\n%s", want, res.Text)
		}
	}
	// The generated script must evaluate.
	if _, err := cspm.Load(res.Text); err != nil {
		t.Fatalf("generated script does not evaluate: %v", err)
	}
}

func TestTimersDisabled(t *testing.T) {
	const src = `
variables
{
  message 0x1 ping;
  msTimer cycle;
}
on timer cycle { output(ping); }
on message ping { setTimer(cycle, 5); }
`
	prog, err := capl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions("NODE")
	opts.IncludeTimers = false
	res, err := Translate(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Text, "setTimer") || strings.Contains(res.Text, "timeout") {
		t.Errorf("timer events present despite IncludeTimers=false:\n%s", res.Text)
	}
	if len(res.Diags) == 0 {
		t.Error("dropping a timer handler should warn")
	}
}

func TestConditionAbstractedToInternalChoice(t *testing.T) {
	const src = `
variables
{
  message 0x1 req;
  message 0x2 ok;
  message 0x3 nak;
  int state = 0;
}
on message req
{
  if (state == 0) {
    output(ok);
  } else {
    output(nak);
  }
}
`
	prog, err := capl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Translate(prog, DefaultOptions("N"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "|~|") {
		t.Errorf("runtime condition should become internal choice:\n%s", res.Text)
	}
	found := false
	for _, d := range res.Diags {
		if strings.Contains(d.Msg, "internal choice") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected abstraction warning, got %v", res.Diags)
	}
}

func TestConstantConditionFolded(t *testing.T) {
	const src = `
variables
{
  message 0x1 a;
  message 0x2 b;
}
on message a
{
  if (1 + 1 == 2) {
    output(b);
  } else {
    output(a);
  }
}
`
	prog, err := capl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Translate(prog, DefaultOptions("N"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Text, "|~|") {
		t.Errorf("constant condition should fold, not branch:\n%s", res.Text)
	}
	if !strings.Contains(res.Text, "send.a -> rec!b -> N") {
		t.Errorf("folded branch wrong:\n%s", res.Text)
	}
}

func TestLoopApproximation(t *testing.T) {
	const src = `
variables
{
  message 0x1 chunk;
  message 0x2 fin;
}
on message fin
{
  int i;
  for (i = 0; i < 8; i++) {
    output(chunk);
  }
  output(fin);
}
`
	prog, err := capl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Translate(prog, DefaultOptions("N"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "N_LOOP1") {
		t.Errorf("expected auxiliary loop process:\n%s", res.Text)
	}
	m, err := cspm.Load(res.Text)
	if err != nil {
		t.Fatalf("loop translation does not evaluate: %v\n%s", err, res.Text)
	}
	_ = m
}

func TestEventFreeLoopDropped(t *testing.T) {
	const src = `
variables
{
  message 0x1 a;
}
on message a
{
  int i, sum;
  for (i = 0; i < 8; i++) { sum += i; }
  output(a);
}
`
	prog, err := capl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Translate(prog, DefaultOptions("N"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Text, "LOOP") {
		t.Errorf("event-free loop should vanish:\n%s", res.Text)
	}
}

func TestSwitchAbstraction(t *testing.T) {
	const src = `
variables
{
  message 0x1 q;
  message 0x2 r1;
  message 0x3 r2;
}
on message q
{
  switch (this.byte(0)) {
    case 1:
      output(r1);
      break;
    default:
      output(r2);
  }
}
`
	prog, err := capl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Translate(prog, DefaultOptions("N"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "|~|") {
		t.Errorf("switch on message data should become internal choice:\n%s", res.Text)
	}
	if !strings.Contains(res.Text, "rec!r1") || !strings.Contains(res.Text, "rec!r2") {
		t.Errorf("switch arms missing:\n%s", res.Text)
	}
}

func TestFunctionInliningAndRecursionRejected(t *testing.T) {
	const recursive = `
variables { message 0x1 a; }
on message a { spin(); }
void spin() { spin(); }
`
	prog, err := capl.Parse(recursive)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Translate(prog, DefaultOptions("N")); err == nil {
		t.Error("recursive function inlining must be rejected")
	} else if !strings.Contains(err.Error(), "recursive") {
		t.Errorf("error = %v, want recursion message", err)
	}
}

func TestOnMessageByID(t *testing.T) {
	const src = `
variables { message 0x123 ping; }
on message 0x123 { output(ping); }
`
	prog, err := capl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Translate(prog, DefaultOptions("N"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "send.ping -> rec!ping -> N") {
		t.Errorf("on message by id mis-translated:\n%s", res.Text)
	}
}

func TestOnMessageWildcard(t *testing.T) {
	const src = `
variables { message 0x1 a; message 0x2 b; }
on message * { output(a); }
`
	prog, err := capl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Translate(prog, DefaultOptions("N"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "send?anyMsg -> rec!a -> N") {
		t.Errorf("wildcard handler mis-translated:\n%s", res.Text)
	}
	m, err := cspm.Load(res.Text)
	if err != nil {
		t.Fatal(err)
	}
	_ = m
}

func TestOmitDeclsAndExtraMessages(t *testing.T) {
	const src = `
variables { message 0x1 a; }
on message a { output(a); }
`
	prog, err := capl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions("N")
	opts.OmitDecls = true
	opts.ExtraMessages = []string{"b"}
	res, err := Translate(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Text, "datatype") || strings.Contains(res.Text, "channel") {
		t.Errorf("OmitDecls output still contains declarations:\n%s", res.Text)
	}
	if !strings.Contains(res.Text, "N = send.a -> rec!a -> N") {
		t.Errorf("definitions missing:\n%s", res.Text)
	}
}

func TestTranslateErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no messages", "variables { int x; }\non start { }\n", "no message declarations"},
		{"unknown msg", "variables { message 0x1 a; }\non message nope { }\n", "not declared"},
		{"unknown id", "variables { message 0x1 a; }\non message 0x99 { }\n", "no message with that identifier"},
		{"unknown timer", "variables { message 0x1 a; }\non timer tx { }\n", "not declared"},
		{"bad output", "variables { message 0x1 a; }\non message a { output(5); }\n", "must be a message variable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := capl.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Translate(prog, DefaultOptions("N"))
			if err == nil {
				t.Fatalf("expected error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestGeneratedScriptAlwaysParses(t *testing.T) {
	res := translateECU(t)
	if _, err := cspm.Parse(res.Text); err != nil {
		t.Fatalf("generated CSPm unparsable: %v", err)
	}
	if _, err := cspm.Load(res.Text); err != nil {
		t.Fatalf("generated CSPm does not evaluate: %v", err)
	}
}

// TestBadNamesRejected checks that an outside name the CSPm file could
// not carry is refused where it enters the translator, naming the name
// and its role, and not as a translator fault.
func TestBadNamesRejected(t *testing.T) {
	const plain = "variables { message 0x1 a; }\non message a { output(a); }\n"
	cases := []struct {
		name, src string
		opts      func(*Options)
		want      string
	}{
		{"message keyword", "variables { message 0x1 then; }\non message then { output(then); }\n", nil,
			`message constructor "then" is a CSPm keyword`},
		{"timer keyword", "variables { message 0x1 a; msTimer STOP; }\non message a { setTimer(STOP, 10); }\n", nil,
			`timer "STOP" is a CSPm keyword`},
		{"empty rename", plain, func(o *Options) { o.MessageRename = map[string]string{"a": ""} },
			`rename of message a "" is not a CSPm identifier`},
		{"spaced rename", plain, func(o *Options) { o.MessageRename = map[string]string{"a": "a b"} },
			`rename of message a "a b" is not a CSPm identifier`},
		{"node name", plain, func(o *Options) { o.NodeName = "ECU-1" },
			`node name "ECU-1" is not a CSPm identifier`},
		{"channel keyword", plain, func(o *Options) { o.InChannel = "if" },
			`in channel "if" is a CSPm keyword`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := capl.Parse(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions("N")
			if tc.opts != nil {
				tc.opts(&opts)
			}
			_, err = Translate(prog, opts)
			if !errors.Is(err, ErrBadName) {
				t.Fatalf("err = %v, want ErrBadName", err)
			}
			if !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), "translator bug") {
				t.Errorf("err = %v, want %q and no translator fault", err, tc.want)
			}
		})
	}
}
