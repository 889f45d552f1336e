package translate

import (
	"strings"
	"testing"

	"repro/internal/capl"
	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/refine"
)

const tockSource = `
variables
{
  message 0x1 ping;
  msTimer cycle;
}
on start { setTimer(cycle, 200); }
on timer cycle { output(ping); setTimer(cycle, 100); }
`

func translateTock(t *testing.T) *Result {
	t.Helper()
	prog, err := capl.Parse(tockSource)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions("NODE")
	opts.TockTime = true
	opts.TockMs = 100
	opts.GenerateTimerProcess = true
	res, err := Translate(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTockTranslationShape(t *testing.T) {
	res := translateTock(t)
	for _, want := range []string{
		"channel tock",
		"channel setTimer : Timers.{0..2}",
		"channel cancelTimer, timeout : Timers",
		"setTimer.cycle.2", // 200 ms at 100 ms/tock
		"setTimer.cycle.1", // 100 ms
		"tock -> NODE",     // time passes in quiescent states
		"TIMER(t) = setTimer!t?d -> ARMED(t, d) [] tock -> TIMER(t)",
		"ARMED(t, n) = if (n == 0) then timeout!t -> TIMER(t)",
	} {
		if !strings.Contains(res.Text, want) {
			t.Errorf("tock model missing %q:\n%s", want, res.Text)
		}
	}
	// The generated script must evaluate.
	if _, err := cspm.Load(res.Text); err != nil {
		t.Fatalf("tock model does not evaluate: %v\n%s", err, res.Text)
	}
}

// TestTockTimingProperty checks the point of the tock extension: a
// 200 ms timer must not fire before two tocks have passed, and fires
// after exactly two.
func TestTockTimingProperty(t *testing.T) {
	res := translateTock(t)
	combined := res.Text + `
SYS = NODE [| {| setTimer, cancelTimer, timeout, tock |} |] TIMER(cycle)
`
	m, err := cspm.Load(combined)
	if err != nil {
		t.Fatal(err)
	}
	checker := refine.NewChecker(m.Env, m.Ctx)
	set2 := csp.Ev("setTimer", csp.Sym("cycle"), csp.Int(2))
	tock := csp.Ev("tock")
	fire := csp.Ev("timeout", csp.Sym("cycle"))

	early := csp.Trace{set2, tock, fire}
	tr, err := checker.AcceptsTrace(csp.Call("SYS"), early)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Accepted {
		t.Error("200 ms timer fired after a single tock")
	}
	onTime := csp.Trace{set2, tock, tock, fire}
	tr, err = checker.AcceptsTrace(csp.Call("SYS"), onTime)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Accepted {
		t.Error("200 ms timer cannot fire after two tocks")
	}
	immediately := csp.Trace{set2, fire}
	tr, err = checker.AcceptsTrace(csp.Call("SYS"), immediately)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Accepted {
		t.Error("timer fired with no time passing at all")
	}
}

// TestTockPeriodicBehaviour checks the rearm cycle: after the first
// expiry the 100 ms rearm needs exactly one more tock.
func TestTockPeriodicBehaviour(t *testing.T) {
	res := translateTock(t)
	combined := res.Text + `
SYS = NODE [| {| setTimer, cancelTimer, timeout, tock |} |] TIMER(cycle)
`
	m, err := cspm.Load(combined)
	if err != nil {
		t.Fatal(err)
	}
	checker := refine.NewChecker(m.Env, m.Ctx)
	set2 := csp.Ev("setTimer", csp.Sym("cycle"), csp.Int(2))
	set1 := csp.Ev("setTimer", csp.Sym("cycle"), csp.Int(1))
	tock := csp.Ev("tock")
	fire := csp.Ev("timeout", csp.Sym("cycle"))
	ping := csp.Ev("rec", csp.Sym("ping"))

	cycle := csp.Trace{set2, tock, tock, fire, ping, set1, tock, fire, ping, set1}
	tr, err := checker.AcceptsTrace(csp.Call("SYS"), cycle)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Accepted {
		t.Errorf("periodic behaviour missing: %s", cycle)
	}
}

func TestTockNonConstantDurationWarns(t *testing.T) {
	const src = `
variables
{
  message 0x1 ping;
  msTimer cycle;
  int period = 100;
}
on timer cycle { output(ping); setTimer(cycle, period); }
`
	prog, err := capl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions("N")
	opts.TockTime = true
	res, err := Translate(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range res.Diags {
		if strings.Contains(d.Msg, "non-constant timer duration") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected non-constant duration warning, got %v", res.Diags)
	}
}
