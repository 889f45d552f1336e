package ota

import (
	"strings"
	"testing"

	"repro/internal/cspm"
	"repro/internal/fdr"
)

func TestTimerVariantBuilds(t *testing.T) {
	sys, err := BuildWithTimers()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"datatype Timers = updateCycle",
		"channel setTimer, cancelTimer, timeout : Timers",
		"VMG = setTimer.updateCycle -> VMG_RUN",
		"TIMER(t) = setTimer!t ->",
	} {
		if !strings.Contains(sys.Source, want) {
			t.Errorf("timer variant missing %q", want)
		}
	}
}

func TestTimerVariantChecks(t *testing.T) {
	sys, err := BuildWithTimers()
	if err != nil {
		t.Fatal(err)
	}
	results, err := fdr.RunAll(sys.Model, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Result.Holds {
			t.Errorf("timer variant assertion failed: %s", r)
		}
	}
}

func TestTimerProcessEnforcesArmExpireAlternation(t *testing.T) {
	// The modelling reason for composing TIMER(t): with it, setTimer and
	// timeout strictly alternate; without it, the timeout event
	// free-runs and fires repeatedly after a single arming.
	sys, err := BuildWithTimers()
	if err != nil {
		t.Fatal(err)
	}
	alternation := `
TALT = setTimer.updateCycle -> timeout.updateCycle -> TALT
TVIEW = SYSTEMT \ {| send, rec |}
assert TALT [T= TVIEW
`
	withTimer, err := cspm.Load(sys.Source + alternation)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fdr.RunAssert(withTimer, withTimer.Asserts[numTimerAsserts], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("with TIMER(t), arm/expire should alternate: %s", res.Counterexample)
	}

	freeRunning := strings.Replace(sys.Source+alternation,
		"VMGT = VMG [| {| setTimer, cancelTimer, timeout |} |] TIMER(updateCycle)",
		"VMGT = VMG", 1)
	noTimer, err := cspm.Load(freeRunning)
	if err != nil {
		t.Fatal(err)
	}
	res, err = fdr.RunAssert(noTimer, noTimer.Asserts[numTimerAsserts], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("free-running timer should violate arm/expire alternation")
	}
}

func TestFullX1373Builds(t *testing.T) {
	sys, err := BuildFullX1373()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"datatype SrvMsgs = diagnose | diagRpt | updateCheck | updateAvail | applyCmd | updateReport",
		"SERVER = toVMG!diagnose",
		"FULL = SERVER",
	} {
		if !strings.Contains(sys.Source, want) {
			t.Errorf("full model missing %q", want)
		}
	}
}

func TestFullX1373Checks(t *testing.T) {
	sys, err := BuildFullX1373()
	if err != nil {
		t.Fatal(err)
	}
	results, err := fdr.RunAll(sys.Model, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Result.Holds {
			t.Errorf("full X.1373 assertion %d failed: %s", i, r)
		}
	}
}

func TestFullX1373FlawedECUBreaksEndToEnd(t *testing.T) {
	// Swap in the flawed ECU: the end-to-end update property must
	// break somewhere in the stack (the gateway never gets its rptSw).
	sys, err := BuildFullX1373()
	if err != nil {
		t.Fatal(err)
	}
	flawedModel := strings.Replace(sys.Source,
		"ECU = send.reqSw -> rec!rptSw -> ECU [] send.reqApp -> rec!rptUpd -> ECU",
		"ECU = send.reqSw -> rec!rptUpd -> ECU [] send.reqApp -> rec!rptUpd -> ECU", 1)
	if flawedModel == sys.Source {
		t.Fatal("flaw substitution did not apply; generated model changed?")
	}
	model, err := cspm.Load(flawedModel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fdr.RunAssert(model, model.Asserts[FullAssertDeadlock], 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Error("flawed ECU should stall the full update stack")
	}
}
