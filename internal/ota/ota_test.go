package ota

import (
	"strings"
	"testing"

	"repro/internal/candb"
	"repro/internal/csp"
	"repro/internal/fdr"
	"repro/internal/refine"
)

func TestBuildCorrectSystem(t *testing.T) {
	sys, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Warnings) != 0 {
		t.Errorf("unexpected translator warnings: %v", sys.Warnings)
	}
	// The Figure 3 artefact: the generated ECU model.
	for _, want := range []string{
		"datatype Msgs = reqSw | rptSw | reqApp | rptUpd",
		"channel send, rec : Msgs",
		"send.reqSw -> rec!rptSw -> ECU",
	} {
		if !strings.Contains(sys.ECUText, want) {
			t.Errorf("ECU model missing %q:\n%s", want, sys.ECUText)
		}
	}
}

func TestRequirementsHoldOnCorrectSystem(t *testing.T) {
	sys, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	results, err := CheckRequirements(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(TableIII) {
		t.Fatalf("results = %d, want %d", len(results), len(TableIII))
	}
	for _, r := range results {
		if !r.Holds {
			t.Errorf("%s failed: %s %s", r.Req.ID, r.Result.Counterexample, r.Result.Reason)
		}
	}
}

func TestAllAssertionsPassOnCorrectSystem(t *testing.T) {
	sys, err := Build()
	if err != nil {
		t.Fatal(err)
	}
	results, err := fdr.RunAll(sys.Model, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.Result.Holds {
			t.Errorf("assertion failed: %s", r)
		}
	}
}

func TestFlawedECUViolatesR02(t *testing.T) {
	sys, err := BuildFlawed()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckAssertion(sys, AssertR02, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("flawed ECU must violate SP02")
	}
	// The shortest counterexample: a second reqSw with no rptSw between
	// (the rptUpd the flawed ECU sends is hidden in the DIAG view).
	got := res.Counterexample.String()
	if !strings.Contains(got, "send.reqSw") {
		t.Errorf("counterexample = %s, want it to exhibit the unanswered request", got)
	}
	// R01 still holds: the VMG side is untouched.
	res01, err := CheckAssertion(sys, AssertR01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res01.Holds {
		t.Errorf("R01 should still hold on the flawed system: %s", res01.Counterexample)
	}
}

func TestDeadlockedECUCaught(t *testing.T) {
	sys, err := BuildDeadlocked()
	if err != nil {
		t.Fatal(err)
	}
	res, err := CheckAssertion(sys, AssertDeadlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("request-swallowing ECU must deadlock the system")
	}
	// Deadlock occurs after the first (unanswered) inventory request.
	if len(res.Counterexample) != 1 || !strings.Contains(res.Counterexample.String(), "send.reqSw") {
		t.Errorf("deadlock trace = %s, want <send.reqSw>", res.Counterexample)
	}
}

func TestTableIIContents(t *testing.T) {
	if len(TableII) != 4 {
		t.Fatalf("Table II rows = %d, want 4", len(TableII))
	}
	ids := map[string]bool{}
	for _, row := range TableII {
		ids[row.ID] = true
		if row.From == row.To {
			t.Errorf("row %s: From == To", row.ID)
		}
	}
	for _, want := range []string{"reqSw", "rptSw", "reqApp", "rptUpd"} {
		if !ids[want] {
			t.Errorf("Table II missing %s", want)
		}
	}
	// Table II is a data copy of the CAN database's frame table: each
	// row's identifier, sender and constructor are one table entry.
	db, err := Database()
	if err != nil {
		t.Fatal(err)
	}
	table, err := candb.NewTable(db, MessageRename, map[string]string{"VMG": "VMG", "ECU": "ECU"})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(table.Events()); n != len(TableII) {
		t.Errorf("frame table has %d messages, Table II %d rows", n, len(TableII))
	}
	for _, row := range TableII {
		m, ok := table.Message(csp.Ev(row.From, csp.Sym(row.ID)))
		if !ok {
			t.Errorf("row %s: no %s message with that constructor in the database", row.ID, row.From)
			continue
		}
		if int64(m.ID) != row.CANID {
			t.Errorf("row %s: CANID 0x%X, database 0x%X", row.ID, row.CANID, m.ID)
		}
	}
}

func TestSecureNaiveInjectionAttack(t *testing.T) {
	m, err := BuildSecure(Naive)
	if err != nil {
		t.Fatal(err)
	}
	c := refine.NewChecker(m.Env, m.Ctx)
	res, err := c.RefinesTraces(m.AuthSpec, m.System)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("plaintext protocol must be vulnerable to injection")
	}
	// The classic attack: an update is applied with no request ever made.
	if res.Counterexample.String() != "<applyUpd>" {
		t.Errorf("attack trace = %s, want <applyUpd>", res.Counterexample)
	}
}

func TestSecureMACStopsInjection(t *testing.T) {
	m, err := BuildSecure(MACOnly)
	if err != nil {
		t.Fatal(err)
	}
	c := refine.NewChecker(m.Env, m.Ctx)
	res, err := c.RefinesTraces(m.AuthSpec, m.System)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("MAC protocol wrongly vulnerable to injection: %s", res.Counterexample)
	}
}

func TestSecureMACReplayAttack(t *testing.T) {
	m, err := BuildSecure(MACOnly)
	if err != nil {
		t.Fatal(err)
	}
	c := refine.NewChecker(m.Env, m.Ctx)
	res, err := c.RefinesTraces(m.InjSpec, m.System)
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds {
		t.Fatal("MAC-only protocol must be vulnerable to replay")
	}
	// Replay: one startUpd, two applyUpd.
	got := res.Counterexample.String()
	if !strings.Contains(got, "applyUpd, applyUpd") {
		t.Errorf("replay trace = %s, want double applyUpd", got)
	}
}

func TestSecureNonceStopsReplay(t *testing.T) {
	m, err := BuildSecure(MACNonce)
	if err != nil {
		t.Fatal(err)
	}
	c := refine.NewChecker(m.Env, m.Ctx)
	res, err := c.RefinesTraces(m.InjSpec, m.System)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds {
		t.Errorf("nonce protocol wrongly vulnerable to replay: %s (%s)",
			res.Counterexample, res.Reason)
	}
	// And injection stays impossible.
	resAuth, err := c.RefinesTraces(m.AuthSpec, m.System)
	if err != nil {
		t.Fatal(err)
	}
	if !resAuth.Holds {
		t.Errorf("nonce protocol wrongly vulnerable to injection: %s", resAuth.Counterexample)
	}
}

func TestSecureVariantStrings(t *testing.T) {
	for v, want := range map[SecureVariant]string{
		Naive:    "plaintext",
		MACOnly:  "shared-key MAC",
		MACNonce: "shared-key MAC + nonce",
	} {
		if v.String() != want {
			t.Errorf("variant %d = %q, want %q", v, v.String(), want)
		}
	}
}

func TestIntruderStateCountReported(t *testing.T) {
	m, err := BuildSecure(MACNonce)
	if err != nil {
		t.Fatal(err)
	}
	// Relevant packets: mac.kShared.reqApp, macn.kShared.reqApp.{n1,n2}
	// -> at most 2^3 knowledge states.
	if m.IntruderStates < 2 || m.IntruderStates > 8 {
		t.Errorf("intruder states = %d, want within [2,8]", m.IntruderStates)
	}
}
