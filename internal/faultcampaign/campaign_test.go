package faultcampaign

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canbus"
	"repro/internal/ota"
)

func TestMatrixShape(t *testing.T) {
	scenarios := Matrix(Config{Seed: 1})
	if len(scenarios) < 50 {
		t.Fatalf("default matrix has %d scenarios, want >= 50", len(scenarios))
	}
	names := map[string]bool{}
	seeds := map[int64]bool{}
	for _, sc := range scenarios {
		if names[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
		if seeds[sc.Seed] {
			t.Errorf("duplicate scenario seed %d (%s)", sc.Seed, sc.Name)
		}
		seeds[sc.Seed] = true
		if sc.Horizon <= 0 || sc.TargetCycles <= 0 {
			t.Errorf("scenario %q missing defaults: %+v", sc.Name, sc)
		}
	}
	// Every fault kind must appear, for both variants.
	for k := Kind(0); k < numKinds; k++ {
		for _, v := range []Variant{Naive, Hardened} {
			found := false
			for _, sc := range scenarios {
				if sc.Kind == k && sc.Variant == v {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("matrix missing kind %v for variant %v", k, v)
			}
		}
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	scenarios := Matrix(Config{Seed: 7})
	// One representative per kind keeps the test fast while still
	// covering every fault installer.
	seen := map[Kind]bool{}
	for _, sc := range scenarios {
		if seen[sc.Kind] {
			continue
		}
		seen[sc.Kind] = true
		a := RunScenario(sc)
		b := RunScenario(sc)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("scenario %q not deterministic:\n%+v\nvs\n%+v", sc.Name, a, b)
		}
	}
}

func TestCampaignReportByteIdentical(t *testing.T) {
	cfg := Config{Seed: 42, SeedsPerCase: 1}
	r1, r2 := Run(cfg), Run(cfg)
	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := r2.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j2) {
		t.Error("same seed produced different JSON reports")
	}
	if r1.Text() != r2.Text() {
		t.Error("same seed produced different text reports")
	}
	// A different master seed must actually change the scenario seeds.
	r3 := Run(Config{Seed: 43, SeedsPerCase: 1})
	if r1.Outcomes[0].Scenario.Seed == r3.Outcomes[0].Scenario.Seed {
		t.Error("different master seeds produced the same scenario seed")
	}
}

// campaign42 caches the reference campaign shared by the verdict tests.
var campaign42 *Report

func report42(t *testing.T) *Report {
	t.Helper()
	if campaign42 == nil {
		campaign42 = Run(Config{Seed: 42})
	}
	return campaign42
}

func outcomes(r *Report, k Kind, v Variant) []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.Scenario.Kind == k && o.Scenario.Variant == v {
			out = append(out, o)
		}
	}
	return out
}

func TestDropScenariosNeedRetries(t *testing.T) {
	r := report42(t)
	for _, o := range outcomes(r, Drop, Naive) {
		if o.Verdict == Converged {
			t.Errorf("%s: naive gateway converged under random loss", o.Scenario.Name)
		}
		if o.Verdict != Converged && o.DeliveredFrames > 0 && len(o.TailTrace) == 0 {
			t.Errorf("%s: non-converged outcome missing counterexample trace", o.Scenario.Name)
		}
	}
	for _, o := range outcomes(r, Drop, Hardened) {
		if o.Verdict != Converged {
			t.Errorf("%s: hardened gateway did not converge under random loss: %s %s",
				o.Scenario.Name, o.VerdictName, o.Violation)
		}
	}
}

func TestBurstLossScenariosNeedRetries(t *testing.T) {
	r := report42(t)
	for _, o := range outcomes(r, BurstLoss, Naive) {
		if o.Verdict == Converged {
			t.Errorf("%s: naive gateway converged under burst loss", o.Scenario.Name)
		}
	}
	for _, o := range outcomes(r, BurstLoss, Hardened) {
		if o.Verdict != Converged {
			t.Errorf("%s: hardened gateway did not converge under burst loss: %s",
				o.Scenario.Name, o.VerdictName)
		}
	}
}

func TestDuplicateSuppression(t *testing.T) {
	r := report42(t)
	for _, o := range outcomes(r, Duplicate, Naive) {
		if o.Verdict != Violated || !strings.Contains(o.Violation, "applied") {
			t.Errorf("%s: naive ECU should over-apply under duplication, got %s %q",
				o.Scenario.Name, o.VerdictName, o.Violation)
		}
	}
	for _, o := range outcomes(r, Duplicate, Hardened) {
		if o.Verdict != Converged {
			t.Errorf("%s: sequence-bit suppression should absorb duplicates, got %s %q",
				o.Scenario.Name, o.VerdictName, o.Violation)
		}
		if o.UpdatesApplied > o.RequestedUpdates {
			t.Errorf("%s: hardened ECU applied %d > requested %d",
				o.Scenario.Name, o.UpdatesApplied, o.RequestedUpdates)
		}
	}
}

func TestCorruptScenariosUseErrorConfinement(t *testing.T) {
	r := report42(t)
	for _, v := range []Variant{Naive, Hardened} {
		for _, o := range outcomes(r, CorruptDetected, v) {
			if o.Stats.ErrorFrames == 0 {
				t.Errorf("%s: no error frames recorded", o.Scenario.Name)
			}
			if o.Stats.Retransmissions == 0 {
				t.Errorf("%s: no automatic retransmissions recorded", o.Scenario.Name)
			}
		}
	}
	// Detected corruption is absorbed below the application layer: the
	// controller retransmits, so even the naive protocol converges.
	for _, o := range outcomes(r, CorruptDetected, Naive) {
		if o.Verdict != Converged {
			t.Errorf("%s: expected controller-level retransmission to rescue the naive protocol, got %s",
				o.Scenario.Name, o.VerdictName)
		}
	}
}

func TestTamperScenariosViolate(t *testing.T) {
	r := report42(t)
	violated := 0
	for _, v := range []Variant{Naive, Hardened} {
		for _, o := range outcomes(r, TamperUndetected, v) {
			if o.Verdict == Violated {
				violated++
				if !strings.Contains(o.Violation, "identifier") && !strings.Contains(o.Violation, "applied") {
					t.Errorf("%s: unexpected violation %q", o.Scenario.Name, o.Violation)
				}
			}
		}
	}
	if violated == 0 {
		t.Error("no tamper scenario produced a property violation")
	}
}

func TestTargetedDropExhaustsBoundedRetries(t *testing.T) {
	r := report42(t)
	for _, o := range outcomes(r, TargetedDrop, Hardened) {
		if o.Verdict != TimedOut {
			t.Errorf("%s: expected timeout under targeted drop, got %s", o.Scenario.Name, o.VerdictName)
		}
		if !o.GaveUp {
			t.Errorf("%s: hardened gateway should exhaust its bounded retries", o.Scenario.Name)
		}
	}
	for _, o := range outcomes(r, TargetedDrop, Naive) {
		if o.GaveUp {
			t.Errorf("%s: naive gateway has no retry budget to exhaust", o.Scenario.Name)
		}
	}
}

func TestReportTallies(t *testing.T) {
	r := report42(t)
	if r.Scenarios != len(r.Outcomes) {
		t.Errorf("Scenarios=%d but %d outcomes", r.Scenarios, len(r.Outcomes))
	}
	if got := r.Converged + r.TimedOut + r.Violated + r.Errored; got != r.Scenarios {
		t.Errorf("verdict tallies sum to %d, want %d", got, r.Scenarios)
	}
	if r.Errored != 0 {
		for _, o := range r.Outcomes {
			if o.Verdict == Errored {
				t.Errorf("%s: simulation error: %s", o.Scenario.Name, o.Error)
			}
		}
	}
	if !strings.Contains(r.Summary(), "scenarios") {
		t.Errorf("summary %q missing scenario count", r.Summary())
	}
}

// TestBabblingIdiotNonPositivePeriodErrors pins that a babble scenario
// with Period <= 0, which would reschedule itself at the same instant
// forever, is judged Errored without running.
func TestBabblingIdiotNonPositivePeriodErrors(t *testing.T) {
	var scenarios []Scenario
	for _, period := range []int64{0, -1} {
		scenarios = append(scenarios, Scenario{
			Name:     "babble-bad-period",
			Kind:     BabblingIdiot,
			KindName: BabblingIdiot.String(),
			TargetID: 0x001,
			Period:   canbus.Time(period),
			Width:    200 * canbus.Millisecond,
			Horizon:  500 * canbus.Millisecond,
		})
	}
	r := RunScenarios(Config{Seed: 1, Workers: 1}, scenarios)
	if r.Errored != len(scenarios) {
		t.Fatalf("errored = %d, want %d", r.Errored, len(scenarios))
	}
	for _, o := range r.Outcomes {
		if !strings.Contains(o.Error, "Period") {
			t.Errorf("error %q does not name the Period field", o.Error)
		}
	}
}

// TestProtocolIDsAreTheDatabase pins the campaign's protocol identifiers
// to the case study's CAN database: the four are its four messages, the
// requests sent by the VMG and the reports by the ECU, and the targeted
// drops remove the ECU's two reports.
func TestProtocolIDsAreTheDatabase(t *testing.T) {
	db, err := ota.Database()
	if err != nil {
		t.Fatal(err)
	}
	senders := map[uint32]string{idReqSw: "VMG", idRptSw: "ECU", idReqApp: "VMG", idRptUpd: "ECU"}
	if len(senders) != len(db.Messages) {
		t.Fatalf("%d distinct protocol identifiers, the database has %d messages", len(senders), len(db.Messages))
	}
	for id, sender := range senders {
		m, ok := db.MessageByID(id)
		if !ok || m.Sender != sender {
			t.Errorf("identifier 0x%03X: database message %+v, want one sent by %s", id, m, sender)
		}
	}
	var dropped []uint32
	for _, mc := range matrixCases {
		if mc.kind == TargetedDrop {
			dropped = append(dropped, mc.targetID)
		}
	}
	if !reflect.DeepEqual(dropped, []uint32{idRptSw, idRptUpd}) {
		t.Errorf("targeted drops of %#x, want the ECU's reports %#x and %#x", dropped, idRptSw, idRptUpd)
	}
}
