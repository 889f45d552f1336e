package conformance

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/canbus"
	"repro/internal/canoe"
)

// sharedRunner returns a package-wide runner so the expensive observed
// models are built once per (variant, budgets) pair across the tests.
var sharedRunner = sync.OnceValues(func() (*Runner, error) {
	return NewRunner()
})

func testRunner(t *testing.T) *Runner {
	t.Helper()
	r, err := sharedRunner()
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	return r
}

// shortGen keeps test campaigns fast: divergences in this protocol
// surface within the first few frames.
func shortGen() GenConfig {
	return GenConfig{Horizon: 12 * canbus.Millisecond, MaxOps: 2}
}

func TestFaultFreeVariantsConform(t *testing.T) {
	r := testRunner(t)
	for _, variant := range []Variant{VariantNaive, VariantHardened} {
		s := Schedule{Variant: variant, HorizonUs: 12_000}
		v := r.RunSchedule(s)
		if v.Kind != Conforms {
			t.Fatalf("%s fault-free: verdict %s (detail %q), want conforms", variant, v.Kind, v.Detail)
		}
		if v.DeliveredFrames == 0 {
			t.Fatalf("%s fault-free: no frames delivered", variant)
		}
		if len(v.AppliedOps) != 0 || !v.Budgets.IsZero() {
			t.Fatalf("%s fault-free: unexpected ops %v / budgets %+v", variant, v.AppliedOps, v.Budgets)
		}
	}
}

func TestFaultedSchedulesConformUnderBudgets(t *testing.T) {
	r := testRunner(t)
	cases := []Schedule{
		{Variant: VariantNaive, HorizonUs: 12_000, Ops: []Op{{Kind: OpDropFrame, Nth: 2}}},
		{Variant: VariantNaive, HorizonUs: 12_000, Ops: []Op{{Kind: OpDupFrame, Nth: 1, DelayUs: 400}}},
		{Variant: VariantHardened, HorizonUs: 12_000, Ops: []Op{{Kind: OpDelayFrame, Nth: 3, DelayUs: 900}}},
	}
	for _, s := range cases {
		v := r.RunSchedule(s)
		if v.Kind != Conforms {
			t.Errorf("%s %v: verdict %s (detail %q, divergence %+v), want conforms",
				s.Variant, s.Ops, v.Kind, v.Detail, v.Divergence)
			continue
		}
		if len(v.AppliedOps) == 0 || v.Budgets.IsZero() {
			t.Errorf("%s %v: perturbation did not fire (ops %v, budgets %+v)",
				s.Variant, s.Ops, v.AppliedOps, v.Budgets)
		}
	}
}

func TestFlawedDivergesAndShrinksDeterministically(t *testing.T) {
	r := testRunner(t)
	s := GenerateSchedule(VariantFlawed, campaign.Seed(7, 0), shortGen())
	v := r.RunSchedule(s)
	if v.Kind != Diverges {
		t.Fatalf("flawed: verdict %s (detail %q), want diverges", v.Kind, v.Detail)
	}
	if v.Divergence == nil || v.Divergence.BadEvent == "" {
		t.Fatalf("flawed: divergence diagnosis missing: %+v", v)
	}

	shrunk1, sv1, err := r.Shrink(s)
	if err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	shrunk2, sv2, err := r.Shrink(s)
	if err != nil {
		t.Fatalf("Shrink (2nd): %v", err)
	}
	if !reflect.DeepEqual(shrunk1, shrunk2) {
		t.Fatalf("shrinking is nondeterministic:\n%+v\n%+v", shrunk1, shrunk2)
	}
	if sv1.Kind != Diverges || sv2.Kind != Diverges {
		t.Fatalf("shrunk schedule verdicts: %s / %s, want diverges", sv1.Kind, sv2.Kind)
	}
	if len(shrunk1.Ops) > len(s.Ops) || shrunk1.HorizonUs > s.HorizonUs {
		t.Fatalf("shrunk schedule grew: %+v from %+v", shrunk1, s)
	}
	// The flawed gateway misbehaves on the very first exchange, so the
	// minimal reproduction needs no perturbations at all.
	if len(shrunk1.Ops) != 0 {
		t.Errorf("flawed shrunk ops = %v, want none", shrunk1.Ops)
	}

	// The shrunk schedule replays to the same divergence.
	rv := r.RunSchedule(shrunk1)
	if rv.Kind != Diverges || rv.Divergence == nil ||
		rv.Divergence.FailedAt != sv1.Divergence.FailedAt ||
		rv.Divergence.BadEvent != sv1.Divergence.BadEvent {
		t.Fatalf("shrunk replay mismatch: %+v vs %+v", rv.Divergence, sv1.Divergence)
	}
}

func TestShrinkRejectsConformingSchedule(t *testing.T) {
	r := testRunner(t)
	s := Schedule{Variant: VariantNaive, HorizonUs: 12_000}
	if _, _, err := r.Shrink(s); err == nil {
		t.Fatal("Shrink accepted a conforming schedule")
	}
}

func TestCampaignReportByteIdentical(t *testing.T) {
	cfg := Config{Seed: 42, SchedulesPerVariant: 1, Gen: shortGen()}
	rep1, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep2, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run (2nd): %v", err)
	}
	j1, err := rep1.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	j2, err := rep2.JSON()
	if err != nil {
		t.Fatalf("JSON (2nd): %v", err)
	}
	if !bytes.Equal(j1, j2) {
		t.Fatalf("campaign JSON not byte-identical:\n%s\n----\n%s", j1, j2)
	}
	if rep1.Text() != rep2.Text() {
		t.Fatalf("campaign text not identical:\n%s\n----\n%s", rep1.Text(), rep2.Text())
	}
	if rep1.Schedules != 3 {
		t.Fatalf("schedules = %d, want 3", rep1.Schedules)
	}
	if rep1.Diverges == 0 {
		t.Fatalf("campaign found no divergence (flawed variant should):\n%s", rep1.Text())
	}
	if rep1.InterpreterErrors != 0 {
		t.Fatalf("campaign hit interpreter errors:\n%s", rep1.Text())
	}
}

func TestGenerateScheduleDeterministic(t *testing.T) {
	cfg := shortGen()
	a := GenerateSchedule(VariantHardened, 99, cfg)
	b := GenerateSchedule(VariantHardened, 99, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%+v\n%+v", a, b)
	}
	// Timer jitter may only target variants that use timers.
	for seed := int64(0); seed < 40; seed++ {
		for _, variant := range []Variant{VariantNaive, VariantFlawed} {
			s := GenerateSchedule(variant, seed, cfg)
			for _, op := range s.Ops {
				if op.Kind == OpJitterTimer {
					t.Fatalf("%s schedule (seed %d) got timer jitter: %+v", variant, seed, s)
				}
			}
		}
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := Schedule{
		Variant:   VariantHardened,
		Seed:      -3,
		HorizonUs: 5000,
		Ops: []Op{
			{Kind: OpJitterTimer, Node: "VMG", Nth: 2, DeltaMs: -15},
			{Kind: OpDelayFrame, Nth: 7, DelayUs: 1200},
		},
	}
	data, err := s.EncodeJSON()
	if err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	got, err := DecodeSchedule(data)
	if err != nil {
		t.Fatalf("DecodeSchedule: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, s)
	}
}

func TestDecodeScheduleValidation(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"malformed", `{"variant": `, "decode schedule"},
		{"unknown variant", `{"variant":"turbo","horizonUs":1000}`, "unknown variant"},
		{"zero horizon", `{"variant":"naive","horizonUs":0}`, "horizon"},
		{"bad op kind", `{"variant":"naive","horizonUs":1000,"ops":[{"kind":"explode"}]}`, "unknown kind"},
		{"negative nth", `{"variant":"naive","horizonUs":1000,"ops":[{"kind":"drop-frame","nth":-1}]}`, "negative index"},
	}
	for _, tc := range cases {
		_, err := DecodeSchedule([]byte(tc.data))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestRunScheduleUnknownVariantIsError(t *testing.T) {
	r := testRunner(t)
	v := r.RunSchedule(Schedule{Variant: Variant("bogus"), HorizonUs: 1000})
	if v.Kind != InterpreterError {
		t.Fatalf("verdict %s, want interpreter-error", v.Kind)
	}
}

func TestRunScheduleSimEventBudget(t *testing.T) {
	r, err := NewRunner()
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	r.MaxSimEvents = 1 // exhausted after the first chunk probe
	v := r.RunSchedule(Schedule{Variant: VariantNaive, HorizonUs: int64(20 * canbus.Second)})
	if v.Kind != BudgetExceeded || v.Detail != "sim-events" {
		t.Fatalf("verdict %s (detail %q), want budget-exceeded/sim-events", v.Kind, v.Detail)
	}
}

// TestRunScheduleWatchdog pins that an expired watchdog stops the
// simulation with the "sim-deadline" detail, not an interpreter error.
func TestRunScheduleWatchdog(t *testing.T) {
	r, err := NewRunner()
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	r.MaxDuration = time.Nanosecond
	v := r.RunSchedule(Schedule{Variant: VariantNaive, HorizonUs: int64(20 * canbus.Second)})
	if v.Kind != BudgetExceeded || v.Detail != "sim-deadline" {
		t.Fatalf("verdict %s (detail %q), want budget-exceeded/sim-deadline", v.Kind, v.Detail)
	}
}

func TestProjectorRejectsUnknownID(t *testing.T) {
	r, err := NewRunner()
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	_, err = r.project([]canoe.TimedFrame{{Frame: canbus.Frame{ID: 0x7FF}}})
	if err == nil || !strings.Contains(err.Error(), "identifier 0x7FF not in database") {
		t.Fatalf("unknown identifier: err = %v, want not in database", err)
	}
	if dir := r.direction(0x101); dir != "sendE" {
		t.Fatalf("direction(0x101) = %q, want sendE", dir)
	}
	if dir := r.direction(0x102); dir != "rec" {
		t.Fatalf("direction(0x102) = %q, want rec", dir)
	}
}
