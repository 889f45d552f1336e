package caplgen

import (
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/canbus"
	"repro/internal/candb"
	"repro/internal/canoe"
)

// simFrame builds a one-frame monitor trace with the given identifier.
func simFrame(id uint32) []canoe.TimedFrame {
	return []canoe.TimedFrame{{At: 0, Frame: canbus.Frame{ID: id}}}
}

var update = flag.Bool("update", false, "rewrite testdata/caplgen_baseline.json")

// TestGenerateDeterministic pins the generator's core contract: the
// same seed renders byte-identical sources, and different seeds
// actually vary the program shape.
func TestGenerateDeterministic(t *testing.T) {
	a := generate(rand.New(rand.NewSource(42)), 0, 42)
	b := generate(rand.New(rand.NewSource(42)), 0, 42)
	if a.NodeSource() != b.NodeSource() || a.DriverSource() != b.DriverSource() || a.DBC() != b.DBC() {
		t.Fatal("same seed produced different programs")
	}
	seen := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		seen[generate(rand.New(rand.NewSource(seed)), 0, seed).NodeSource()] = true
	}
	if len(seen) < 15 {
		t.Errorf("only %d distinct programs from 20 seeds", len(seen))
	}
}

// TestGeneratedProgramsAreClean asserts well-typedness by
// construction: across many seeds, node and driver lint with zero
// warnings and errors. A failure here is a generator bug or a
// typechecker false positive — both worth knowing.
func TestGeneratedProgramsAreClean(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		spec := generate(rand.New(rand.NewSource(seed)), int(seed), seed)
		db, err := candb.Parse(spec.DBC())
		if err != nil {
			t.Fatalf("seed %d: generated dbc does not parse: %v", seed, err)
		}
		if bad, _ := lintGate("gen.can", spec.NodeSource(), db); bad != "" {
			t.Errorf("seed %d: node not clean: %s\n%s", seed, bad, spec.NodeSource())
		}
		if bad, _ := lintGate("drv.can", spec.DriverSource(), db); bad != "" {
			t.Errorf("seed %d: driver not clean: %s\n%s", seed, bad, spec.DriverSource())
		}
	}
}

// TestRunSmallSoak runs a small fixed-seed soak end to end: every
// program must complete the full differential pipeline with verdict
// ok, and the run must be deterministic.
func TestRunSmallSoak(t *testing.T) {
	cfg := Config{Seed: 7, Programs: 25, MaxStates: 50_000, MaxSimEvents: 100_000, Shrink: true}
	rep := Run(cfg)
	for _, r := range rep.Results {
		if r.Verdict != VerdictOK {
			t.Errorf("program %d (seed %d): %s: %s", r.Index, r.Seed, r.Verdict, r.Detail)
		}
		if r.Verdict == VerdictOK && r.Frames == 0 {
			t.Errorf("program %d: ok with zero delivered frames (vacuous run)", r.Index)
		}
	}
	a, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg).JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("same config produced different reports")
	}
}

// divergingSpec builds a program whose driver sends a stimulus the
// node has no handler for: the bus delivers it, the model has no
// matching branch, so the conformance check must reject the trace.
func divergingSpec() *Spec {
	return &Spec{
		Index: 0, ProgSeed: 1, NStim: 2, NResp: 1,
		Globals: []Global{{Name: "g0", Type: TLong}},
		Handlers: []Handler{
			{Kind: "message", Target: "stim0", Body: []Stmt{
				{Line: "g0 = g0 + 1;"},
				{Line: "output(resp0);"},
			}},
		},
		Driver: []DriverStep{{Stim: 0}, {Stim: 1}, {Stim: 0}},
	}
}

// TestDivergenceIsDetected proves the oracle is not vacuous: a
// mismatching program must yield a diverges verdict with a diagnosis.
func TestDivergenceIsDetected(t *testing.T) {
	res := RunOne(divergingSpec(), DefaultConfig())
	if res.Verdict != VerdictDiverges {
		t.Fatalf("verdict = %s (%s), want %s", res.Verdict, res.Detail, VerdictDiverges)
	}
	if !strings.Contains(res.Detail, "stim.stim1") {
		t.Errorf("divergence detail %q does not name the unhandled stimulus", res.Detail)
	}
}

// TestShrinkMinimises checks the structural shrinker: the minimised
// diverging program must still diverge and must be no larger than the
// original (fewer driver steps, no surviving extra statements).
func TestShrinkMinimises(t *testing.T) {
	spec := divergingSpec()
	cfg := DefaultConfig()
	min := Shrink(spec, cfg, VerdictDiverges)
	if min == nil {
		t.Fatal("Shrink lost the failure")
	}
	if got := RunOne(min, cfg).Verdict; got != VerdictDiverges {
		t.Fatalf("shrunk program verdict = %s, want %s", got, VerdictDiverges)
	}
	if len(min.Driver) > 1 {
		t.Errorf("shrunk driver schedule has %d steps, want 1", len(min.Driver))
	}
	for _, h := range min.Handlers {
		if len(h.Body) > 0 && h.Kind == "message" && len(h.Body) > 1 {
			t.Errorf("shrunk handler %s still has %d statements", h.Target, len(h.Body))
		}
	}
}

// TestProjectTraceRejectsUnknownID pins the projection's totality
// error path.
func TestProjectTraceRejectsUnknownID(t *testing.T) {
	spec := &Spec{NStim: 1, NResp: 1}
	db, err := candb.Parse(spec.DBC())
	if err != nil {
		t.Fatal(err)
	}
	table, err := frameTable(db)
	if err != nil {
		t.Fatal(err)
	}
	sim := simFrame(0x7FF)
	if _, err := projectTrace(table, sim); err == nil {
		t.Error("unknown identifier projected without error")
	}
	if _, err := projectTrace(table, simFrame(stimBaseID)); err != nil {
		t.Errorf("known identifier rejected: %v", err)
	}
}

// TestBaseline compares a full default-config soak against the
// committed regression baseline byte for byte. Any behaviour change
// anywhere in the pipeline — generator, linter, typechecker,
// translator, CSPm evaluator, LTS exploration, bus timing, trace
// membership — shows up here. Run with -update to accept a change.
func TestBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full 200-program soak skipped in -short mode")
	}
	rep := Run(DefaultConfig())
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "testdata", "caplgen_baseline.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/caplgen -update` to create)", err)
	}
	if string(got) != string(want) {
		t.Errorf("soak report drifted from baseline (run with -update after verifying the change is intended)")
	}
	if rep.Failures != 0 {
		t.Errorf("baseline soak has %d failure(s)", rep.Failures)
	}
	var decoded Report
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatalf("committed baseline is not valid JSON: %v", err)
	}
	if decoded.Programs < 200 {
		t.Errorf("baseline covers %d programs, want >= 200", decoded.Programs)
	}
}
