package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRunEmitsWellFormedJSON runs a one-iteration smoke of the cheap
// benchmarks and validates the BENCH_refine.json shape.
func TestRunEmitsWellFormedJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_refine.json")
	var stdout bytes.Buffer
	if err := run(runConfig{outPath: out, pattern: "^Refines/", benchtime: "1x", gateFactor: 2}, &stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Output
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, data)
	}
	if doc.GoMaxProcs != runtime.GOMAXPROCS(0) {
		t.Errorf("goMaxProcs = %d, want %d", doc.GoMaxProcs, runtime.GOMAXPROCS(0))
	}
	if doc.GoVersion == "" {
		t.Error("goVersion missing")
	}
	if doc.Metrics != nil {
		t.Error("metrics present without -metrics")
	}
	want := map[string]bool{"Refines/cold": true, "Refines/cached": true}
	if len(doc.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks, want %d: %+v", len(doc.Benchmarks), len(want), doc.Benchmarks)
	}
	for _, m := range doc.Benchmarks {
		if !want[m.Name] {
			t.Errorf("unexpected benchmark %q", m.Name)
		}
		if m.Iterations < 1 || m.NsPerOp <= 0 || m.AllocsPerOp <= 0 {
			t.Errorf("%s: implausible measurement %+v", m.Name, m)
		}
	}
}

func TestRunRejectsUnmatchedPattern(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(runConfig{outPath: "-", pattern: "^NoSuchBenchmark$", benchtime: "1x", gateFactor: 2}, &stdout); err == nil {
		t.Fatal("pattern matching nothing should be an error")
	}
}

func TestRunRejectsBadPattern(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(runConfig{outPath: "-", pattern: "(", benchtime: "1x", gateFactor: 2}, &stdout); err == nil {
		t.Fatal("invalid regexp accepted")
	}
}

// TestRunWithMetricsFoldsSnapshot asserts that -metrics embeds the
// observer snapshot in the JSON artefact: the cached Refines benchmark
// must register cache hits, and the product search its steps, which
// -tracefile also carries on each refine.product span with the size of
// the search's index.
func TestRunWithMetricsFoldsSnapshot(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "BENCH_refine.json")
	traceFile := filepath.Join(dir, "trace.jsonl")
	var stdout bytes.Buffer
	cfg := runConfig{outPath: out, pattern: "^Refines/", benchtime: "1x", gateFactor: 2,
		obs: obs.Flags{Metrics: true, TraceFile: traceFile}}
	if err := run(cfg, &stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Output
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Metrics == nil {
		t.Fatal("metrics snapshot missing with -metrics")
	}
	if doc.Metrics.Counters["refine.checks"] == 0 {
		t.Errorf("refine.checks counter missing from snapshot: %+v", doc.Metrics.Counters)
	}
	if doc.Metrics.Counters["lts.cache.hits"] == 0 {
		t.Errorf("cached run recorded no cache hits: %+v", doc.Metrics.Counters)
	}
	if doc.Metrics.Counters["refine.product.steps"] == 0 {
		t.Errorf("refine.product.steps counter missing from snapshot: %+v", doc.Metrics.Counters)
	}
	trace, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	products := 0
	for _, line := range strings.Split(strings.TrimSpace(string(trace)), "\n") {
		var rec obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		if rec.Name != "refine.product" {
			continue
		}
		products++
		// JSON numbers decode as float64.
		if steps, _ := rec.Attrs["steps"].(float64); steps <= 0 {
			t.Errorf("refine.product span without steps: %v", rec.Attrs)
		}
		if slots, _ := rec.Attrs["slots"].(float64); slots < 16 {
			t.Errorf("refine.product span without its index size: %v", rec.Attrs)
		}
	}
	if products == 0 {
		t.Errorf("no refine.product span in the trace file:\n%s", trace)
	}
}

// freshDoc wraps measurements as a run on this host.
func freshDoc(ms ...Measurement) Output {
	return Output{GoMaxProcs: runtime.GOMAXPROCS(0), Benchmarks: ms}
}

// gateConfig gates against ref at an ns/op factor of 2.
func gateConfig(ref, onMismatch string) runConfig {
	return runConfig{gatePath: ref, gateFactor: 2, procsMismatch: onMismatch}
}

// TestGate covers the CI regression gate: a reference document with an
// absurdly fast entry must fail the run, a slow one must pass, and
// benchmarks missing from the reference are skipped.
func TestGate(t *testing.T) {
	fresh := freshDoc(Measurement{Name: "Refines/cold", NsPerOp: 1000}, Measurement{Name: "New/bench", NsPerOp: 5})
	write := func(ns int64) string {
		ref := Output{GoMaxProcs: runtime.GOMAXPROCS(0),
			Benchmarks: []Measurement{{Name: "Refines/cold", NsPerOp: ns}}}
		data, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "ref.json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	var stdout bytes.Buffer
	if err := checkGate(fresh, gateConfig(write(400), "fail"), &stdout); err == nil {
		t.Error("2.5x slowdown passed a 2x gate")
	} else if !strings.Contains(err.Error(), "Refines/cold") {
		t.Errorf("gate error does not name the regression: %v", err)
	}

	stdout.Reset()
	if err := checkGate(fresh, gateConfig(write(600), "fail"), &stdout); err != nil {
		t.Errorf("1.67x slowdown failed a 2x gate: %v", err)
	}
	if !strings.Contains(stdout.String(), "no reference entry") {
		t.Errorf("unreferenced benchmark not reported as skipped:\n%s", stdout.String())
	}

	if err := checkGate(fresh, gateConfig(filepath.Join(t.TempDir(), "missing.json"), "fail"), &stdout); err == nil {
		t.Error("missing reference file accepted")
	}
}

// TestGateProcsMismatch pins the cross-environment guard: a reference
// captured at a different GOMAXPROCS must never be compared silently —
// the run fails by default, or logs an explicit skip when configured
// to.
func TestGateProcsMismatch(t *testing.T) {
	fresh := freshDoc(Measurement{Name: "Refines/cold", NsPerOp: 1000})
	ref := Output{GoMaxProcs: runtime.GOMAXPROCS(0) + 1,
		// An absurdly fast reference entry: under "skip" the mismatch
		// must short-circuit before any ratio is computed.
		Benchmarks: []Measurement{{Name: "Refines/cold", NsPerOp: 1}}}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "ref.json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout bytes.Buffer
	if err := checkGate(fresh, gateConfig(p, "fail"), &stdout); err == nil {
		t.Error("GOMAXPROCS mismatch passed under \"fail\"")
	} else if !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("mismatch error does not explain itself: %v", err)
	}

	stdout.Reset()
	if err := checkGate(fresh, gateConfig(p, "skip"), &stdout); err != nil {
		t.Errorf("GOMAXPROCS mismatch failed under \"skip\": %v", err)
	}
	if !strings.Contains(stdout.String(), "skipped") || !strings.Contains(stdout.String(), "GOMAXPROCS") {
		t.Errorf("skip not logged with a reason:\n%s", stdout.String())
	}
}

// TestGateAllocs pins the allocs/op gate: allocs/op beyond
// allocsGateFactor (tighter than the ns/op factor of 2) fail the run
// even when a GOMAXPROCS mismatch skips the ns/op comparison, since
// allocs/op do not depend on machine shape. A reference row without
// allocs/op is not allocs-gated.
func TestGateAllocs(t *testing.T) {
	write := func(procs int, allocs int64) string {
		ref := Output{GoMaxProcs: procs,
			Benchmarks: []Measurement{{Name: "Explore/seq", NsPerOp: 1, AllocsPerOp: allocs}}}
		data, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "ref.json")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	fresh := freshDoc(Measurement{Name: "Explore/seq", NsPerOp: 1000, AllocsPerOp: 2500})
	other := runtime.GOMAXPROCS(0) + 1

	var stdout bytes.Buffer
	if err := checkGate(fresh, gateConfig(write(other, 1250), "skip"), &stdout); err == nil {
		t.Error("2x allocs/op passed the 1.5x allocs/op gate under a skipped ns/op comparison")
	} else if !strings.Contains(err.Error(), "allocs/op") || !strings.Contains(err.Error(), "Explore/seq") {
		t.Errorf("gate error does not name the allocs/op regression: %v", err)
	}
	if !strings.Contains(stdout.String(), "ns/op skipped") {
		t.Errorf("ns/op skip not logged:\n%s", stdout.String())
	}

	stdout.Reset()
	if err := checkGate(fresh, gateConfig(write(other, 1800), "skip"), &stdout); err != nil {
		t.Errorf("1.39x allocs/op failed the 1.5x allocs/op gate: %v", err)
	}
	if !strings.Contains(stdout.String(), "allocs/op") {
		t.Errorf("allocs/op comparison not logged:\n%s", stdout.String())
	}

	stdout.Reset()
	if err := checkGate(fresh, gateConfig(write(other, 0), "skip"), &stdout); err != nil {
		t.Errorf("reference row without allocs/op failed the gate: %v", err)
	}
}

// TestGateBenchTimeMismatch pins the capture-length guard: a reference
// captured at another -benchtime is never compared.
func TestGateBenchTimeMismatch(t *testing.T) {
	ref := Output{GoMaxProcs: runtime.GOMAXPROCS(0), BenchTime: "0.5s",
		Benchmarks: []Measurement{{Name: "CAPLParse", NsPerOp: 1000}}}
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "ref.json")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := freshDoc(Measurement{Name: "CAPLParse", NsPerOp: 1000})
	fresh.BenchTime = "10x"
	var stdout bytes.Buffer
	if err := checkGate(fresh, gateConfig(p, "skip"), &stdout); err == nil || !strings.Contains(err.Error(), "benchtime") {
		t.Errorf("benchtime mismatch not refused: %v", err)
	}
	fresh.BenchTime = "0.5s"
	if err := checkGate(fresh, gateConfig(p, "fail"), &stdout); err != nil {
		t.Errorf("same benchtime refused: %v", err)
	}
}

// TestMedianCapture pins the row a benchmark records: of its captures,
// the one with the median ns/op, whole (its allocs/op and states/s
// travel with it), whatever order the captures arrived in.
func TestMedianCapture(t *testing.T) {
	runs := []Measurement{
		{Name: "Explore/seq", NsPerOp: 900, AllocsPerOp: 9},
		{Name: "Explore/seq", NsPerOp: 100, AllocsPerOp: 1},
		{Name: "Explore/seq", NsPerOp: 500, AllocsPerOp: 5, StatesPerSec: 42},
	}
	want := runs[2]
	if got := median(runs); got != want {
		t.Errorf("median = %+v, want %+v", got, want)
	}
	if runs[0].NsPerOp != 900 || runs[1].NsPerOp != 100 {
		t.Errorf("median reordered its input: %+v", runs)
	}
	if got := median(runs[1:2]); got != runs[1] {
		t.Errorf("median of one capture = %+v, want %+v", got, runs[1])
	}
}
