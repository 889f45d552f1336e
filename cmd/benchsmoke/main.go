// Command benchsmoke runs the refinement-centric benchmark suite — the
// ledger rows of internal/ledger — via
// testing.Benchmark, three captures per benchmark of at least -benchtime
// (0.5 s) each, and writes each benchmark's median capture as
// machine-readable JSON
// (BENCH_refine.json) — the artefact CI publishes so performance
// regressions in exploration, refinement checking and campaign
// throughput are visible per commit. Every row records ns/op and
// allocs/op, and exploration and trace rows add states/s. The paired entries
// measure the same work cold versus cached (Refines) or sequentially
// and in parallel (FaultCampaign); on a single-core host the parallel
// campaign measures synchronization overhead, not speedup, so readers
// must interpret the table together with goMaxProcs.
//
// With -gate, a previously committed BENCH_refine.json acts as the
// reference: any benchmark whose fresh ns/op exceeds the reference by
// more than -gate-factor, or whose allocs/op exceed it by more than
// allocsGateFactor, fails the run, which is how CI turns the
// artefact into a regression gate. Each row is gated on its own, so a
// regression names its layer. ns/op ratios are only meaningful between
// runs on comparable hosts, so a reference captured at a different
// GOMAXPROCS fails the run (-gate-procs-mismatch fail, the default) or
// skips the ns/op comparison with a logged reason (-gate-procs-mismatch
// skip) — it is never compared silently. allocs/op do not depend on the
// host, so they are gated in both cases, and tighter. A reference
// captured at another -benchtime fails the run: short captures amortise
// warm-up differently and spread too widely to gate.
//
// Usage:
//
//	benchsmoke [-o BENCH_refine.json] [-bench regexp] [-benchtime 0.5s|10x]
//	           [-gate BENCH_refine.json] [-gate-factor 2]
//	           [-gate-procs-mismatch fail|skip]
//	           [-metrics] [-tracefile trace.jsonl] [-progress]
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/ledger"
	"repro/internal/obs"
)

// Measurement is one benchmark result.
type Measurement struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	NsPerOp    int64  `json:"nsPerOp"`
	// AllocsPerOp is the mean number of heap allocations per iteration.
	AllocsPerOp int64 `json:"allocsPerOp"`
	// StatesPerSec reports exploration throughput where it applies.
	StatesPerSec float64 `json:"statesPerSec,omitempty"`
}

// Output is the BENCH_refine.json document. Metrics carries the
// observer snapshot of the whole suite when -metrics is on, so the
// published artefact records cache hit rates and explored-state counts
// alongside the timings they explain.
type Output struct {
	GoVersion  string `json:"goVersion"`
	GoMaxProcs int    `json:"goMaxProcs"`
	// BenchTime is the -benchtime of every capture.
	BenchTime  string        `json:"benchTime,omitempty"`
	Benchmarks []Measurement `json:"benchmarks"`
	Metrics    *obs.Snapshot `json:"metrics,omitempty"`
}

// runConfig bundles the command's flags.
type runConfig struct {
	outPath       string
	pattern       string
	benchtime     string
	gatePath      string    // reference BENCH_refine.json; empty disables the gate
	gateFactor    float64   // max allowed fresh/reference ns/op ratio
	procsMismatch string    // "fail" or "skip" when reference goMaxProcs differs
	obs           obs.Flags // -metrics / -tracefile / -progress
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.outPath, "o", "BENCH_refine.json", "output path (- for stdout)")
	flag.StringVar(&cfg.pattern, "bench", ".", "regexp selecting benchmarks by name")
	flag.StringVar(&cfg.benchtime, "benchtime", "0.5s", `per-capture budget, a minimum duration ("0.5s") or a count ("10x")`)
	flag.StringVar(&cfg.gatePath, "gate", "", "reference BENCH_refine.json to gate against (empty: no gate)")
	flag.Float64Var(&cfg.gateFactor, "gate-factor", 2, "fail when fresh ns/op exceeds the reference by more than this factor")
	flag.StringVar(&cfg.procsMismatch, "gate-procs-mismatch", "fail", `"fail" the -gate run, or "skip" its ns/op comparison, when the reference was captured at a different GOMAXPROCS`)
	cfg.obs.AddFlags(flag.CommandLine)
	flag.Parse()
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchsmoke:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, stdout io.Writer) error {
	re, err := regexp.Compile(cfg.pattern)
	if err != nil {
		return fmt.Errorf("bad -bench pattern: %w", err)
	}
	if cfg.gateFactor <= 0 {
		return fmt.Errorf("gate factor must be positive, got %v", cfg.gateFactor)
	}
	if cfg.procsMismatch == "" {
		cfg.procsMismatch = "fail"
	}
	if cfg.procsMismatch != "fail" && cfg.procsMismatch != "skip" {
		return fmt.Errorf(`-gate-procs-mismatch must be "fail" or "skip", got %q`, cfg.procsMismatch)
	}
	if cfg.benchtime != "" {
		// testing.Init is idempotent, so this also works from tests.
		testing.Init()
		if err := flag.Set("test.benchtime", cfg.benchtime); err != nil {
			return fmt.Errorf("bad -benchtime: %w", err)
		}
	}
	observer, finishObs, err := cfg.obs.Build(os.Stderr)
	if err != nil {
		return err
	}
	benches, err := ledger.Rows(observer)
	if err != nil {
		return err
	}
	var ms []Measurement
	for _, bm := range benches {
		if !re.MatchString(bm.Name) {
			continue
		}
		runs := make([]Measurement, captures)
		for i := range runs {
			res := testing.Benchmark(bm.Fn)
			if res.N == 0 {
				return fmt.Errorf("benchmark %s failed", bm.Name)
			}
			runs[i] = Measurement{Name: bm.Name, Iterations: res.N, NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
			if v, ok := res.Extra["states/s"]; ok {
				runs[i].StatesPerSec = v
			}
		}
		m := median(runs)
		fmt.Fprintf(stdout, "%-24s %6d iterations  %12d ns/op  %10d allocs/op\n", m.Name, m.Iterations, m.NsPerOp, m.AllocsPerOp)
		ms = append(ms, m)
	}
	if len(ms) == 0 {
		return fmt.Errorf("no benchmarks match %q", cfg.pattern)
	}
	doc := Output{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		BenchTime:  cfg.benchtime,
		Benchmarks: ms,
	}
	if cfg.obs.Metrics && observer != nil {
		snap := observer.Snapshot()
		doc.Metrics = &snap
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if cfg.outPath == "-" {
		if _, err := stdout.Write(data); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(cfg.outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", cfg.outPath)
	}
	if err := finishObs(); err != nil {
		return err
	}
	if cfg.gatePath != "" {
		if err := checkGate(doc, cfg, stdout); err != nil {
			return err
		}
	}
	return nil
}

// captures is how many times each row is measured. A row records the
// capture with the median ns/op, as each committed reference row does,
// so the gate compares like with like and one noisy capture moves
// neither the written row nor the gate.
const captures = 3

// allocsGateFactor bounds the fresh/reference allocs/op ratio. allocs/op
// barely move between runs, so the bound is tighter than -gate-factor:
// a row that does its work twice fails on allocs/op even when noise
// keeps its ns/op ratio under 2.
const allocsGateFactor = 1.5

// median returns the capture with the median ns/op.
func median(runs []Measurement) Measurement {
	sorted := slices.Clone(runs)
	slices.SortStableFunc(sorted, func(a, b Measurement) int { return cmp.Compare(a.NsPerOp, b.NsPerOp) })
	return sorted[len(sorted)/2]
}

// checkGate compares fresh measurements against the committed reference
// document cfg.gatePath and fails when any shared benchmark slowed down
// by more than cfg.gateFactor, or allocates more by more than
// allocsGateFactor. Benchmarks present on only one side
// are reported but never fail the gate, so adding or renaming a
// benchmark does not require a lockstep reference update; nor does a
// reference row without allocs/op fail the allocs/op gate.
// A reference captured at a different GOMAXPROCS is a different
// machine shape: its ns/op carry a different parallelism, so comparing
// against it yields false regressions (or worse, false passes). Such a
// reference fails the gate under cfg.procsMismatch "fail" (the default for CI,
// where runner shape is pinned) and skips the ns/op comparison with a
// logged reason under "skip" (for local runs on arbitrary hardware).
// allocs/op do not depend on machine shape, so they are compared either
// way. A reference captured at another benchtime always fails the gate.
func checkGate(fresh Output, cfg runConfig, stdout io.Writer) error {
	refPath := cfg.gatePath
	data, err := os.ReadFile(refPath)
	if err != nil {
		return fmt.Errorf("gate reference: %w", err)
	}
	var ref Output
	if err := json.Unmarshal(data, &ref); err != nil {
		return fmt.Errorf("gate reference %s: %w", refPath, err)
	}
	if ref.BenchTime != fresh.BenchTime {
		return fmt.Errorf("gate reference %s was captured at -benchtime %q but this run used %q; re-run at the reference's capture length",
			refPath, ref.BenchTime, fresh.BenchTime)
	}
	compareNs := true
	if procs := fresh.GoMaxProcs; ref.GoMaxProcs != procs {
		if cfg.procsMismatch != "skip" {
			return fmt.Errorf("gate reference %s was captured at GOMAXPROCS=%d but this host runs %d; ns/op ratios across machine shapes are not comparable (re-capture the reference or pass -gate-procs-mismatch skip)",
				refPath, ref.GoMaxProcs, procs)
		}
		fmt.Fprintf(stdout, "gate: ns/op skipped: reference %s was captured at GOMAXPROCS=%d, this host runs %d — ns/op ratios across machine shapes are not comparable; allocs/op are still gated\n",
			refPath, ref.GoMaxProcs, procs)
		compareNs = false
	}
	refs := make(map[string]Measurement, len(ref.Benchmarks))
	for _, m := range ref.Benchmarks {
		refs[m.Name] = m
	}
	var regressions []string
	check := func(name, unit string, got, base int64, factor float64) {
		ratio := float64(got) / float64(base)
		fmt.Fprintf(stdout, "gate: %-24s %12d %s vs %12d reference (%.2fx)\n", name, got, unit, base, ratio)
		if ratio > factor {
			regressions = append(regressions,
				fmt.Sprintf("%s: %d %s vs %d reference (%.2fx > %.2fx)", name, got, unit, base, ratio, factor))
		}
	}
	for _, m := range fresh.Benchmarks {
		base, ok := refs[m.Name]
		if !ok {
			fmt.Fprintf(stdout, "gate: %-24s no reference entry, skipped\n", m.Name)
			continue
		}
		if compareNs {
			check(m.Name, "ns/op", m.NsPerOp, base.NsPerOp, cfg.gateFactor)
		}
		if base.AllocsPerOp > 0 {
			check(m.Name, "allocs/op", m.AllocsPerOp, base.AllocsPerOp, allocsGateFactor)
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("performance gate failed:\n  %s", strings.Join(regressions, "\n  "))
	}
	return nil
}
