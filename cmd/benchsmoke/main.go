// Command benchsmoke runs the refinement-centric benchmark suite via
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
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/canbus"
	"repro/internal/canoe"
	"repro/internal/capl"
	"repro/internal/conformance"
	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/experiments"
	"repro/internal/faultcampaign"
	"repro/internal/learn"
	"repro/internal/lts"
	"repro/internal/obs"
	"repro/internal/ota"
	"repro/internal/refine"
	"repro/internal/serve"
	"repro/internal/translate"
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
	benches, err := suite(observer)
	if err != nil {
		return err
	}
	var ms []Measurement
	for _, bm := range benches {
		if !re.MatchString(bm.name) {
			continue
		}
		runs := make([]Measurement, captures)
		for i := range runs {
			res := testing.Benchmark(bm.fn)
			if res.N == 0 {
				return fmt.Errorf("benchmark %s failed", bm.name)
			}
			runs[i] = Measurement{Name: bm.name, Iterations: res.N, NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
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

// namedBench pairs a stable measurement name with its benchmark body.
// Names are fixed across host configurations (seq/par, cold/cached) so
// committed BENCH_refine.json files stay diffable; goMaxProcs carries
// the host parallelism instead.
type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// suite builds the benchmark list: exploration of the largest
// case-study state space (plain and checkpointing every level), a full
// refinement check (cold vs cached), the soak's trace-membership check,
// the fault-injection campaign (sequential vs parallel scenarios), one
// fdrserve request (a POST /v1/check of testdata/ota.csp, read relative
// to the working directory: run from the repository root), the CAPL
// runtime on the simulated bus, L* learning the simulated ECU, CAPL
// source to verdict at 64 pairs, loading the case study's CSPm,
// normalising its SYSTEM, the Figure 1 pipeline (CAPL source to verdicts
// and the simulation cross-check), parsing the ECU's CAPL, translating it
// to CSPm, and the bus delivering one frame. The observer (nil when disabled) is threaded
// through every layer so -metrics aggregates the whole suite.
func suite(o *obs.Observer) ([]namedBench, error) {
	lossy, err := ota.BuildLossy(ota.HardenedGateway, ota.DefaultLossBudget)
	if err != nil {
		return nil, fmt.Errorf("build lossy system: %w", err)
	}
	sem := csp.NewSemantics(lossy.Model.Env, lossy.Model.Ctx)
	system := csp.Call("SYSTEML")

	plain, err := ota.Build()
	if err != nil {
		return nil, fmt.Errorf("build system: %w", err)
	}
	spec := plain.Model.Asserts[ota.AssertR02].Spec
	impl := plain.Model.Asserts[ota.AssertR02].Impl

	explore := func(b *testing.B) {
		states := 0
		for i := 0; i < b.N; i++ {
			l, err := lts.Explore(sem, system, lts.Options{Obs: o})
			if err != nil {
				b.Fatal(err)
			}
			states = l.NumStates()
		}
		b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	}
	refines := func(cache *lts.Cache) func(b *testing.B) {
		return func(b *testing.B) {
			c := refine.NewChecker(plain.Model.Env, plain.Model.Ctx)
			c.Cache = cache
			c.Obs = o
			if cache != nil {
				// Prime outside the timed loop: "cached" measures the
				// steady state of a campaign, not the first assertion.
				if _, err := c.RefinesTraces(spec, impl); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
			}
			for i := 0; i < b.N; i++ {
				res, err := c.RefinesTraces(spec, impl)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Holds {
					b.Fatal("R02 check failed")
				}
			}
		}
	}
	exploreCheckpoint := func(b *testing.B) {
		// Crash-safe mode: an atomic snapshot after every BFS level, each
		// iteration into a fresh directory so none resumes.
		dir, err := os.MkdirTemp("", "benchsmoke-checkpoint-*")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		states := 0
		for i := 0; i < b.N; i++ {
			l, err := lts.Explore(sem, system, lts.Options{
				Checkpoint: &lts.CheckpointOptions{Dir: filepath.Join(dir, strconv.Itoa(i))},
				Obs:        o,
			})
			if err != nil {
				b.Fatal(err)
			}
			states = l.NumStates()
		}
		b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	}
	campaign := func(workers int) func(b *testing.B) {
		return func(b *testing.B) {
			cfg := faultcampaign.Config{
				Seed:         42,
				SeedsPerCase: 1,
				Horizon:      200 * canbus.Millisecond,
				Workers:      workers,
				Obs:          o,
			}
			for i := 0; i < b.N; i++ {
				rep := faultcampaign.Run(cfg)
				if rep.Errored != 0 {
					b.Fatalf("%d scenarios errored", rep.Errored)
				}
			}
		}
	}

	// The soak's trace check: the projected trace of a hardened schedule
	// duplicating a VMG frame, a fresh checker per iteration.
	runner, err := conformance.NewRunner()
	if err != nil {
		return nil, err
	}
	trace, observed, err := runner.Observe(conformance.Schedule{
		Variant:   conformance.VariantHardened,
		HorizonUs: int64(12 * canbus.Millisecond),
		Ops:       []conformance.Op{{Kind: conformance.OpDupFrame, Nth: 4, DelayUs: 350}},
	})
	if err != nil {
		return nil, fmt.Errorf("observe soak schedule: %w", err)
	}
	acceptsTrace := func(b *testing.B) {
		states := 0
		for i := 0; i < b.N; i++ {
			c := refine.NewChecker(observed.Model.Env, observed.Model.Ctx)
			c.Obs = o
			res, err := c.AcceptsTrace(csp.Call(ota.ObservedProcess), trace)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Accepted {
				b.Fatalf("soak trace rejected at event %d", res.FailedAt)
			}
			states = res.States
		}
		b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	}

	serveCheck := func(b *testing.B) {
		src, err := os.ReadFile(filepath.Join("testdata", "ota.csp"))
		if err != nil {
			b.Fatal(err)
		}
		body, err := json.Marshal(serve.CheckRequest{CSPM: string(src)})
		if err != nil {
			b.Fatal(err)
		}
		srv := serve.New(serve.Config{Obs: o})
		defer srv.Kill()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := ts.Client().Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			var out serve.CheckResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || len(out.Results) != 4 {
				b.Fatalf("status %d, %d verdicts, err %v", resp.StatusCode, len(out.Results), err)
			}
			for _, v := range out.Results {
				if !v.Holds {
					b.Fatalf("%s: %+v", v.Assert, v)
				}
			}
		}
	}

	// The CAPL runtime: the case-study measurement for 1 simulated ms.
	canoeSimulation := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim := canoe.NewSimulation(canbus.Config{})
			if _, err := sim.AddNode("ECU", ota.ECUSource); err != nil {
				b.Fatal(err)
			}
			if _, err := sim.AddNode("VMG", ota.VMGSource); err != nil {
				b.Fatal(err)
			}
			if err := sim.Start(); err != nil {
				b.Fatal(err)
			}
			if err := sim.Run(canbus.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
	}
	// L* over the simulated hardened ECU, a fresh teacher (and so an
	// empty simulation memo) per iteration.
	learnSim := func(b *testing.B) {
		cfg := learn.CampaignConfig{Seed: 1, Obs: o}
		for i := 0; i < b.N; i++ {
			teacher, err := learn.NewVariantTeacher(cfg, learn.VariantHardened)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := learn.Learn(learn.Config{Teacher: teacher, Seed: 1, Workers: 1, Obs: o}); err != nil {
				b.Fatal(err)
			}
		}
	}

	// Section VII's largest point, end to end: CAPL source of a 64-pair
	// ECU to the verdict of its refinement check.
	scalability := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pt, err := experiments.ScalabilityRun(64)
			if err != nil {
				b.Fatal(err)
			}
			if !pt.Holds {
				b.Fatal("property failed")
			}
		}
	}

	// The front end's last stage and the normaliser: CSPm text to an
	// evaluated model, and the subset construction of SYSTEM's LTS.
	cspmLoad := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cspm.Load(plain.Source); err != nil {
				b.Fatal(err)
			}
		}
	}
	plainSystem, err := lts.Explore(csp.NewSemantics(plain.Model.Env, plain.Model.Ctx), csp.Call("SYSTEM"), lts.Options{})
	if err != nil {
		return nil, fmt.Errorf("explore SYSTEM: %w", err)
	}
	normalize := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if n := lts.Normalize(plainSystem); n.NumNodes() == 0 {
				b.Fatal("empty normalisation")
			}
		}
	}

	// The paper's Figure 1 end to end, and the front end's first stage.
	figure1 := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := experiments.Figure1()
			if err != nil {
				b.Fatal(err)
			}
			if !res.CrossValidated {
				b.Fatal("cross-validation failed")
			}
		}
	}
	caplParse := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := capl.Parse(ota.ECUSource); err != nil {
				b.Fatal(err)
			}
		}
	}
	// The front end's middle stage: the parsed ECU to its CSPm model.
	ecuProg, err := capl.Parse(ota.ECUSource)
	if err != nil {
		return nil, fmt.Errorf("parse ECU: %w", err)
	}
	translateECU := func(b *testing.B) {
		opts := translate.DefaultOptions("ECU")
		opts.MessageRename = ota.MessageRename
		for i := 0; i < b.N; i++ {
			if _, err := translate.Translate(ecuProg, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	// The simulated bus alone: one frame transmitted and delivered.
	canBusThroughput := func(b *testing.B) {
		bus := canbus.New(canbus.Config{})
		tap := bus.Attach("tx", canbus.ReceiverFunc(func(canbus.Time, canbus.Frame) {}))
		bus.Attach("rx", canbus.ReceiverFunc(func(canbus.Time, canbus.Frame) {}))
		frame := canbus.Frame{ID: 0x123, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bus.Transmit(tap, frame); err != nil {
				b.Fatal(err)
			}
			bus.RunAll(4)
		}
	}

	primed := lts.NewCache()
	primed.Obs = o
	return []namedBench{
		{"Explore/seq", explore},
		{"Explore/checkpoint", exploreCheckpoint},
		{"Refines/cold", refines(nil)},
		{"Refines/cached", refines(primed)},
		{"AcceptsTrace/soak", acceptsTrace},
		{"FaultCampaign/seq", campaign(1)},
		{"FaultCampaign/par", campaign(0)},
		{"Serve/check", serveCheck},
		{"CanoeSimulation", canoeSimulation},
		{"Learn/sim", learnSim},
		{"Scalability/pairs=64", scalability},
		{"CSPMLoad", cspmLoad},
		{"Normalize", normalize},
		{"Figure1_Pipeline", figure1},
		{"CAPLParse", caplParse},
		{"TranslateECU", translateECU},
		{"CANBusThroughput", canBusThroughput},
	}, nil
}
