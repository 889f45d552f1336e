// Package ledger defines the rows of the benchmark ledger,
// BENCH_refine.json: the one body of each row, which cmd/benchsmoke
// captures and gates and the repository's go test -bench harness
// (bench_test.go) runs under the same names, so a profile taken with
// go test -bench measures the work the gate compares.
package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/canbus"
	"repro/internal/canoe"
	"repro/internal/capl"
	"repro/internal/conformance"
	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/experiments"
	"repro/internal/faultcampaign"
	"repro/internal/fdr"
	"repro/internal/learn"
	"repro/internal/lts"
	"repro/internal/obs"
	"repro/internal/ota"
	"repro/internal/refine"
	"repro/internal/serve"
	"repro/internal/translate"
)

// Row pairs a stable measurement name with its benchmark body. Names
// are fixed across host configurations (seq/par, cold/cached) so
// committed BENCH_refine.json files stay diffable; goMaxProcs carries
// the host parallelism instead.
type Row struct {
	Name string
	Fn   func(b *testing.B)
}

// Rows builds the ledger: exploration of the largest case-study state
// space (plain and checkpointing every level) and of the five small
// assertion subjects, a full refinement check (cold vs cached), every
// assertion of the lossy system (its views derived from one
// exploration), the soak's trace-membership check, the fault-injection
// campaign (sequential vs parallel scenarios), one fdrserve request (a
// POST /v1/check of testdata/ota.csp, read relative to the working
// directory: run from the repository root), the CAPL runtime on the
// simulated bus, L* learning the simulated ECU, CAPL source to verdict
// at 64 pairs, loading the case study's CSPm, normalising its SYSTEM,
// the Figure 1 pipeline (CAPL source to verdicts and the simulation
// cross-check), parsing the ECU's CAPL, translating it to CSPm, and the
// bus delivering one frame. The observer (nil when disabled) is
// threaded through every layer so -metrics aggregates the whole suite.
func Rows(o *obs.Observer) ([]Row, error) {
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

	// Views: every assertion of the lossy system, whose DIAGL and UPDL
	// hide parts of DELIVL, itself a view of SYSTEML, checked with the
	// run's one cache.
	runAllLossy := func(b *testing.B) {
		states := 0
		for i := 0; i < b.N; i++ {
			results, err := fdr.RunAllBudget(lossy.Model, fdr.Budget{Obs: o})
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range results {
				if !r.Result.Holds {
					b.Fatalf("%s failed", r.Assert.Text)
				}
				states += r.Result.ImplStates
			}
		}
		b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
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
	plainSem := csp.NewSemantics(plain.Model.Env, plain.Model.Ctx)
	plainSystem, err := lts.Explore(plainSem, csp.Call("SYSTEM"), lts.Options{})
	if err != nil {
		return nil, fmt.Errorf("explore SYSTEM: %w", err)
	}
	// Tiny explorations, where per-exploration set-up dominates: the
	// subjects of the case study's five Table III assertions, 5-state
	// systems each.
	exploreSmall := func(b *testing.B) {
		states := 0
		for i := 0; i < b.N; i++ {
			for _, a := range plain.Model.Asserts {
				l, err := lts.Explore(plainSem, a.Impl, lts.Options{Obs: o})
				if err != nil {
					b.Fatal(err)
				}
				states += l.NumStates()
			}
		}
		b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
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
	return []Row{
		{"Explore/seq", explore},
		{"Explore/checkpoint", exploreCheckpoint},
		{"Explore/small", exploreSmall},
		{"Refines/cold", refines(nil)},
		{"Refines/cached", refines(primed)},
		{"RunAll/lossy-b2", runAllLossy},
		{"AcceptsTrace/soak", acceptsTrace},
		{"FaultCampaign/seq", FaultCampaign(1, o)},
		{"FaultCampaign/par", FaultCampaign(0, o)},
		{"Serve/check", serveCheck},
		{"CanoeSimulation", canoeSimulation},
		{"Learn/sim", learnSim},
		{"Scalability/pairs=64", Scalability(64)},
		{"CSPMLoad", cspmLoad},
		{"Normalize", normalize},
		{"Figure1_Pipeline", figure1},
		{"CAPLParse", caplParse},
		{"TranslateECU", translateECU},
		{"CANBusThroughput", canBusThroughput},
	}, nil
}

// FaultCampaign is the fault-injection campaign row: a fixed-seed sweep
// of every fault kind over both protocol variants at a 200 ms horizon
// per scenario, with the given scenario workers (0: GOMAXPROCS).
// Reports are byte-identical at any worker count.
func FaultCampaign(workers int, o *obs.Observer) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := faultcampaign.Config{
			Seed:         42,
			SeedsPerCase: 1,
			Horizon:      200 * canbus.Millisecond,
			Workers:      workers,
			Obs:          o,
		}
		n := len(faultcampaign.Matrix(cfg))
		for i := 0; i < b.N; i++ {
			rep := faultcampaign.Run(cfg)
			if rep.Scenarios != n {
				b.Fatalf("ran %d scenarios, want %d", rep.Scenarios, n)
			}
			if rep.Errored != 0 {
				b.Fatalf("%d scenarios errored", rep.Errored)
			}
		}
	}
}

// Scalability is a point of section VII's sweep, end to end: CAPL
// source of an ECU with the given number of request/response pairs to
// the verdict of its refinement check.
func Scalability(pairs int) func(b *testing.B) {
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pt, err := experiments.ScalabilityRun(pairs)
			if err != nil {
				b.Fatal(err)
			}
			if !pt.Holds {
				b.Fatal("property failed")
			}
		}
	}
}
