// Package repro's benchmark harness regenerates every table and figure
// of the paper (see DESIGN.md's per-experiment index) and measures the
// substrate components. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/attack"
	"repro/internal/canbus"
	"repro/internal/candb"
	"repro/internal/canoe"
	"repro/internal/capl"
	"repro/internal/conformance"
	"repro/internal/csp"
	"repro/internal/csp/cspref"
	"repro/internal/cspm"
	"repro/internal/experiments"
	"repro/internal/faultcampaign"
	"repro/internal/learn"
	"repro/internal/lts"
	"repro/internal/ota"
	"repro/internal/refine"
	"repro/internal/serve"
	"repro/internal/translate"
)

// --- Paper tables ----------------------------------------------------------

// BenchmarkTableI_CSPmRoundTrip regenerates Table I: every CSPm operator
// parsed and round-tripped through the front-end.
func BenchmarkTableI_CSPmRoundTrip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableII_MessageTypes regenerates Table II from the case-study
// metadata.
func BenchmarkTableII_MessageTypes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.TableII()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 4 {
			b.Fatal("wrong table")
		}
	}
}

// BenchmarkTableIII_Requirements regenerates Table III: all five
// requirements checked by refinement on both the correct and the flawed
// system.
func BenchmarkTableIII_Requirements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Paper figures ------------------------------------------------------------

// BenchmarkFigure1_Pipeline runs the complete Figure 1 workflow: CAPL
// parse, model extraction, composition, evaluation, three assertions,
// and the simulation cross-validation.
func BenchmarkFigure1_Pipeline(b *testing.B) {
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

// BenchmarkFigure2_SystemCheck checks the Figure 2 composed system for
// the three implementation variants.
func BenchmarkFigure2_SystemCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3_Translate regenerates the Figure 3 artefact (the
// extracted ECU CSPm model).
func BenchmarkFigure3_Translate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		text, err := experiments.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		if len(text) == 0 {
			b.Fatal("empty model")
		}
	}
}

// --- Scalability sweep (section VII) ---------------------------------------

// BenchmarkScalability sweeps the refinement check over growing
// application sizes (request/response pairs).
func BenchmarkScalability(b *testing.B) {
	for _, pairs := range []int{2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := experiments.ScalabilityRun(pairs)
				if err != nil {
					b.Fatal(err)
				}
				if !pt.Holds {
					b.Fatal("property failed")
				}
			}
		})
	}
}

// --- Attacker experiments ------------------------------------------------------

// BenchmarkSecureVariants runs the R05 shared-key experiment: three
// protections against the Dolev-Yao bus intruder.
func BenchmarkSecureVariants(b *testing.B) {
	for _, v := range []ota.SecureVariant{ota.Naive, ota.MACOnly, ota.MACNonce} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := ota.BuildSecure(v)
				if err != nil {
					b.Fatal(err)
				}
				c := refine.NewChecker(m.Env, m.Ctx)
				if _, err := c.RefinesTraces(m.AuthSpec, m.System); err != nil {
					b.Fatal(err)
				}
				if _, err := c.RefinesTraces(m.InjSpec, m.System); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAttackTree_Translate measures the attack-tree-to-CSP
// translation plus the sequence-set equivalence check.
func BenchmarkAttackTree_Translate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AttackTree()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Equivalent {
			b.Fatal("translation not equivalent")
		}
	}
}

// BenchmarkNSPK_AttackSearch measures finding Lowe's attack on the
// original Needham-Schroeder protocol.
func BenchmarkNSPK_AttackSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := attack.BuildNSPK(attack.NSPKConfig{})
		if err != nil {
			b.Fatal(err)
		}
		c := refine.NewChecker(m.Env, m.Ctx)
		res, err := c.RefinesTraces(m.AuthSpec, m.System)
		if err != nil {
			b.Fatal(err)
		}
		if res.Holds {
			b.Fatal("attack not found")
		}
	}
}

// BenchmarkNSL_Verification measures verifying the fixed protocol
// (exhaustive exploration, so costlier than finding the attack).
func BenchmarkNSL_Verification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := attack.BuildNSPK(attack.NSPKConfig{Fixed: true})
		if err != nil {
			b.Fatal(err)
		}
		c := refine.NewChecker(m.Env, m.Ctx)
		res, err := c.RefinesTraces(m.AuthSpec, m.System)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Holds {
			b.Fatal("NSL rejected")
		}
	}
}

// --- Ablation: product-automaton vs naive trace enumeration --------------------

// BenchmarkAblation_RefinementAlgorithm compares the FDR-style
// normalised product check against naive bounded trace-set enumeration
// on the same query — the design choice DESIGN.md calls out.
func BenchmarkAblation_RefinementAlgorithm(b *testing.B) {
	sys, err := ota.Build()
	if err != nil {
		b.Fatal(err)
	}
	spec := sys.Model.Asserts[ota.AssertR02].Spec
	impl := sys.Model.Asserts[ota.AssertR02].Impl

	b.Run("product-automaton", func(b *testing.B) {
		c := refine.NewChecker(sys.Model.Env, sys.Model.Ctx)
		for i := 0; i < b.N; i++ {
			res, err := c.RefinesTraces(spec, impl)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Holds {
				b.Fatal("check failed")
			}
		}
	})
	b.Run("naive-trace-enumeration", func(b *testing.B) {
		sem := csp.NewSemantics(sys.Model.Env, sys.Model.Ctx)
		const bound = 8
		for i := 0; i < b.N; i++ {
			implTraces, err := cspref.Traces(sem, impl, bound)
			if err != nil {
				b.Fatal(err)
			}
			specTraces, err := cspref.Traces(sem, spec, bound)
			if err != nil {
				b.Fatal(err)
			}
			if ok, _ := implTraces.SubsetOf(specTraces); !ok {
				b.Fatal("check failed")
			}
		}
	})
}

// --- Substrate microbenchmarks ----------------------------------------------

// BenchmarkCAPLParse measures the CAPL front-end on the ECU program.
func BenchmarkCAPLParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := capl.Parse(ota.ECUSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateECU measures model extraction alone.
func BenchmarkTranslateECU(b *testing.B) {
	prog, err := capl.Parse(ota.ECUSource)
	if err != nil {
		b.Fatal(err)
	}
	opts := translate.DefaultOptions("ECU")
	opts.MessageRename = ota.MessageRename
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := translate.Translate(prog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCSPMLoad measures parsing + evaluating the combined
// case-study script.
func BenchmarkCSPMLoad(b *testing.B) {
	sys, err := ota.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cspm.Load(sys.Source); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCheck measures one fdrserve request end to end: a POST
// /v1/check of testdata/ota.csp through httptest against a server with
// the default Config, JSON both ways and every assertion's check
// included.
func BenchmarkServeCheck(b *testing.B) {
	src, err := os.ReadFile(filepath.Join("testdata", "ota.csp"))
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(serve.CheckRequest{CSPM: string(src)})
	if err != nil {
		b.Fatal(err)
	}
	srv := serve.New(serve.Config{})
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

// BenchmarkExplore measures LTS construction for the composed lossy
// system (the largest state space of the case study). The variants
// build byte-identical LTSs: the compiled sequential explorer (seq),
// and the same with a checkpoint written after every BFS level
// (checkpoint).
func BenchmarkExplore(b *testing.B) {
	sys, err := ota.BuildLossy(ota.HardenedGateway, ota.DefaultLossBudget)
	if err != nil {
		b.Fatal(err)
	}
	sem := csp.NewSemantics(sys.Model.Env, sys.Model.Ctx)
	system := csp.Call("SYSTEML")
	b.Run("seq", func(b *testing.B) {
		states := 0
		for i := 0; i < b.N; i++ {
			l, err := lts.Explore(sem, system, lts.Options{})
			if err != nil {
				b.Fatal(err)
			}
			states = l.NumStates()
		}
		b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	})
	// The checkpoint variant prices crash safety: a snapshot of the
	// partial LTS is written atomically after every level, each
	// iteration into a fresh directory so none resumes.
	b.Run("checkpoint", func(b *testing.B) {
		dir := b.TempDir()
		states := 0
		for i := 0; i < b.N; i++ {
			l, err := lts.Explore(sem, system, lts.Options{
				Checkpoint: &lts.CheckpointOptions{Dir: filepath.Join(dir, strconv.Itoa(i))},
			})
			if err != nil {
				b.Fatal(err)
			}
			states = l.NumStates()
		}
		b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	})
}

// BenchmarkRefines measures a full trace-refinement check of the R02
// assertion, cold (every iteration explores both terms afresh) and
// cached (a shared lts.Cache serves the explorations after the first
// iteration) — the campaign-scale speedup of the model cache.
func BenchmarkRefines(b *testing.B) {
	sys, err := ota.Build()
	if err != nil {
		b.Fatal(err)
	}
	spec := sys.Model.Asserts[ota.AssertR02].Spec
	impl := sys.Model.Asserts[ota.AssertR02].Impl
	b.Run("cold", func(b *testing.B) {
		c := refine.NewChecker(sys.Model.Env, sys.Model.Ctx)
		for i := 0; i < b.N; i++ {
			res, err := c.RefinesTraces(spec, impl)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Holds {
				b.Fatal("check failed")
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		c := refine.NewChecker(sys.Model.Env, sys.Model.Ctx)
		c.Cache = lts.NewCache()
		if _, err := c.RefinesTraces(spec, impl); err != nil {
			b.Fatal(err) // prime the cache outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := c.RefinesTraces(spec, impl)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Holds {
				b.Fatal("check failed")
			}
		}
	})
}

// BenchmarkAcceptsTrace measures on-the-fly trace membership, the
// conformance soak's check, on the projected trace of one hardened
// schedule that duplicates a VMG frame, against the observed model under
// the fault budget the duplicate earns. Each iteration uses a fresh
// checker, as each soak schedule does.
func BenchmarkAcceptsTrace(b *testing.B) {
	r, err := conformance.NewRunner()
	if err != nil {
		b.Fatal(err)
	}
	trace, sys, err := r.Observe(conformance.Schedule{
		Variant:   conformance.VariantHardened,
		HorizonUs: int64(12 * canbus.Millisecond),
		Ops:       []conformance.Op{{Kind: conformance.OpDupFrame, Nth: 4, DelayUs: 350}},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("soak", func(b *testing.B) {
		states := 0
		for i := 0; i < b.N; i++ {
			c := refine.NewChecker(sys.Model.Env, sys.Model.Ctx)
			res, err := c.AcceptsTrace(csp.Call(ota.ObservedProcess), trace)
			if err != nil {
				b.Fatal(err)
			}
			if !res.Accepted {
				b.Fatalf("trace rejected at event %d", res.FailedAt)
			}
			states = res.States
		}
		b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	})
}

// BenchmarkNormalize measures the subset construction.
func BenchmarkNormalize(b *testing.B) {
	sys, err := ota.Build()
	if err != nil {
		b.Fatal(err)
	}
	sem := csp.NewSemantics(sys.Model.Env, sys.Model.Ctx)
	l, err := lts.Explore(sem, csp.Call("SYSTEM"), lts.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := lts.Normalize(l); n.NumNodes() == 0 {
			b.Fatal("empty normalisation")
		}
	}
}

// BenchmarkCANBusThroughput measures the bus simulator delivering
// frames between two nodes.
func BenchmarkCANBusThroughput(b *testing.B) {
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

// BenchmarkCanoeSimulation measures the CAPL runtime executing the
// case-study measurement for 1 simulated millisecond.
func BenchmarkCanoeSimulation(b *testing.B) {
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

// BenchmarkLearn measures L* learning the hardened ECU on the simulated
// bus at seed 1 with one worker, each iteration over a fresh teacher so
// every simulation the learner needs is run, not served from an
// earlier iteration's memo.
func BenchmarkLearn(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		cfg := learn.CampaignConfig{Seed: 1}
		for i := 0; i < b.N; i++ {
			teacher, err := learn.NewVariantTeacher(cfg, learn.VariantHardened)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := learn.Learn(learn.Config{Teacher: teacher, Seed: 1, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDBCParse measures the CAN database parser.
func BenchmarkDBCParse(b *testing.B) {
	src := otaDBC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := candb.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignalCodec measures signal encode/decode round trips.
func BenchmarkSignalCodec(b *testing.B) {
	s := &candb.Signal{Name: "S", StartBit: 4, Length: 12, LittleEndian: true, Factor: 1}
	data := make([]byte, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.EncodeRaw(data, int64(i&0xFFF)); err != nil {
			b.Fatal(err)
		}
		if s.DecodeRaw(data) != int64(i&0xFFF) {
			b.Fatal("codec mismatch")
		}
	}
}

// BenchmarkFaultCampaign measures end-to-end fault-campaign throughput:
// a fixed-seed 32-scenario sweep (every fault kind, both protocol
// variants, 500 ms horizon per scenario), sequentially and with the
// scenario worker pool. Reports are byte-identical in both modes.
func BenchmarkFaultCampaign(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"workers=1", 1},
		{fmt.Sprintf("workers=%d", runtime.GOMAXPROCS(0)), 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := faultcampaign.Config{
				Seed:         42,
				SeedsPerCase: 1,
				Horizon:      500 * canbus.Millisecond,
				Workers:      bc.workers,
			}
			n := len(faultcampaign.Matrix(cfg))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := faultcampaign.Run(cfg)
				if rep.Scenarios != n {
					b.Fatalf("ran %d scenarios, want %d", rep.Scenarios, n)
				}
				if rep.Errored != 0 {
					b.Fatalf("%d scenarios errored", rep.Errored)
				}
			}
			b.ReportMetric(float64(n), "scenarios/op")
		})
	}
}

func otaDBC() string {
	return `VERSION "1.0"
BU_: VMG ECU
BO_ 257 SwInventoryReq: 8 VMG
 SG_ Counter : 0|8@1+ (1,0) [0|255] "" ECU
BO_ 258 SwInventoryRpt: 8 ECU
 SG_ Status : 0|4@1+ (1,0) [0|15] "" VMG
`
}
