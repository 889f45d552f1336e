// Package repro's benchmark harness regenerates every table and figure
// of the paper (see DESIGN.md's per-experiment index) and measures the
// substrate components. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/candb"
	"repro/internal/csp"
	"repro/internal/csp/cspref"
	"repro/internal/experiments"
	"repro/internal/ledger"
	"repro/internal/ota"
	"repro/internal/refine"
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
func BenchmarkFigure1_Pipeline(b *testing.B) { runLedger(b, "Figure1_Pipeline") }

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
// application sizes (request/response pairs); pairs=64 is the ledger's
// row.
func BenchmarkScalability(b *testing.B) {
	for _, pairs := range []int{2, 4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("pairs=%d", pairs), ledger.Scalability(pairs))
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
func BenchmarkCAPLParse(b *testing.B) { runLedger(b, "CAPLParse") }

// BenchmarkTranslateECU measures model extraction alone.
func BenchmarkTranslateECU(b *testing.B) { runLedger(b, "TranslateECU") }

// BenchmarkCSPMLoad measures parsing + evaluating the combined
// case-study script.
func BenchmarkCSPMLoad(b *testing.B) { runLedger(b, "CSPMLoad") }

// BenchmarkServe measures one fdrserve request end to end (check): a
// POST /v1/check of testdata/ota.csp through httptest against a server
// with the default Config, JSON both ways and every assertion's check
// included.
func BenchmarkServe(b *testing.B) { runLedger(b, "Serve") }

// BenchmarkExplore measures LTS construction: the composed lossy
// system (the largest state space of the case study) with the compiled
// sequential explorer (seq) and with a checkpoint written after every
// BFS level (checkpoint), which build byte-identical LTSs, and the five
// small Table III subjects (small).
func BenchmarkExplore(b *testing.B) { runLedger(b, "Explore") }

// BenchmarkRefines measures a full trace-refinement check of the R02
// assertion, cold (every iteration explores both terms afresh) and
// cached (a shared lts.Cache serves the explorations after the first
// iteration) — the campaign-scale speedup of the model cache.
func BenchmarkRefines(b *testing.B) { runLedger(b, "Refines") }

// BenchmarkRunAll measures every assertion of the lossy system at loss
// budget 2 (lossy-b2), whose views the run's cache derives from one
// exploration of SYSTEML.
func BenchmarkRunAll(b *testing.B) { runLedger(b, "RunAll") }

// BenchmarkAcceptsTrace measures on-the-fly trace membership, the
// conformance soak's check, on the projected trace of one hardened
// schedule that duplicates a VMG frame (soak).
func BenchmarkAcceptsTrace(b *testing.B) { runLedger(b, "AcceptsTrace") }

// BenchmarkNormalize measures the subset construction.
func BenchmarkNormalize(b *testing.B) { runLedger(b, "Normalize") }

// BenchmarkCANBusThroughput measures the bus simulator delivering
// frames between two nodes.
func BenchmarkCANBusThroughput(b *testing.B) { runLedger(b, "CANBusThroughput") }

// BenchmarkCanoeSimulation measures the CAPL runtime executing the
// case-study measurement for 1 simulated millisecond.
func BenchmarkCanoeSimulation(b *testing.B) { runLedger(b, "CanoeSimulation") }

// BenchmarkLearn measures L* learning the hardened ECU on the simulated
// bus (sim).
func BenchmarkLearn(b *testing.B) { runLedger(b, "Learn") }

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

// BenchmarkFaultCampaign measures end-to-end fault-campaign throughput,
// sequentially (seq) and with the scenario worker pool (par).
func BenchmarkFaultCampaign(b *testing.B) { runLedger(b, "FaultCampaign") }

// ledgerRows is the ledger (internal/ledger), built on first use.
var ledgerRows = sync.OnceValues(func() ([]ledger.Row, error) { return ledger.Rows(nil) })

// runLedger runs the ledger row called name, or the rows called
// name/<sub> as sub-benchmarks <sub>, so each shared benchmark runs the
// body cmd/benchsmoke captures.
func runLedger(b *testing.B, name string) {
	rows, err := ledgerRows()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer() // the first call builds the ledger
	found := false
	for _, r := range rows {
		if r.Name == name {
			r.Fn(b)
			return
		}
		if sub, ok := strings.CutPrefix(r.Name, name+"/"); ok {
			b.Run(sub, r.Fn)
			found = true
		}
	}
	if !found {
		b.Fatalf("no ledger row %s", name)
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
