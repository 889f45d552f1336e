// Differential tests of the compiled explorer against the frozen
// string-keyed reference engine (ExploreReference, which evaluates every
// state's whole term with csp.Semantics). Explore must produce a
// byte-identical LTS — same state numbering, keys, event table and edge
// lists — because downstream verdicts, counterexamples and reports are
// rendered from those exact indices. The corpora are the OTA case study
// and cspgen's seeded small closed CSP systems, which cover every
// operator the compiled form treats specially.
package lts_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/csp"
	"repro/internal/csp/cspgen"
	"repro/internal/lts"
	"repro/internal/ota"
)

// corpusSystem names one built System of the OTA corpus.
type corpusSystem struct {
	name string
	sys  *ota.System
}

func otaCorpus(t *testing.T) []corpusSystem {
	t.Helper()
	var out []corpusSystem
	add := func(name string, sys *ota.System, err error) {
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out = append(out, corpusSystem{name: name, sys: sys})
	}
	sys, err := ota.Build()
	add("naive", sys, err)
	sys, err = ota.BuildFlawed()
	add("flawed", sys, err)
	sys, err = ota.BuildDeadlocked()
	add("deadlocked", sys, err)
	for budget := 0; budget <= 2; budget++ {
		sys, err = ota.BuildLossy(ota.NaiveGateway, budget)
		add(fmt.Sprintf("lossy-naive-b%d", budget), sys, err)
		sys, err = ota.BuildLossy(ota.HardenedGateway, budget)
		add(fmt.Sprintf("lossy-hardened-b%d", budget), sys, err)
	}
	return out
}

// explored is what both an explored LTS and the reference engine's
// result answer, so requireSameLTS can compare either with either.
type explored interface {
	Graph() (init int, edges [][]lts.Edge, events []csp.Event)
	NumStates() int
	Key(id int) string
	IsOmega(id int) bool
}

// requireSameLTS fails unless a and b are structurally byte-identical:
// the same initial state, state keys, Ω states, event table and edges.
func requireSameLTS(t *testing.T, label string, a, b explored) {
	t.Helper()
	aInit, aEdges, aEvents := a.Graph()
	bInit, bEdges, bEvents := b.Graph()
	if aInit != bInit {
		t.Fatalf("%s: init %d vs %d", label, aInit, bInit)
	}
	if a.NumStates() != b.NumStates() {
		t.Fatalf("%s: %d states vs %d", label, a.NumStates(), b.NumStates())
	}
	for i := 0; i < a.NumStates(); i++ {
		if a.Key(i) != b.Key(i) {
			t.Fatalf("%s: state %d key %q vs %q", label, i, a.Key(i), b.Key(i))
		}
		if a.IsOmega(i) != b.IsOmega(i) {
			t.Fatalf("%s: state %d (%s) is Ω: %v vs %v", label, i, a.Key(i), a.IsOmega(i), b.IsOmega(i))
		}
	}
	if len(aEvents) != len(bEvents) {
		t.Fatalf("%s: %d events vs %d", label, len(aEvents), len(bEvents))
	}
	for i := range aEvents {
		if aEvents[i].String() != bEvents[i].String() {
			t.Fatalf("%s: event %d = %s vs %s", label, i, aEvents[i], bEvents[i])
		}
	}
	if len(aEdges) != len(bEdges) {
		t.Fatalf("%s: %d edge lists vs %d", label, len(aEdges), len(bEdges))
	}
	for s := range aEdges {
		ea, eb := aEdges[s], bEdges[s]
		if len(ea) != len(eb) {
			t.Fatalf("%s: state %d has %d edges vs %d", label, s, len(ea), len(eb))
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("%s: state %d edge %d = %+v vs %+v", label, s, j, ea[j], eb[j])
			}
		}
	}
}

// TestInternedEngineMatchesStringKeyedReference is the representation
// safety net over the case study: for every assertion term of every OTA
// system variant, with and without the lossy-channel composition at
// loss budgets 0–2, Explore must produce exactly the reference LTS.
func TestInternedEngineMatchesStringKeyedReference(t *testing.T) {
	for _, cs := range otaCorpus(t) {
		m := cs.sys.Model
		sem := csp.NewSemantics(m.Env, m.Ctx)
		terms := map[string]csp.Process{}
		for _, a := range m.Asserts {
			if a.Spec != nil {
				terms[a.Spec.Key()] = a.Spec
			}
			terms[a.Impl.Key()] = a.Impl
		}
		for key, p := range terms {
			ref, err := lts.ExploreReference(sem, p, 0)
			if err != nil {
				t.Fatalf("%s: reference explore %s: %v", cs.name, key, err)
			}
			got, err := lts.Explore(sem, p, lts.Options{})
			if err != nil {
				t.Fatalf("%s: explore %s: %v", cs.name, key, err)
			}
			requireSameLTS(t, fmt.Sprintf("%s/%s", cs.name, key), ref, got)
		}
	}
}

// TestGeneratedModelsMatchReference is the generated-model oracle: for
// every seed, Explore and ExploreReference must agree on the LTS or, when
// the bound trips or the semantics fails, on the exact error.
func TestGeneratedModelsMatchReference(t *testing.T) {
	const seeds, bound = 500, 250
	var ok, limited, failed int
	for seed := int64(0); seed < seeds; seed++ {
		sem, root := cspgen.Model(seed)
		ref, refErr := lts.ExploreReference(sem, root, bound)
		got, err := lts.Explore(sem, root, lts.Options{MaxStates: bound})
		label := fmt.Sprintf("seed %d (%s)", seed, root.Key())
		if refErr != nil || err != nil {
			if refErr == nil || err == nil || refErr.Error() != err.Error() {
				t.Fatalf("%s: error %v, reference error %v", label, err, refErr)
			}
			if errors.Is(err, lts.ErrStateLimit) {
				limited++
			} else {
				failed++
			}
			continue
		}
		requireSameLTS(t, label, ref, got)
		ok++
	}
	// The generator must mostly produce explorable systems, or the
	// oracle would be comparing error strings.
	if ok < seeds/2 {
		t.Fatalf("only %d of %d generated systems explored (%d over the bound, %d failed)", ok, seeds, limited, failed)
	}
	t.Logf("%d explored, %d over the bound, %d failed", ok, limited, failed)
}

// TestExploreLimitErrorMatchesReference pins the error-determinism
// contract on a long chain: the state bound trips at the same
// exploration size as the reference engine's.
func TestExploreLimitErrorMatchesReference(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("count", csp.IntRange{Lo: 0, Hi: 5000})
	env := csp.NewEnv()
	env.MustDefine("C", []string{"n"},
		csp.Guard(csp.Binary{Op: csp.OpLt, L: csp.V("n"), R: csp.LitInt(5000)},
			csp.Prefix("count", []csp.CommField{csp.Out(csp.V("n"))},
				csp.Call("C", csp.Binary{Op: csp.OpAdd, L: csp.V("n"), R: csp.LitInt(1)}))))
	sem := csp.NewSemantics(env, ctx)
	p := csp.Interleave(csp.Call("C", csp.LitInt(0)), csp.Call("C", csp.LitInt(4990)))

	_, refErr := lts.ExploreReference(sem, p, 100)
	_, err := lts.Explore(sem, p, lts.Options{MaxStates: 100})
	var refLim, lim *lts.LimitError
	if !errors.As(refErr, &refLim) || !errors.As(err, &lim) {
		t.Fatalf("errors %v / reference %v, want *LimitError both", err, refErr)
	}
	if *lim != *refLim {
		t.Errorf("limit error %+v, reference %+v", *lim, *refLim)
	}
}

// TestExploreUnguardedRecursionFails pins that P = P, alone or as a
// component, is still reported as unguarded recursion.
func TestExploreUnguardedRecursionFails(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("a")
	env := csp.NewEnv()
	env.MustDefine("P", nil, csp.Call("P"))
	env.MustDefine("Q", nil, csp.DoEvent("a", csp.Call("Q")))
	sem := csp.NewSemantics(env, ctx)
	for _, root := range []csp.Process{
		csp.Call("P"),
		csp.Par(csp.Call("Q"), csp.EventsOf("a"), csp.Hide(csp.Call("P"), csp.EventsOf("a"))),
	} {
		_, err := lts.Explore(sem, root, lts.Options{})
		if !errors.Is(err, csp.ErrUnguardedRecursion) {
			t.Errorf("%s: err = %v, want ErrUnguardedRecursion", root.Key(), err)
		}
	}
}

// TestExploreMaxStatesBoundIsExact is the regression test for the
// off-by-one: a bound of N must never materialise state N+1, and the
// reported partial size must not exceed the limit.
func TestExploreMaxStatesBoundIsExact(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("count", csp.IntRange{Lo: 0, Hi: 1000})
	env := csp.NewEnv()
	env.MustDefine("C", []string{"n"},
		csp.Guard(csp.Binary{Op: csp.OpLt, L: csp.V("n"), R: csp.LitInt(1000)},
			csp.Prefix("count", []csp.CommField{csp.Out(csp.V("n"))},
				csp.Call("C", csp.Binary{Op: csp.OpAdd, L: csp.V("n"), R: csp.LitInt(1)}))))
	sem := csp.NewSemantics(env, ctx)
	p := csp.Call("C", csp.LitInt(0))

	_, err := lts.Explore(sem, p, lts.Options{MaxStates: 10})
	var le *lts.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Explored > le.Limit {
		t.Errorf("Explored=%d exceeds Limit=%d (off-by-one)", le.Explored, le.Limit)
	}

	// A process with exactly N states must fit in a bound of N.
	ctx2 := csp.NewContext()
	ctx2.MustChannel("a")
	ctx2.MustChannel("b")
	sem2 := csp.NewSemantics(csp.NewEnv(), ctx2)
	three := csp.DoEvent("a", csp.DoEvent("b", csp.Stop()))
	l, err := lts.Explore(sem2, three, lts.Options{MaxStates: 3})
	if err != nil {
		t.Fatalf("3-state process rejected by MaxStates=3: %v", err)
	}
	if l.NumStates() != 3 {
		t.Fatalf("states = %d, want 3", l.NumStates())
	}
	if _, err := lts.Explore(sem2, three, lts.Options{MaxStates: 2}); err == nil {
		t.Fatal("3-state process accepted by MaxStates=2")
	}
}
