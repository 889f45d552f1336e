package refine_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/csp"
	"repro/internal/csp/cspgen"
	"repro/internal/lts"
	"repro/internal/obs"
	"repro/internal/refine"
)

// productBound and productPairBound are the state and pair bounds of
// the product-search oracle: a generated question past either fails
// both searches with the same error. Normalisation is not bounded, so
// productBound keeps the generated specifications small enough to
// normalise quickly.
const (
	productBound     = 400
	productPairBound = 20000
)

// Forms of a generated refinement question over one seed's root term R:
// R against itself, against a hidden view R \ X (either side), and
// against R [] e -> R, an external choice with a generated prefix
// (either side).
const (
	formSelf = iota
	formHiddenImpl
	formHiddenSpec
	formChoiceImpl
	formChoiceSpec
	numProductForms
)

var (
	productModels = []refine.Model{refine.Traces, refine.Failures, refine.FailuresDivergences}
	productSets   = []*csp.EventSet{
		csp.EventsOf("a"),
		csp.EventsOf("c", "t"),
		csp.Events(csp.Ev("c", csp.Int(1)), csp.Ev("b")),
		csp.EventsOf("d"),
	}
	productPrefixes = []csp.Event{
		csp.Ev("a"), csp.Ev("b"), csp.Ev("t"), csp.Ev("c", csp.Int(0)), csp.Ev("c", csp.Int(2)),
	}
)

// productQuestion returns the spec and impl terms of form over seed's
// root term: bits pick the hiding set and the prefix event.
func productQuestion(root csp.Process, form int, bits uint32) (csp.Process, csp.Process) {
	set := productSets[int(bits%uint32(len(productSets)))]
	ev := productPrefixes[int(bits/8%uint32(len(productPrefixes)))]
	choice := csp.ExtChoice(root, csp.Send(ev.Chan, root, ev.Args...))
	switch form {
	case formHiddenImpl:
		return root, csp.Hide(root, set)
	case formHiddenSpec:
		return csp.Hide(root, set), root
	case formChoiceImpl:
		return root, choice
	case formChoiceSpec:
		return choice, root
	}
	return root, root
}

// requireSameOutcome fails unless two checks ended alike: the same
// error (text, and *BudgetError fields), or results with the same
// verdict, counterexample (by Equal), bad event, reason and sizes.
func requireSameOutcome(t *testing.T, label string, want refine.Result, wantErr error, got refine.Result, err error) {
	t.Helper()
	if (wantErr == nil) != (err == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", label, err, wantErr)
	}
	var gb, wb *refine.BudgetError
	if errors.As(err, &gb) != errors.As(wantErr, &wb) || (gb != nil && *gb != *wb) {
		t.Fatalf("%s: budget error %+v, reference %+v", label, gb, wb)
	}
	if err != nil {
		return
	}
	if got.Holds != want.Holds || !got.Counterexample.Equal(want.Counterexample) ||
		got.Reason != want.Reason || got.ProductStates != want.ProductStates ||
		got.ImplStates != want.ImplStates || got.SpecNodes != want.SpecNodes {
		t.Fatalf("%s: result %+v, reference %+v", label, got, want)
	}
	if (got.BadEvent == nil) != (want.BadEvent == nil) || (got.BadEvent != nil && !got.BadEvent.Equal(*want.BadEvent)) {
		t.Fatalf("%s: bad event %v, reference %v", label, got.BadEvent, want.BadEvent)
	}
}

// checkProductSearch holds Refines of one generated question in one
// model to RefinesReference: the same outcome at the oracle's bounds,
// and the same *BudgetError at half the product pairs and half the
// steps that run used. The checks share cache, which holds only
// explorations and normalisations. It returns the outcome at the
// oracle's bounds: 1 holds, 0 fails, -1 an error.
func checkProductSearch(t *testing.T, sem *csp.Semantics, cache *lts.Cache, spec, impl csp.Process, model refine.Model, label string) int {
	t.Helper()
	label = fmt.Sprintf("%s: %s %s %s", label, spec.Key(), model, impl.Key())
	c := refine.NewChecker(sem.Env, sem.Ctx)
	c.MaxStates = productBound
	c.MaxProductStates = productPairBound
	c.Cache = cache
	want, steps, wantErr := c.RefinesReference(spec, impl, model)
	got, gotSteps, err := c.RefinesMeasured(spec, impl, model)
	requireSameOutcome(t, label, want, wantErr, got, err)
	if gotSteps != steps {
		t.Fatalf("%s: %d steps, reference %d", label, gotSteps, steps)
	}
	if wantErr != nil {
		return -1
	}
	if n := want.ProductStates / 2; n > 0 {
		c.MaxProductStates = n
		want, _, wantErr := c.RefinesReference(spec, impl, model)
		got, err := c.Refines(spec, impl, model)
		requireSameOutcome(t, label+fmt.Sprintf(" MaxProductStates=%d", n), want, wantErr, got, err)
		c.MaxProductStates = productPairBound
	}
	if n := steps / 2; n > 0 {
		c.MaxSteps = n
		want, _, wantErr := c.RefinesReference(spec, impl, model)
		got, err := c.Refines(spec, impl, model)
		requireSameOutcome(t, label+fmt.Sprintf(" MaxSteps=%d", n), want, wantErr, got, err)
	}
	if want.Holds {
		return 1
	}
	return 0
}

// TestProductSearchMatchesReference is the product-search oracle: for
// 300 generated systems, each root checked against itself, against a
// hidden view and against an external choice with a generated prefix
// (both ways round), under [T=, [F= and [FD=, the pair-table search
// must give the map-based reference's outcome — verdict,
// counterexample, bad event, reason, product size and steps — and the
// same *BudgetError at half the pairs and half the steps, all within
// the oracle's state and pair bounds.
func TestProductSearchMatchesReference(t *testing.T) {
	const seeds = 300
	var outcomes [3]int
	for seed := int64(0); seed < seeds; seed++ {
		bits := uint32(rand.New(rand.NewSource(seed)).Int63())
		sem, root := cspgen.Model(seed)
		cache := lts.NewCache()
		for form := 0; form < numProductForms; form++ {
			spec, impl := productQuestion(root, form, bits)
			for _, m := range productModels {
				label := fmt.Sprintf("seed %d form %d bits %#x", seed, form, bits)
				outcomes[1+checkProductSearch(t, sem, cache, spec, impl, m, label)]++
			}
		}
	}
	errs, fails, holds := outcomes[0], outcomes[1], outcomes[2]
	if holds < seeds || fails < seeds {
		t.Fatalf("%d hold, %d fail, %d errors: want both verdicts at least %d times", holds, fails, errs, seeds)
	}
	t.Logf("%d hold, %d fail, %d errors", holds, fails, errs)
}

// FuzzProductSearch is the product-search oracle over fuzzed seeds and
// question bits: bits 0–2 pick the form, the next two the model, the
// rest the hiding set and prefix event.
func FuzzProductSearch(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint32(seed*0x9e3779b9))
	}
	f.Fuzz(func(t *testing.T, seed int64, bits uint32) {
		form := int(bits % 8 % numProductForms)
		model := productModels[int(bits/8%4)%len(productModels)]
		sem, root := cspgen.Model(seed)
		spec, impl := productQuestion(root, form, bits/32)
		checkProductSearch(t, sem, lts.NewCache(), spec, impl, model, fmt.Sprintf("seed %d bits %#x", seed, bits))
	})
}

// TestProductSearchManySpecNodesPerState pairs thousands of
// specification nodes with one implementation state: a mod-n counter
// C(i) = a -> C((i+1)%n) against RUN = a -> RUN visits n pairs, all
// with RUN's one state, from an index sized for one record, so the
// table regrows several times. A counter that offers b instead of a at
// n-1 fails after n-1 or n events. Both must match the
// reference, and the refine.product span must report the final index.
func TestProductSearchManySpecNodesPerState(t *testing.T) {
	const n = 5000
	ctx := csp.NewContext()
	ctx.MustChannel("a")
	ctx.MustChannel("b")
	env := csp.NewEnv()
	next := csp.Binary{Op: csp.OpMod, L: csp.Binary{Op: csp.OpAdd, L: csp.V("i"), R: csp.LitInt(1)}, R: csp.LitInt(n)}
	env.MustDefine("C", []string{"i"}, csp.DoEvent("a", csp.Call("C", next)))
	env.MustDefine("D", []string{"i"}, csp.If(csp.Binary{Op: csp.OpLt, L: csp.V("i"), R: csp.LitInt(n - 1)},
		csp.DoEvent("a", csp.Call("D", next)),
		csp.DoEvent("b", csp.Call("D", csp.LitInt(0)))))
	env.MustDefine("RUN", nil, csp.DoEvent("a", csp.Call("RUN")))
	run := csp.Call("RUN")
	for _, m := range productModels {
		for i, spec := range []csp.Process{csp.Call("C", csp.LitInt(0)), csp.Call("D", csp.LitInt(0))} {
			label := fmt.Sprintf("%s %s RUN", spec.Key(), m)
			c := refine.NewChecker(env, ctx)
			c.Cache = lts.NewCache()
			want, _, wantErr := c.RefinesReference(spec, run, m)
			c.Obs = obs.New(obs.WithSpanRing(8))
			got, err := c.Refines(spec, run, m)
			requireSameOutcome(t, label, want, wantErr, got, err)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.ImplStates != 1 || got.SpecNodes < n {
				t.Fatalf("%s: %d impl states, %d spec nodes; want 1 and at least %d", label, got.ImplStates, got.SpecNodes, n)
			}
			// D(n-1) refuses a: in the traces model RUN's a fails there,
			// in the failures models RUN's stable offer of {a} already
			// refuses more than D(n-1)'s acceptance {b} allows.
			wantLen := n
			if m != refine.Traces {
				wantLen = n - 1
			}
			if i == 0 && (!got.Holds || got.ProductStates != got.SpecNodes) {
				t.Fatalf("%s: %+v, want a holding check pairing every spec node with RUN", label, got)
			}
			if i == 1 && (got.Holds || len(got.Counterexample) != wantLen) {
				t.Fatalf("%s: holds=%v with a %d-event counterexample, want a failure after %d events",
					label, got.Holds, len(got.Counterexample), wantLen)
			}
			var slots any
			for _, sp := range c.Obs.Spans() {
				if sp.Name == "refine.product" {
					slots = sp.Attrs["slots"]
				}
			}
			// 16 slots for RUN's one state, doubled past 3/4 load nine
			// times, up to the first power of two holding n records.
			if slots != int64(8192) {
				t.Fatalf("%s: refine.product slots = %v, want 8192", label, slots)
			}
		}
	}
}
