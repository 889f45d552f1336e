package refine

import (
	"testing"
	"testing/quick"

	"repro/internal/csp"
	"repro/internal/csp/cspref"
	"repro/internal/lts"
)

// Property tests on the refinement relation itself, over randomly
// generated finite processes.

func propContext() *csp.Context {
	ctx := csp.NewContext()
	for _, name := range []string{"a", "b", "c"} {
		ctx.MustChannel(name)
	}
	return ctx
}

func genProc(seed uint64, depth int) csp.Process {
	events := []string{"a", "b", "c"}
	pick := seed % 7
	seed /= 7
	if depth <= 0 {
		if pick%2 == 0 {
			return csp.Stop()
		}
		return csp.DoEvent(events[seed%3], csp.Stop())
	}
	l := genProc(seed/3, depth-1)
	r := genProc(seed/5+1, depth-1)
	switch pick {
	case 0:
		return csp.Stop()
	case 1:
		return csp.Skip()
	case 2:
		return csp.DoEvent(events[seed%3], l)
	case 3:
		return csp.ExtChoice(l, r)
	case 4:
		return csp.IntChoice(l, r)
	case 5:
		return csp.Interleave(l, r)
	default:
		return csp.Seq(l, r)
	}
}

func TestRefinementReflexive(t *testing.T) {
	c := NewChecker(csp.NewEnv(), propContext())
	prop := func(seed uint64) bool {
		p := genProc(seed, 3)
		res, err := c.RefinesTraces(p, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Key(), err)
		}
		return res.Holds
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestFailuresRefinementReflexive(t *testing.T) {
	c := NewChecker(csp.NewEnv(), propContext())
	prop := func(seed uint64) bool {
		p := genProc(seed, 3)
		res, err := c.RefinesFailures(p, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Key(), err)
		}
		return res.Holds
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRefinementTransitive(t *testing.T) {
	c := NewChecker(csp.NewEnv(), propContext())
	prop := func(seed uint64) bool {
		p := genProc(seed, 2)
		q := genProc(seed/7+1, 2)
		r := genProc(seed/13+2, 2)
		pq, err := c.RefinesTraces(p, q)
		if err != nil {
			t.Fatal(err)
		}
		qr, err := c.RefinesTraces(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if !pq.Holds || !qr.Holds {
			return true // antecedent false: vacuously true
		}
		pr, err := c.RefinesTraces(p, r)
		if err != nil {
			t.Fatal(err)
		}
		return pr.Holds
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestChoiceRefinesBothBranches(t *testing.T) {
	// P [] Q is trace-refined by P and by Q.
	c := NewChecker(csp.NewEnv(), propContext())
	prop := func(seed uint64) bool {
		p := genProc(seed, 2)
		q := genProc(seed/9+1, 2)
		choice := csp.ExtChoice(p, q)
		left, err := c.RefinesTraces(choice, p)
		if err != nil {
			t.Fatal(err)
		}
		right, err := c.RefinesTraces(choice, q)
		if err != nil {
			t.Fatal(err)
		}
		return left.Holds && right.Holds
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestRefinementAgreesWithTraceEnumeration cross-validates the
// product-automaton checker against direct bounded trace-set inclusion.
func TestRefinementAgreesWithTraceEnumeration(t *testing.T) {
	ctx := propContext()
	env := csp.NewEnv()
	c := NewChecker(env, ctx)
	sem := csp.NewSemantics(env, ctx)
	const bound = 6
	prop := func(seed uint64) bool {
		spec := genProc(seed, 2)
		impl := genProc(seed/11+1, 2)
		res, err := c.RefinesTraces(spec, impl)
		if err != nil {
			t.Fatal(err)
		}
		specT, err := cspref.Traces(sem, spec, bound)
		if err != nil {
			t.Fatal(err)
		}
		implT, err := cspref.Traces(sem, impl, bound)
		if err != nil {
			t.Fatal(err)
		}
		subset, witness := implT.SubsetOf(specT)
		if res.Holds != subset {
			t.Logf("spec=%s impl=%s checker=%v enumeration=%v witness=%s counterexample=%s",
				spec.Key(), impl.Key(), res.Holds, subset, witness, res.Counterexample)
			return false
		}
		// When refinement fails the counterexample must be a genuine
		// implementation trace that the spec cannot perform.
		if !res.Holds && len(res.Counterexample) <= bound {
			if !implT.Contains(res.Counterexample) {
				t.Logf("counterexample %s is not an impl trace", res.Counterexample)
				return false
			}
			if specT.Contains(res.Counterexample) {
				t.Logf("counterexample %s is allowed by the spec", res.Counterexample)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestNormalizationPreservesTraces checks that the determinised
// specification accepts exactly the original's traces.
func TestNormalizationPreservesTraces(t *testing.T) {
	ctx := propContext()
	env := csp.NewEnv()
	sem := csp.NewSemantics(env, ctx)
	const bound = 5
	prop := func(seed uint64) bool {
		p := genProc(seed, 3)
		l, err := lts.Explore(sem, p, lts.Options{})
		if err != nil {
			t.Fatal(err)
		}
		norm := lts.Normalize(l)
		ts, err := cspref.Traces(sem, p, bound)
		if err != nil {
			t.Fatal(err)
		}
		// Every trace of p must be accepted by the DFA.
		for _, tr := range ts.Slice() {
			node := norm.Init
			ok := true
			for _, ev := range tr {
				id, known := l.EventID(ev)
				if !known {
					ok = false
					break
				}
				next, accepted := norm.Accepts(node, id)
				if !accepted {
					ok = false
					break
				}
				node = next
			}
			if !ok {
				t.Logf("process %s: trace %s rejected by normalisation", p.Key(), tr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
