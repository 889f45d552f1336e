package csp_test

import (
	"testing"
	"testing/quick"

	"repro/internal/csp"
	"repro/internal/csp/cspref"
)

// This file property-tests the algebraic laws of the trace semantics
// (section IV-A of the paper) on randomly generated finite processes:
// the laws are stated over traces(P), so two processes are "equal" when
// their bounded trace sets coincide.

const lawBound = 5

// lawContext declares the fixed alphabet the generated processes use.
func lawContext() *csp.Context {
	ctx := csp.NewContext()
	for _, name := range []string{"a", "b", "c", "d"} {
		ctx.MustChannel(name)
	}
	return ctx
}

// genProcess derives a small random process term from a seed.
func genProcess(seed uint64, depth int) csp.Process {
	events := []string{"a", "b", "c", "d"}
	pick := seed % 8
	seed /= 8
	if depth <= 0 {
		switch pick % 3 {
		case 0:
			return csp.Stop()
		case 1:
			return csp.Skip()
		default:
			return csp.DoEvent(events[seed%4], csp.Stop())
		}
	}
	l := genProcess(seed/3, depth-1)
	r := genProcess(seed/7+1, depth-1)
	switch pick {
	case 0:
		return csp.Stop()
	case 1:
		return csp.Skip()
	case 2:
		return csp.DoEvent(events[seed%4], l)
	case 3:
		return csp.ExtChoice(l, r)
	case 4:
		return csp.IntChoice(l, r)
	case 5:
		return csp.Seq(l, r)
	case 6:
		return csp.Interleave(l, r)
	default:
		return csp.Par(l, csp.Events(csp.Ev(events[seed%4])), r)
	}
}

// sameTraces reports whether two processes have identical bounded trace
// sets.
func sameTraces(t *testing.T, sem *csp.Semantics, p, q csp.Process) bool {
	t.Helper()
	tp, err := cspref.Traces(sem, p, lawBound)
	if err != nil {
		t.Fatalf("traces of %s: %v", p.Key(), err)
	}
	tq, err := cspref.Traces(sem, q, lawBound)
	if err != nil {
		t.Fatalf("traces of %s: %v", q.Key(), err)
	}
	okPQ, _ := tp.SubsetOf(tq)
	okQP, _ := tq.SubsetOf(tp)
	return okPQ && okQP
}

func lawCheck(t *testing.T, law func(p, q, r csp.Process) (csp.Process, csp.Process)) {
	t.Helper()
	sem := csp.NewSemantics(csp.NewEnv(), lawContext())
	prop := func(seed uint64) bool {
		p := genProcess(seed, 2)
		q := genProcess(seed/5+2, 2)
		r := genProcess(seed/11+3, 2)
		lhs, rhs := law(p, q, r)
		return sameTraces(t, sem, lhs, rhs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLawExtChoiceCommutative(t *testing.T) {
	lawCheck(t, func(p, q, _ csp.Process) (csp.Process, csp.Process) {
		return csp.ExtChoice(p, q), csp.ExtChoice(q, p)
	})
}

func TestLawExtChoiceAssociative(t *testing.T) {
	lawCheck(t, func(p, q, r csp.Process) (csp.Process, csp.Process) {
		return csp.ExtChoice(csp.ExtChoice(p, q), r), csp.ExtChoice(p, csp.ExtChoice(q, r))
	})
}

func TestLawExtChoiceIdempotentTraces(t *testing.T) {
	lawCheck(t, func(p, _, _ csp.Process) (csp.Process, csp.Process) {
		return csp.ExtChoice(p, p), p
	})
}

func TestLawExtChoiceUnitStop(t *testing.T) {
	lawCheck(t, func(p, _, _ csp.Process) (csp.Process, csp.Process) {
		return csp.ExtChoice(p, csp.Stop()), p
	})
}

func TestLawIntChoiceEqualsExtChoiceInTraces(t *testing.T) {
	// In the traces model (only), P |~| Q and P [] Q are
	// indistinguishable: traces(P |~| Q) = traces(P) ∪ traces(Q).
	lawCheck(t, func(p, q, _ csp.Process) (csp.Process, csp.Process) {
		return csp.IntChoice(p, q), csp.ExtChoice(p, q)
	})
}

func TestLawInterleaveCommutative(t *testing.T) {
	lawCheck(t, func(p, q, _ csp.Process) (csp.Process, csp.Process) {
		return csp.Interleave(p, q), csp.Interleave(q, p)
	})
}

func TestLawParallelCommutative(t *testing.T) {
	sync := csp.Events(csp.Ev("a"), csp.Ev("b"))
	lawCheck(t, func(p, q, _ csp.Process) (csp.Process, csp.Process) {
		return csp.Par(p, sync, q), csp.Par(q, sync, p)
	})
}

func TestLawSeqUnitSkip(t *testing.T) {
	lawCheck(t, func(p, _, _ csp.Process) (csp.Process, csp.Process) {
		return csp.Seq(csp.Skip(), p), p
	})
}

func TestLawSeqStopAnnihilates(t *testing.T) {
	// STOP ; P never reaches P: traces(STOP;P) = {<>}.
	lawCheck(t, func(p, _, _ csp.Process) (csp.Process, csp.Process) {
		return csp.Seq(csp.Stop(), p), csp.Stop()
	})
}

func TestLawPrefixDistributesOverIntChoiceTraces(t *testing.T) {
	// a -> (P |~| Q) =T (a -> P) |~| (a -> Q).
	lawCheck(t, func(p, q, _ csp.Process) (csp.Process, csp.Process) {
		return csp.DoEvent("a", csp.IntChoice(p, q)),
			csp.IntChoice(csp.DoEvent("a", p), csp.DoEvent("a", q))
	})
}

func TestLawHideNothingIsIdentity(t *testing.T) {
	empty := csp.NewEventSet()
	lawCheck(t, func(p, _, _ csp.Process) (csp.Process, csp.Process) {
		return csp.Hide(p, empty), p
	})
}

func TestLawHideComposition(t *testing.T) {
	// (P \ A) \ B =T P \ (A ∪ B).
	setA := csp.Events(csp.Ev("a"))
	setB := csp.Events(csp.Ev("b"))
	union := setA.Union(setB)
	lawCheck(t, func(p, _, _ csp.Process) (csp.Process, csp.Process) {
		return csp.Hide(csp.Hide(p, setA), setB), csp.Hide(p, union)
	})
}

func TestLawTraceSetsPrefixClosed(t *testing.T) {
	// For every generated process, the bounded trace set is prefix
	// closed (the defining invariant of traces(P) in section IV-A).
	sem := csp.NewSemantics(csp.NewEnv(), lawContext())
	prop := func(seed uint64) bool {
		p := genProcess(seed, 3)
		ts, err := cspref.Traces(sem, p, lawBound)
		if err != nil {
			t.Fatalf("traces: %v", err)
		}
		for _, tr := range ts.Slice() {
			if len(tr) == 0 {
				continue
			}
			if !ts.Contains(tr[:len(tr)-1]) {
				return false
			}
		}
		return ts.Contains(csp.Trace{})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestLawTickIsAlwaysFinal(t *testing.T) {
	// Tick only appears as the last event of a trace.
	sem := csp.NewSemantics(csp.NewEnv(), lawContext())
	prop := func(seed uint64) bool {
		p := genProcess(seed, 3)
		ts, err := cspref.Traces(sem, p, lawBound)
		if err != nil {
			t.Fatalf("traces: %v", err)
		}
		for _, tr := range ts.Slice() {
			for i, ev := range tr {
				if ev.IsTick() && i != len(tr)-1 {
					return false
				}
				if ev.IsTau() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestLawRenamingBijective(t *testing.T) {
	// Renaming a->b then b->a over processes that do not use b is the
	// identity.
	mapAB := map[string]string{"a": "b"}
	mapBA := map[string]string{"b": "a"}
	sem := csp.NewSemantics(csp.NewEnv(), lawContext())
	prop := func(seed uint64) bool {
		p := genProcess(seed, 2)
		// Filter: regenerate trace sets and check the law only when b is
		// unused by p (renaming is not injective otherwise).
		tp, err := cspref.Traces(sem, p, lawBound)
		if err != nil {
			t.Fatalf("traces: %v", err)
		}
		for _, tr := range tp.Slice() {
			for _, ev := range tr {
				if ev.Chan == "b" {
					return true // vacuously pass
				}
			}
		}
		return sameTraces(t, sem, csp.Rename(csp.Rename(p, mapAB), mapBA), p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLawSubstitutionIdempotentOnClosed(t *testing.T) {
	// Generated processes are closed, so substitution is the identity.
	prop := func(seed uint64) bool {
		p := genProcess(seed, 3)
		return p.Subst("x", csp.Int(1)).Key() == p.Key()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
