package refine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/csp"
	"repro/internal/csp/cspgen"
	"repro/internal/lts"
	"repro/internal/refine"
)

// boundedTraces lists the leaves of l's trace tree cut at depth: every
// trace of at most depth visible events and ticks that no longer trace
// extends within the bound. Traces are prefix-closed, so a process
// accepts all of l's traces up to depth iff it accepts these.
func boundedTraces(l *lts.LTS, depth int) []csp.Trace {
	var out []csp.Trace
	var walk func(states []int, tr csp.Trace)
	walk = func(states []int, tr csp.Trace) {
		next := map[int][]int{}
		var order []int
		if len(tr) < depth {
			for _, s := range states {
				for _, e := range l.Edges[s] {
					if e.Ev == lts.TauID {
						continue
					}
					if _, ok := next[e.Ev]; !ok {
						order = append(order, e.Ev)
					}
					next[e.Ev] = append(next[e.Ev], e.To)
				}
			}
		}
		if len(order) == 0 {
			out = append(out, append(csp.Trace(nil), tr...))
			return
		}
		for _, ev := range order {
			walk(l.TauClosure(next[ev]), append(tr, l.EventByID(ev)))
		}
	}
	walk(l.TauClosure([]int{l.Init}), nil)
	return out
}

// unspell maps a trace of a Punned twin spelled "s" back onto the
// punned system: the symbol s0 becomes 0, which renders like Int(0).
func unspell(tr csp.Trace) csp.Trace {
	out := make(csp.Trace, len(tr))
	for i, ev := range tr {
		args := make([]csp.Value, len(ev.Args))
		for j, a := range ev.Args {
			if s, ok := a.(csp.Sym); ok {
				a = csp.Sym(strings.TrimPrefix(string(s), "s"))
			}
			args[j] = a
		}
		out[i] = csp.Event{Chan: ev.Chan, Args: args}
	}
	return out
}

// TestPunnedRefinementCrossOracle is the generated cross-oracle of event
// identity. Each seed gives a refinement question whose channel p
// carries Int and Sym values that render alike (cspgen.Punned), and its
// twin, the same question with no two values rendering alike. Identity
// makes the two isomorphic, so:
//   - both give the same trace-refinement verdict, with counterexamples
//     of the same length;
//   - every bounded trace of the twin's implementation, mapped back, is
//     a trace of the punned implementation;
//   - RefinesTraces(spec, impl) holds iff AcceptsTrace(spec, ·) accepts
//     every one of those traces (for a failing check whose
//     counterexample fits within the bound).
//
// A rule that confuses renderings anywhere — a set, a type, a hiding or
// sync set, the product search — breaks one of these on some seed.
func TestPunnedRefinementCrossOracle(t *testing.T) {
	const seeds, depth, bound = 320, 4, 4000
	var holds, fails, skipped int
	for seed := int64(0); seed < seeds; seed++ {
		sem, spec, impl := cspgen.Punned(seed, "")
		tsem, tspec, timpl := cspgen.Punned(seed, "s")
		label := fmt.Sprintf("seed %d: %s [T= %s", seed, spec.Key(), impl.Key())
		c := refine.NewChecker(sem.Env, sem.Ctx)
		c.MaxStates = bound
		tc := refine.NewChecker(tsem.Env, tsem.Ctx)
		tc.MaxStates = bound
		res, err := c.RefinesTraces(spec, impl)
		tres, terr := tc.RefinesTraces(tspec, timpl)
		if (err == nil) != (terr == nil) {
			t.Fatalf("%s: error %v, twin error %v", label, err, terr)
		}
		if err != nil {
			skipped++
			continue
		}
		if res.Holds != tres.Holds || len(res.Counterexample) != len(tres.Counterexample) {
			t.Fatalf("%s: holds=%v counterexample %s, twin holds=%v counterexample %s",
				label, res.Holds, res.Counterexample, tres.Holds, tres.Counterexample)
		}
		if !res.Holds && len(res.Counterexample) > depth {
			skipped++
			continue
		}
		l, err := lts.Explore(tsem, timpl, lts.Options{MaxStates: bound})
		if err != nil {
			t.Fatalf("%s: twin implementation: %v", label, err)
		}
		all := true
		for _, twinTrace := range boundedTraces(l, depth) {
			tr := unspell(twinTrace)
			got, err := c.AcceptsTrace(impl, tr)
			if err != nil || !got.Accepted {
				t.Fatalf("%s: implementation rejects its twin's trace %s: %+v, %v", label, tr, got, err)
			}
			got, err = c.AcceptsTrace(spec, tr)
			if err != nil {
				t.Fatalf("%s: specification on %s: %v", label, tr, err)
			}
			all = all && got.Accepted
		}
		if all != res.Holds {
			t.Fatalf("%s: RefinesTraces holds=%v (counterexample %s), but the specification accepts every bounded implementation trace: %v",
				label, res.Holds, res.Counterexample, all)
		}
		if res.Holds {
			holds++
		} else {
			fails++
		}
	}
	if holds+fails < 200 || holds < 40 || fails < 40 {
		t.Fatalf("%d hold, %d fail, %d skipped: corpus too small or one-sided", holds, fails, skipped)
	}
	t.Logf("%d hold, %d fail, %d skipped", holds, fails, skipped)
}
