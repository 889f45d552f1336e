// Differential tests of AcceptsTrace, which walks the compiled semantics,
// against AcceptsTraceReference, the frozen Key()-string check it
// replaced. Every field of the result — Accepted, FailedAt, BadEvent,
// Allowed, States — and every error must agree. The corpora are the OTA
// observed models with the projected traces of conformance soak
// schedules, and cspgen's generated systems with random walks and walks
// with one event inserted, deleted or swapped.
package refine_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/campaign"
	"repro/internal/canbus"
	"repro/internal/conformance"
	"repro/internal/csp"
	"repro/internal/csp/cspgen"
	"repro/internal/csp/cspref"
	"repro/internal/obs"
	"repro/internal/ota"
	"repro/internal/refine"
)

// sameEvent is csp.Event.Equal plus an identical rendering.
func sameEvent(a, b csp.Event) bool { return a.Equal(b) && a.String() == b.String() }

// checkAgainstReference runs both checks on one trace and fails unless
// they agree exactly. It returns the compiled check's result.
func checkAgainstReference(t *testing.T, label string, c *refine.Checker, p csp.Process, tr csp.Trace) (refine.TraceCheck, error) {
	t.Helper()
	ref, refErr := c.AcceptsTraceReference(p, tr)
	got, err := c.AcceptsTrace(p, tr)
	if refErr != nil || err != nil {
		if refErr == nil || err == nil || refErr.Error() != err.Error() {
			t.Fatalf("%s: error %v, reference error %v", label, err, refErr)
		}
		return got, err
	}
	if got.Accepted != ref.Accepted || got.FailedAt != ref.FailedAt || got.States != ref.States {
		t.Fatalf("%s: accepted=%v failedAt=%d states=%d, reference accepted=%v failedAt=%d states=%d",
			label, got.Accepted, got.FailedAt, got.States, ref.Accepted, ref.FailedAt, ref.States)
	}
	if (got.BadEvent == nil) != (ref.BadEvent == nil) || got.BadEvent != nil && !sameEvent(*got.BadEvent, *ref.BadEvent) {
		t.Fatalf("%s: BadEvent %v, reference %v", label, got.BadEvent, ref.BadEvent)
	}
	if len(got.Allowed) != len(ref.Allowed) {
		t.Fatalf("%s: Allowed %v, reference %v", label, got.Allowed, ref.Allowed)
	}
	for i := range got.Allowed {
		if !sameEvent(got.Allowed[i], ref.Allowed[i]) {
			t.Fatalf("%s: Allowed %v, reference %v", label, got.Allowed, ref.Allowed)
		}
	}
	return got, nil
}

// TestAcceptsTraceMatchesReferenceOnSoakSchedules replays the schedules
// of `soak -seed 42 -n 1 -horizon-ms 12` plus the benchmark's duplicated
// hardened frame, and checks each projected trace, and the trace with
// two middle events swapped, against the observed model the soak judges
// it by.
func TestAcceptsTraceMatchesReferenceOnSoakSchedules(t *testing.T) {
	r, err := conformance.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	gen := conformance.GenConfig{Horizon: 12 * canbus.Millisecond}
	var schedules []conformance.Schedule
	for i, v := range conformance.Variants {
		schedules = append(schedules, conformance.GenerateSchedule(v, campaign.Seed(42, i), gen))
	}
	schedules = append(schedules, dupFrameSchedule)
	diverged := 0
	for _, s := range schedules {
		trace, sys, err := r.Observe(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		c := refine.NewChecker(sys.Model.Env, sys.Model.Ctx)
		root := csp.Call(ota.ObservedProcess)
		res, err := checkAgainstReference(t, s.String(), c, root, trace)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !res.Accepted {
			diverged++
		}
		if mid := len(trace) / 2; mid > 0 {
			swapped := append(csp.Trace(nil), trace...)
			swapped[mid-1], swapped[mid] = swapped[mid], swapped[mid-1]
			checkAgainstReference(t, s.String()+" swapped", c, root, swapped)
		}
	}
	if diverged == 0 {
		t.Error("no schedule diverged: the flawed variant's rejections went unchecked")
	}
}

// dupFrameSchedule duplicates the hardened VMG's second-round request,
// the costliest schedule class of the simulation benchmark.
var dupFrameSchedule = conformance.Schedule{
	Variant:   conformance.VariantHardened,
	HorizonUs: int64(12 * canbus.Millisecond),
	Ops:       []conformance.Op{{Kind: conformance.OpDupFrame, Nth: 4, DelayUs: 350}},
}

// insertable is the pool inserted events are drawn from: events of
// every cspgen channel, tick, and values outside the channel types.
var insertable = []csp.Event{
	csp.Ev("a"), csp.Ev("b"), csp.Ev("t"),
	csp.Ev("c", csp.Int(0)), csp.Ev("c", csp.Int(1)), csp.Ev("c", csp.Int(2)), csp.Ev("c", csp.Sym("1")),
	csp.Ev("d", csp.Int(0), csp.Int(2)), csp.Ev("d", csp.Int(1), csp.Int(0)), csp.Tick(),
}

// randomWalk follows random transitions from p, tau included, and
// returns the visible events of up to n steps.
func randomWalk(r *rand.Rand, sem *csp.Semantics, p csp.Process, n int) csp.Trace {
	var tr csp.Trace
	for step := 0; step < n; step++ {
		trs, err := cspref.Transitions(sem, p)
		if err != nil || len(trs) == 0 {
			break
		}
		pick := trs[r.Intn(len(trs))]
		if !pick.Ev.IsTau() {
			tr = append(tr, pick.Ev)
		}
		p = pick.To
	}
	return tr
}

// mutants returns the walk with one event inserted, one deleted and two
// adjacent ones swapped, where the walk is long enough.
func mutants(r *rand.Rand, walk csp.Trace) []csp.Trace {
	clone := func() csp.Trace { return append(csp.Trace(nil), walk...) }
	i := r.Intn(len(walk) + 1)
	ins := append(clone()[:i], append(csp.Trace{insertable[r.Intn(len(insertable))]}, walk[i:]...)...)
	out := []csp.Trace{ins}
	if len(walk) > 0 {
		i := r.Intn(len(walk))
		out = append(out, append(clone()[:i], walk[i+1:]...))
	}
	if len(walk) > 1 {
		i := r.Intn(len(walk) - 1)
		swapped := clone()
		swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
		out = append(out, swapped)
	}
	return out
}

// TestAcceptsTraceMatchesReferenceOnGeneratedSystems is the generated
// oracle: on every seed's system, a random walk (which both checks must
// accept, budget permitting) and its mutants must get the same answer
// from both checks. The state budget is small enough that some checks
// exhaust it, so the budget errors are compared too.
func TestAcceptsTraceMatchesReferenceOnGeneratedSystems(t *testing.T) {
	const seeds, walkLen, bound = 400, 12, 60
	var accepted, rejected, failed int
	for seed := int64(0); seed < seeds; seed++ {
		sem, root := cspgen.Model(seed)
		c := refine.NewChecker(sem.Env, sem.Ctx)
		c.MaxStates = bound
		r := rand.New(rand.NewSource(seed))
		walk := randomWalk(r, sem, root, walkLen)
		for i, tr := range append([]csp.Trace{walk}, mutants(r, walk)...) {
			label := fmt.Sprintf("seed %d trace %s (%s)", seed, tr, root.Key())
			res, err := checkAgainstReference(t, label, c, root, tr)
			switch {
			case err != nil:
				failed++
			case res.Accepted:
				accepted++
			default:
				if i == 0 {
					t.Fatalf("%s: a walk of the model rejected at %d", label, res.FailedAt)
				}
				rejected++
			}
		}
	}
	// Both verdicts and the budget error must all be exercised, or the
	// oracle would be comparing one kind of answer.
	if accepted < seeds || rejected < seeds/4 || failed == 0 {
		t.Fatalf("%d accepted, %d rejected, %d failed: corpus too one-sided", accepted, rejected, failed)
	}
	t.Logf("%d accepted, %d rejected, %d failed", accepted, rejected, failed)
}

// TestAcceptsTraceMatchesReferenceAcrossMemoReuse interleaves trace
// checks of different generated systems — 0, 1, 0, 2, 1, 3, … — so each
// check runs on a memo an earlier check of another system released.
// Every check must still agree with the reference, and the refine.trace
// spans must show that memos were reused.
func TestAcceptsTraceMatchesReferenceAcrossMemoReuse(t *testing.T) {
	const seeds, walkLen, bound = 120, 12, 60
	var order []int64
	for seed := int64(0); seed < seeds; seed++ {
		order = append(order, seed)
		if seed > 0 {
			order = append(order, seed-1)
		}
	}
	o := obs.New(obs.WithSpanRing(4 * len(order)))
	for i, seed := range order {
		sem, root := cspgen.Model(seed)
		c := refine.NewChecker(sem.Env, sem.Ctx)
		c.MaxStates = bound
		c.Obs = o
		r := rand.New(rand.NewSource(seed))
		walk := randomWalk(r, sem, root, walkLen)
		for _, tr := range append([]csp.Trace{walk}, mutants(r, walk)...) {
			checkAgainstReference(t, fmt.Sprintf("check %d: seed %d trace %s", i, seed, tr), c, root, tr)
		}
	}
	reused := 0
	for _, s := range o.Spans() {
		if s.Name == "refine.trace" && s.Attrs["memo.reused"] == true {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no trace check reused a released memo")
	}
}
