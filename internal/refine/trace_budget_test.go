package refine

import (
	"errors"
	"testing"
	"time"

	"repro/internal/csp"
)

// TestAcceptsTraceDeadlineFiresInVisibleExpansion pins the deadline
// probe in the visible-event expansion loop. bigCounter is tau-free, so
// the closure helper pops exactly one entry per trace event; before the
// fix the probe counter advanced only there and a 600-event trace never
// reached the stopCheckInterval-th probe, silently ignoring
// MaxDuration. With the expansion loop probing too, the counter crosses
// the interval mid-expansion and the check degrades into the documented
// *BudgetError instead of running to completion. This mirrors the PR 6
// sub-256-state deadline-granularity fix in lts.
func TestAcceptsTraceDeadlineFiresInVisibleExpansion(t *testing.T) {
	ctx, env := otaContext(t)
	impl := bigCounter(t, ctx, env)
	c := NewChecker(env, ctx)
	c.MaxDuration = time.Nanosecond

	long := make(csp.Trace, 0, 600)
	for i := 0; i < 600; i++ {
		long = append(long, csp.Event{Chan: "count", Args: []csp.Value{csp.Int(i)}})
	}
	_, err := c.AcceptsTrace(impl, long)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a *BudgetError (deadline ignored by the visible loop)", err)
	}
	if be.Phase != "trace-deadline" {
		t.Errorf("phase = %q, want trace-deadline", be.Phase)
	}
}

// TestAcceptsTraceStateBudgetChargedAtIntern pins the bound semantics of
// MaxStates: terms reached in a visible step are charged when first
// interned, so a single wide expansion cannot materialize more than
// MaxStates+1 distinct terms and Explored reports exactly the point the
// budget tripped — the same exact-bound contract lts.Explore keeps.
func TestAcceptsTraceStateBudgetChargedAtIntern(t *testing.T) {
	ctx, env := otaContext(t)
	ctx.MustChannel("hop", csp.IntRange{Lo: 0, Hi: 64})
	env.MustDefine("K", []string{"n"},
		csp.Prefix("hop", []csp.CommField{csp.Out(csp.V("n"))}, csp.StopProc{}))
	// WIDE offers the same event hop.0 into twelve distinct continuations:
	// one visible step interns twelve fresh terms at once.
	var branches []csp.Process
	for i := 0; i < 12; i++ {
		branches = append(branches,
			csp.Prefix("hop", []csp.CommField{csp.Out(csp.LitInt(0))}, csp.Call("K", csp.LitInt(i))))
	}
	env.MustDefine("WIDE", nil, csp.ExtChoice(branches...))

	c := NewChecker(env, ctx)
	c.MaxStates = 5
	_, err := c.AcceptsTrace(csp.Call("WIDE"), csp.Trace{{Chan: "hop", Args: []csp.Value{csp.Int(0)}}})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("error %v is not a *BudgetError", err)
	}
	if be.Phase != "trace" {
		t.Errorf("phase = %q, want trace", be.Phase)
	}
	if be.Explored != c.MaxStates+1 {
		t.Errorf("Explored = %d, want exactly MaxStates+1 = %d", be.Explored, c.MaxStates+1)
	}
	if be.Limit != c.MaxStates {
		t.Errorf("Limit = %d, want %d", be.Limit, c.MaxStates)
	}
}
