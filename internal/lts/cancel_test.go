package lts

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/csp"
	"repro/internal/leakcheck"
)

// countSem builds a semantics with one counting process C(n) stepping
// count!n for n in [0, hi) — a chain of hi+1 states, handy for bounded
// and cancelled explorations.
func countSem(t *testing.T, hi int) (*csp.Semantics, csp.Process) {
	t.Helper()
	ctx := csp.NewContext()
	ctx.MustChannel("count", csp.IntRange{Lo: 0, Hi: hi})
	env := csp.NewEnv()
	env.MustDefine("C", []string{"n"},
		csp.Guard(csp.Binary{Op: csp.OpLt, L: csp.V("n"), R: csp.LitInt(hi)},
			csp.Prefix("count", []csp.CommField{csp.Out(csp.V("n"))},
				csp.Call("C", csp.Binary{Op: csp.OpAdd, L: csp.V("n"), R: csp.LitInt(1)}))))
	return csp.NewSemantics(env, ctx), csp.Call("C", csp.LitInt(0))
}

func TestExplorePreCancelledContext(t *testing.T) {
	leakcheck.Check(t)
	sem, p := countSem(t, 1000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Explore(sem, p, Options{Ctx: ctx})
	if err == nil {
		t.Fatal("explore with a cancelled context succeeded")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *CanceledError", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err %v does not match context.Canceled", err)
	}
	// A pre-cancelled context must be observed before the root is
	// expanded.
	if ce.Explored != 1 {
		t.Errorf("explored %d states before noticing cancellation, want 1", ce.Explored)
	}
}

// TestExploreCancelMidExplore cancels at randomized points while the
// exploration runs and verifies the abort is cooperative: a
// *CanceledError wrapping context.Canceled, never a hang or a leaked
// goroutine.
func TestExploreCancelMidExplore(t *testing.T) {
	leakcheck.Check(t)
	sem, p := countSem(t, 200000)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(after time.Duration) {
			time.Sleep(after)
			cancel()
		}(time.Duration(rng.Intn(2000)) * time.Microsecond)
		_, err := Explore(sem, p, Options{Ctx: ctx, MaxStates: 1 << 20})
		cancel()
		if err == nil {
			// The exploration won the race — only plausible for the very
			// shortest delays, and not an error.
			continue
		}
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("trial %d: err = %T %v, want *CanceledError", trial, err, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("trial %d: err %v does not match context.Canceled", trial, err)
		}
	}
}

// TestExploreDeadlineInsideLevel pins the deadline-granularity fix: an
// already-expired MaxDuration must abort before the first expansion.
// Once the clock was only probed every 256 states, so a smaller model
// explored to completion and returned success despite the deadline.
func TestExploreDeadlineInsideLevel(t *testing.T) {
	leakcheck.Check(t)
	sem, p := countSem(t, 100)
	_, err := Explore(sem, p, Options{MaxDuration: time.Nanosecond})
	if err == nil {
		t.Fatal("exploration with an expired deadline returned success")
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %T %v, want *DeadlineError", err, err)
	}
	if de.Explored != 1 {
		t.Errorf("explored %d states past an expired deadline, want 1", de.Explored)
	}
}

// TestExploreDeadlineMidLevel does the same on a model too large to
// finish within the budget: the per-state probe must abort mid-run.
func TestExploreDeadlineMidLevel(t *testing.T) {
	leakcheck.Check(t)
	sem, p := countSem(t, 100000)
	_, err := Explore(sem, p, Options{MaxDuration: time.Millisecond})
	if err == nil {
		t.Skip("machine explored 100k states in under a millisecond")
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("err = %T %v, want *DeadlineError", err, err)
	}
}

// TestExploreUncancelledContextIsByteIdentical pins graceful
// degradation to zero: threading a live context through an exploration
// must not change the result at all relative to the no-context batch
// path.
func TestExploreUncancelledContextIsByteIdentical(t *testing.T) {
	sem, p := countSem(t, 500)
	plain, err := Explore(sem, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sem2, p2 := countSem(t, 500)
	withCtx, err := Explore(sem2, p2, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.NumStates() != withCtx.NumStates() {
		t.Fatalf("state counts diverge: %d vs %d", plain.NumStates(), withCtx.NumStates())
	}
	for i := 0; i < plain.NumStates(); i++ {
		if plain.Key(i) != withCtx.Key(i) {
			t.Fatalf("state %d diverges: %q vs %q", i, plain.Key(i), withCtx.Key(i))
		}
		if len(plain.Edges[i]) != len(withCtx.Edges[i]) {
			t.Fatalf("edge counts at state %d diverge", i)
		}
		for j := range plain.Edges[i] {
			pe, ce := plain.Edges[i][j], withCtx.Edges[i][j]
			if pe.To != ce.To || plain.Events[pe.Ev].String() != withCtx.Events[ce.Ev].String() {
				t.Fatalf("edge %d/%d diverges: %+v vs %+v", i, j, pe, ce)
			}
		}
	}
}

// TestCacheCancelledFlightIsEvicted pins the no-poisoning contract: a
// cancelled single-flight exploration must be evicted so a retry
// recomputes instead of replaying the stale cancellation forever.
func TestCacheCancelledFlightIsEvicted(t *testing.T) {
	leakcheck.Check(t)
	sem, p := countSem(t, 1000)
	c := NewCache()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Explore(sem, p, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Len() != 0 {
		t.Fatalf("cancelled flight left %d cache entries", c.Len())
	}
	// The retry must recompute (a miss, not a poisoned hit) and succeed.
	l, err := c.Explore(sem, p, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if l.NumStates() != 1001 {
		t.Errorf("retry explored %d states, want 1001", l.NumStates())
	}
	if _, misses := c.Stats(); misses != 2 {
		t.Errorf("misses = %d, want 2 (cancelled flight forgotten)", misses)
	}
}
