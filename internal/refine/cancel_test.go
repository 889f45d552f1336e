package refine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/csp"
	"repro/internal/leakcheck"
)

// bigSystem defines a counting implementation with `states` states and
// a permissive one-event spec, so refinement checks have room to be
// interrupted.
func bigSystem(t *testing.T, states int) (*csp.Env, *csp.Context, csp.Process, csp.Process) {
	t.Helper()
	ctx := csp.NewContext()
	ctx.MustChannel("tick", csp.IntRange{Lo: 0, Hi: states})
	env := csp.NewEnv()
	env.MustDefine("IMPL", []string{"n"},
		csp.Guard(csp.Binary{Op: csp.OpLt, L: csp.V("n"), R: csp.LitInt(states)},
			csp.Prefix("tick", []csp.CommField{csp.Out(csp.V("n"))},
				csp.Call("IMPL", csp.Binary{Op: csp.OpAdd, L: csp.V("n"), R: csp.LitInt(1)}))))
	env.MustDefine("SPEC", nil,
		csp.Prefix("tick", []csp.CommField{csp.In("x")}, csp.Call("SPEC")))
	return env, ctx, csp.Call("SPEC"), csp.Call("IMPL", csp.LitInt(0))
}

func TestCheckerPreCancelledContext(t *testing.T) {
	leakcheck.Check(t)
	env, ctx, spec, impl := bigSystem(t, 5000)
	c := NewChecker(env, ctx)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Ctx = cctx
	_, err := c.RefinesTraces(spec, impl)
	if err == nil {
		t.Fatal("check with a cancelled context succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled under errors.Is", err)
	}
}

// TestCheckerCancelMidCheck cancels at randomized points during live
// refinement checks; every outcome must be either a clean result (the
// check won the race) or an error matching the context cause, with no
// goroutine left behind.
func TestCheckerCancelMidCheck(t *testing.T) {
	leakcheck.Check(t)
	env, ctx, spec, impl := bigSystem(t, 100000)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 6; trial++ {
		c := NewChecker(env, ctx)
		c.MaxStates = 1 << 20
		cctx, cancel := context.WithTimeout(context.Background(),
			time.Duration(50+rng.Intn(3000))*time.Microsecond)
		c.Ctx = cctx
		_, err := c.RefinesTraces(spec, impl)
		cancel()
		if err == nil {
			continue // completed before the deadline: legal
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("trial %d: err = %v, want context.DeadlineExceeded", trial, err)
		}
	}
}

// TestCheckerUncancelledContextSameResult pins that a live context
// changes nothing about the verdict.
func TestCheckerUncancelledContextSameResult(t *testing.T) {
	env, ctx, spec, impl := bigSystem(t, 500)
	plain := NewChecker(env, ctx)
	res1, err := plain.RefinesTraces(spec, impl)
	if err != nil {
		t.Fatal(err)
	}
	withCtx := NewChecker(env, ctx)
	withCtx.Ctx = context.Background()
	res2, err := withCtx.RefinesTraces(spec, impl)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Holds != res2.Holds || res1.ImplStates != res2.ImplStates ||
		res1.SpecNodes != res2.SpecNodes || res1.ProductStates != res2.ProductStates ||
		fmt.Sprint(res1.Counterexample) != fmt.Sprint(res2.Counterexample) {
		t.Fatalf("results diverge with a live context:\n%+v\n%+v", res1, res2)
	}
}

// TestCheckerCancelProductSearch drives the cancellation into the
// product-automaton phase: both LTSs are explored in advance through
// the checker's cache, then the context is cancelled, so the only
// cooperative abort point left is the product search itself.
func TestCheckerCancelProductSearch(t *testing.T) {
	leakcheck.Check(t)
	env, ctx, spec, impl := bigSystem(t, 20000)
	c := NewChecker(env, ctx)
	c.MaxStates = 1 << 20
	cctx, cancel := context.WithCancel(context.Background())
	c.Ctx = cctx
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	_, err := c.RefinesTraces(spec, impl)
	cancel()
	if err == nil {
		t.Skip("check completed before the cancel fired")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
