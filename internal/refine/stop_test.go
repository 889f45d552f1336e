package refine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/csp"
	"repro/internal/leakcheck"
	"repro/internal/lts"
)

// countTrace is count.0, count.1, …, count.(n-1): a trace of BIG(0).
func countTrace(n int) csp.Trace {
	t := make(csp.Trace, n)
	for i := range t {
		t[i] = csp.Event{Chan: "count", Args: []csp.Value{csp.Int(i)}}
	}
	return t
}

// TestAcceptsTraceHonoursCancel pins that the trace walk polls the
// checker's context like the explorations and the product search do:
// once it only polled the wall clock, and a cancelled check walked the
// whole trace to an Accepted verdict.
func TestAcceptsTraceHonoursCancel(t *testing.T) {
	ctx, env := otaContext(t)
	impl := bigCounter(t, ctx, env)
	c := NewChecker(env, ctx)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.Ctx = cctx
	res, err := c.AcceptsTrace(impl, countTrace(3000))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("AcceptsTrace under a cancelled context = %+v, %v; want context.Canceled", res, err)
	}
	var be *BudgetError
	if errors.As(err, &be) {
		t.Errorf("cancellation reported as budget exhaustion: %v", err)
	}
}

// gateCtx holds the first Err call until release is closed, then reports
// the wrapped context's state: an exploration polling it stays in
// flight, at its first probe, for as long as the test needs.
type gateCtx struct {
	context.Context
	once             sync.Once
	reached, release chan struct{}
}

func (g *gateCtx) Err() error {
	g.once.Do(func() {
		close(g.reached)
		<-g.release
	})
	return g.Context.Err()
}

// TestStopSignal drives the one stop signal through every loop that
// polls it. An expired MaxDuration is a "<phase>-deadline" *BudgetError
// with a partial size; a cancelled Ctx, or a Ctx whose own deadline
// passed, is a cancellation matching the context's error and never a
// budget verdict.
func TestStopSignal(t *testing.T) {
	leakcheck.Check(t)
	type row struct {
		name, phase string
		run         func(t *testing.T, b Budget) error
	}
	rows := []row{
		{"explore", "explore", func(t *testing.T, b Budget) error {
			ctx, env := otaContext(t)
			impl := bigCounter(t, ctx, env)
			c := &Checker{Sem: csp.NewSemantics(env, ctx), Budget: b}
			_, err := c.DeadlockFree(impl)
			return err
		}},
		{"product", "product", func(t *testing.T, b Budget) error {
			// Both LTSs and the normalisation come from a warmed cache,
			// so the product search is the only loop left to poll.
			env, ctx, spec, impl := bigSystem(t, 5000)
			b.Cache = lts.NewCache()
			warm := &Checker{Sem: csp.NewSemantics(env, ctx), Budget: Budget{Cache: b.Cache}}
			if _, err := warm.RefinesTraces(spec, impl); err != nil {
				t.Fatal(err)
			}
			c := &Checker{Sem: warm.Sem, Budget: b}
			_, err := c.RefinesTraces(spec, impl)
			return err
		}},
		{"trace", "trace", func(t *testing.T, b Budget) error {
			ctx, env := otaContext(t)
			impl := bigCounter(t, ctx, env)
			c := &Checker{Sem: csp.NewSemantics(env, ctx), Budget: b}
			_, err := c.AcceptsTrace(impl, countTrace(3000))
			return err
		}},
		{"coalesced-joiner", "explore", func(t *testing.T, b Budget) error {
			// The leader's flight stops on the same signal the joiner's
			// own budget derives; the joiner must read the shared
			// failure through its own budget.
			ctx, env := otaContext(t)
			impl := bigCounter(t, ctx, env)
			sem := csp.NewSemantics(env, ctx)
			b.Cache = lts.NewCache()
			stop, cancel := (&Checker{Budget: b}).stopSignal()
			defer cancel()
			gate := &gateCtx{Context: stop, reached: make(chan struct{}), release: make(chan struct{})}
			leaderDone := make(chan struct{})
			go func() {
				defer close(leaderDone)
				b.Cache.Explore(sem, impl, lts.Options{Ctx: gate})
			}()
			<-gate.reached
			joined := make(chan error, 1)
			go func() {
				_, err := (&Checker{Sem: sem, Budget: b}).DeadlockFree(impl)
				joined <- err
			}()
			// Nothing outside the cache can see the joiner wait on the
			// flight; give it ample time to look the entry up.
			time.Sleep(50 * time.Millisecond)
			close(gate.release)
			<-leaderDone
			err := <-joined
			if st := b.Cache.StatsAll(); st.Coalesces != 1 {
				t.Errorf("joiner did not coalesce: %+v", st)
			}
			return err
		}},
	}
	cases := []struct {
		name   string
		budget func(t *testing.T) Budget
		check  func(t *testing.T, phase string, err error)
	}{
		{"expired-budget", func(*testing.T) Budget {
			return Budget{MaxDuration: time.Nanosecond}
		}, func(t *testing.T, phase string, err error) {
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v, want a *BudgetError", err)
			}
			if be.Phase != phase+"-deadline" || be.Explored <= 0 {
				t.Errorf("budget error = %+v, want phase %s-deadline with Explored > 0", be, phase)
			}
		}},
		{"cancelled-parent", func(*testing.T) Budget {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return Budget{Ctx: ctx, MaxDuration: time.Hour}
		}, func(t *testing.T, _ string, err error) {
			var be *BudgetError
			if !errors.Is(err, context.Canceled) || errors.As(err, &be) {
				t.Errorf("err = %v, want context.Canceled and no *BudgetError", err)
			}
		}},
		{"parent-deadline", func(t *testing.T) Budget {
			ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			t.Cleanup(cancel)
			return Budget{Ctx: ctx}
		}, func(t *testing.T, _ string, err error) {
			var be *BudgetError
			if !errors.Is(err, context.DeadlineExceeded) || errors.As(err, &be) {
				t.Errorf("err = %v, want context.DeadlineExceeded and no *BudgetError", err)
			}
		}},
	}
	for _, r := range rows {
		for _, tc := range cases {
			t.Run(r.name+"/"+tc.name, func(t *testing.T) {
				tc.check(t, r.phase, r.run(t, tc.budget(t)))
			})
		}
	}
}
