package lts

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/csp"
	"repro/internal/leakcheck"
	"repro/internal/obs"
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

// budgetCtx is a wall-clock budget of d as a caller states one: a
// context deadline with cause ErrDeadline.
func budgetCtx(t *testing.T, d time.Duration) context.Context {
	ctx, cancel := context.WithTimeoutCause(context.Background(), d, ErrDeadline)
	t.Cleanup(cancel)
	return ctx
}

// TestExploreDeadlineInsideLevel pins the deadline-granularity fix: an
// already-expired wall-clock budget must abort before the first
// expansion. Once the clock was only probed every 256 states, so a
// smaller model explored to completion and returned success despite the
// deadline.
func TestExploreDeadlineInsideLevel(t *testing.T) {
	leakcheck.Check(t)
	sem, p := countSem(t, 100)
	_, err := Explore(sem, p, Options{Ctx: budgetCtx(t, time.Nanosecond)})
	if err == nil {
		t.Fatal("exploration with an expired deadline returned success")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %T %v, want *CanceledError with cause ErrDeadline", err, err)
	}
	if ce.Explored != 1 {
		t.Errorf("explored %d states past an expired deadline, want 1", ce.Explored)
	}
}

// TestExploreDeadlineMidLevel does the same on a model too large to
// finish within the budget: the per-state probe must abort mid-run.
func TestExploreDeadlineMidLevel(t *testing.T) {
	leakcheck.Check(t)
	sem, p := countSem(t, 100000)
	_, err := Explore(sem, p, Options{Ctx: budgetCtx(t, time.Millisecond)})
	if err == nil {
		t.Skip("machine explored 100k states in under a millisecond")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %T %v, want *CanceledError with cause ErrDeadline", err, err)
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// (n+1)th call on: Explore probes it before every expansion, so it
// interrupts the exploration after n expansions.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestResumeCountsSpentTimeAgainstDeadline pins the elapsed-time
// carryover: a resume shortens the context deadline by the time its
// snapshot already spent, so a snapshot that spent more than the budget
// stops with cause ErrDeadline before its first expansion, and one that
// spent less resumes to completion.
func TestResumeCountsSpentTimeAgainstDeadline(t *testing.T) {
	leakcheck.Check(t)
	sem, p := countSem(t, 100)
	dir := t.TempDir()
	ck := &CheckpointOptions{Dir: dir}
	if _, err := Explore(sem, p, Options{Ctx: &cancelAfter{Context: context.Background(), n: 10}, Checkpoint: ck}); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted explore: err = %v, want context.Canceled", err)
	}
	// spend rewrites the snapshot as if it had already spent d.
	path := filepath.Join(dir, checkpointFile)
	spend := func(d time.Duration) *snapshot {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		snap.ElapsedNs = int64(d)
		if snap.Digest, err = snap.digest(); err != nil {
			t.Fatal(err)
		}
		if data, err = json.Marshal(&snap); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return &snap
	}

	snap := spend(time.Hour)
	o := obs.New()
	_, err := Explore(sem, p, Options{Ctx: budgetCtx(t, time.Minute), Checkpoint: ck, Obs: o})
	var ce *CanceledError
	if !errors.As(err, &ce) || !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %T %v, want *CanceledError with cause ErrDeadline", err, err)
	}
	if o.Counter("lts.checkpoint.resumes").Value() != 1 {
		t.Fatal("the snapshot was not resumed")
	}
	if ce.Explored != len(snap.States) {
		t.Errorf("explored %d states, want the snapshot's %d: an expansion ran past the carried-over deadline",
			ce.Explored, len(snap.States))
	}

	spend(time.Second)
	l, err := Explore(sem, p, Options{Ctx: budgetCtx(t, time.Minute), Checkpoint: ck})
	if err != nil {
		t.Fatalf("resume within budget: %v", err)
	}
	if l.NumStates() != 101 {
		t.Errorf("resume within budget explored %d states, want 101", l.NumStates())
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
