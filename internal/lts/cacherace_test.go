package lts

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestCacheEvictionRacesCancellation storms a cache with concurrent
// Explore calls — some completing, some cancelled mid-flight, some
// joining in-flight computations that then fail, some hitting finished
// entries — so failed flights are evicted while other goroutines look
// the same keys up. Each call draws one of 32 state bounds, all above
// the processes' size, so fresh keys (and fresh flights to cancel) keep
// arriving for the whole storm. Run under -race this pins the synchronisation of
// the single-flight error path; functionally it asserts no entry is
// ever poisoned: a cancelled flight must never be served to a later
// caller, and every post-storm lookup must return the reference result.
func TestCacheEvictionRacesCancellation(t *testing.T) {
	const nProcs = 6
	sem, procs := boundSem(t, nProcs, 64)

	refs := make([]*LTS, nProcs)
	for i, p := range procs {
		l, err := Explore(sem, p, Options{})
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		refs[i] = l
	}

	c := NewCache()

	const goroutines = 8
	const iters = 150
	const bounds = 32
	errCh := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < iters; i++ {
				pi := rng.Intn(nProcs)
				bound := 64 + rng.Intn(bounds)
				ctx := context.Context(context.Background())
				var cancel context.CancelFunc
				switch rng.Intn(3) {
				case 0:
					// Already dead: fails on the first poll.
					ctx, cancel = context.WithCancel(context.Background())
					cancel()
				case 1:
					// Dies mid-flight (or just after; both are legal).
					ctx, cancel = context.WithCancel(context.Background())
					timer := time.AfterFunc(time.Duration(rng.Intn(300))*time.Microsecond, cancel)
					defer timer.Stop()
				}
				l, err := c.Explore(sem, procs[pi], Options{MaxStates: bound, Ctx: ctx})
				if cancel != nil {
					cancel()
				}
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						errCh <- err
						return
					}
					continue
				}
				// A served result — fresh, coalesced or cached — must match
				// the reference exactly; a poisoned (partially explored)
				// entry shows up here as a size mismatch.
				if l.NumStates() != refs[pi].NumStates() || l.NumTransitions() != refs[pi].NumTransitions() {
					errCh <- errors.New("cache served a partial exploration")
					return
				}
			}
			errCh <- nil
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if err := <-errCh; err != nil {
			t.Fatalf("storm goroutine: %v", err)
		}
	}

	// Quiescent probe: every key of the storm must still be computable
	// through the cache and byte-identical to the reference — no key left
	// poisoned by a cancelled or evicted flight.
	for i, p := range procs {
		for bound := 64; bound < 64+bounds; bound++ {
			l, err := c.Explore(sem, p, Options{MaxStates: bound})
			if err != nil {
				t.Fatalf("post-storm explore %d (bound %d): %v", i, bound, err)
			}
			if l.NumStates() != refs[i].NumStates() || l.NumTransitions() != refs[i].NumTransitions() {
				t.Fatalf("post-storm explore %d (bound %d): %d states / %d transitions, want %d / %d",
					i, bound, l.NumStates(), l.NumTransitions(), refs[i].NumStates(), refs[i].NumTransitions())
			}
			for s := 0; s < l.NumStates(); s++ {
				if l.Key(s) != refs[i].Key(s) {
					t.Fatalf("post-storm explore %d (bound %d): state %d key %q, want %q", i, bound, s, l.Key(s), refs[i].Key(s))
				}
			}
		}
	}
	// Nothing is evicted but failed flights: at quiescence the cache
	// holds one entry per key.
	if st := c.StatsAll(); st.Entries != nProcs*bounds {
		t.Errorf("cache holds %d entries at quiescence, want %d", st.Entries, nProcs*bounds)
	}
}
