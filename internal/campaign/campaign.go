// Package campaign is the harness the seeded campaigns share: the
// conformance soak, the fault-injection matrix and the L* equivalence
// queries. It holds the seed-ordered worker pool (Map), the greedy
// one-minimal shrinker (Shrink), the per-item seed derivation (Seed)
// and the -seed/-workers/-format flag set of their CLIs (Flags).
package campaign

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Seed derives the seed of item i from a campaign's master seed. The
// multiplier is the splitmix64 increment, which decorrelates
// neighbouring indices.
func Seed(master int64, i int) int64 {
	return master + int64(i+1)*-0x61c8864680b583eb
}

// Map runs fn over items on workers goroutines (0: GOMAXPROCS, 1:
// inline on the caller's goroutine) and returns the results in input
// order. Workers claim items through one atomic cursor and each result
// lands in its own slot, so the output never depends on scheduling.
//
// A panic in fn is isolated to its item: the slot receives
// onPanic(i, item, recovered) and the worker goes on to the next item,
// at any worker count. Every finished item ticks prog (nil: no
// heartbeats) with the item total under the attribute unit.
func Map[T, R any](items []T, workers int, prog *obs.Progress, unit string,
	fn func(i int, item T) R, onPanic func(i int, item T, recovered any) R) []R {
	out := make([]R, len(items))
	var done atomic.Int64
	run := func(i int) {
		out[i] = call(i, items[i], fn, onPanic)
		prog.Tick(done.Add(1), obs.Int(unit, int64(len(items))))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, len(items)); workers <= 1 {
		for i := range items {
			run(i)
		}
	} else {
		var next atomic.Int64
		var crash atomic.Pointer[any]
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				defer func() {
					// Only onPanic or the progress sink can get here; the
					// panic is re-raised on the caller's goroutine, as on
					// the inline path.
					if r := recover(); r != nil {
						crash.CompareAndSwap(nil, &r)
					}
				}()
				for i := int(next.Add(1)) - 1; i < len(items); i = int(next.Add(1)) - 1 {
					run(i)
				}
			}()
		}
		wg.Wait()
		if r := crash.Load(); r != nil {
			panic(*r)
		}
	}
	prog.Flush(done.Load())
	return out
}

// call is fn(i, item) with a panic converted by onPanic.
func call[T, R any](i int, item T, fn func(int, T) R, onPanic func(int, T, any) R) (res R) {
	defer func() {
		if r := recover(); r != nil {
			res = onPanic(i, item, r)
		}
	}()
	return fn(i, item)
}

// Shrink greedily removes elements of items while keep still holds,
// down to a one-minimal fixed point: every remaining element is needed.
// Candidates are tried in a fixed order: drop index 0, 1, ...; after
// the first accepted candidate the sweep restarts from index 0. The
// result is therefore a pure function of items and keep. Each
// candidate is a fresh slice that keep may retain. The first error
// from keep ends the search and is returned.
func Shrink[S ~[]T, T any](items S, keep func(S) (bool, error)) (S, error) {
	for i := 0; i < len(items); {
		cand := append(append(S(nil), items[:i]...), items[i+1:]...)
		ok, err := keep(cand)
		if err != nil {
			return nil, err
		}
		if ok {
			items, i = cand, 0
		} else {
			i++
		}
	}
	return items, nil
}
