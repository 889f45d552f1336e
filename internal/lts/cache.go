package lts

import (
	"sync"
	"sync/atomic"

	"repro/internal/csp"
	"repro/internal/obs"
)

// Cache is a concurrency-safe memo of explored LTSs and their
// normalisations. Campaign-scale checking re-explores the same
// specification and implementation terms once per assertion and once
// per scenario; a shared Cache collapses that to one exploration per
// distinct (semantics, process, bound) triple, and one subset
// construction per distinct LTS.
//
// Entries are keyed by the process's structural node encoding plus the
// identity of the definition environment and channel context (the same
// term means different things under different definitions), plus the
// effective state bound. Only successful explorations are cached: a
// budget or semantic error is returned to every concurrent waiter of
// that computation and then forgotten, so a later call with a larger
// wall-clock budget can retry.
//
// Nothing is ever evicted for size: a Cache holds every successful
// result for as long as it lives, so give it the lifetime of one batch
// of related checks (a CLI run, one daemon request), not of a process.
//
// The zero value is not usable; construct with NewCache. All methods
// are safe for concurrent use.
type Cache struct {
	// Obs, when set, mirrors the cache statistics to obs counters
	// (lts.cache.hits / misses / coalesces / evictions). It may be
	// assigned once, before the cache is shared across goroutines.
	Obs *obs.Observer

	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	norms   map[*LTS]*normEntry

	hits      atomic.Int64
	misses    atomic.Int64
	coalesces atomic.Int64
	evictions atomic.Int64
}

// cacheKey identifies one exploration: the semantic identity (both the
// definition environment and the channel context pointers) plus the
// process term's identity key and the effective state bound.
type cacheKey struct {
	env       *csp.Env
	ctx       *csp.Context
	proc      string
	maxStates int
}

type cacheEntry struct {
	once sync.Once
	// done is set at the end of the once.Do body: a caller that finds an
	// existing entry with done still false joined an in-flight
	// exploration (a single-flight coalesce) rather than hitting memory.
	done atomic.Bool
	lts  *LTS
	err  error
}

type normEntry struct {
	once sync.Once
	norm *Normalized
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{
		entries: make(map[cacheKey]*cacheEntry),
		norms:   make(map[*LTS]*normEntry),
	}
}

// Explore is a caching front end to Explore: concurrent callers asking
// for the same (semantics, process, bound) share one exploration, and
// later callers reuse its result. Options.Ctx only stops the
// computation of a miss, never decides whether an entry hits: a joiner
// shares the flight it joined, stop included. A resumed exploration
// counts its snapshot's elapsed time against the leader's deadline.
func (c *Cache) Explore(sem *csp.Semantics, p csp.Process, opts Options) (*LTS, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	key := cacheKey{env: sem.Env, ctx: sem.Ctx, proc: csp.IdentityKey(p), maxStates: maxStates}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	inFlight := ok && !e.done.Load()
	fresh := false
	e.once.Do(func() {
		fresh = true
		c.misses.Add(1)
		c.Obs.Counter("lts.cache.misses").Inc()
		e.lts, e.err = Explore(sem, p, opts)
		e.done.Store(true)
	})
	if !fresh {
		c.hits.Add(1)
		c.Obs.Counter("lts.cache.hits").Inc()
		if inFlight {
			// Joined a computation another goroutine was still running.
			c.coalesces.Add(1)
			c.Obs.Counter("lts.cache.coalesces").Inc()
		}
	}
	if e.err != nil {
		// Do not poison the key: drop the failed flight so a retry (for
		// example with a fresh wall-clock budget, or after a cancelled
		// request) can recompute.
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
			c.evictions.Add(1)
			c.Obs.Counter("lts.cache.evictions").Inc()
		}
		c.mu.Unlock()
		return nil, e.err
	}
	return e.lts, nil
}

// Normalize memoizes the subset construction per explored LTS. The
// argument is expected to be an LTS returned by this cache's Explore
// (keyed by pointer identity), but any LTS works — an unknown one is
// normalised and remembered.
func (c *Cache) Normalize(l *LTS) *Normalized {
	c.mu.Lock()
	e, ok := c.norms[l]
	if !ok {
		e = &normEntry{}
		c.norms[l] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.norm = Normalize(l) })
	return e.norm
}

// Stats reports cache effectiveness: hits is the number of Explore
// calls answered from memory, misses the number of fresh explorations
// performed.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// CacheStats is the full effectiveness summary of a Cache.
type CacheStats struct {
	// Hits counts Explore calls answered without a fresh exploration
	// (coalesced joins included).
	Hits int64
	// Misses counts fresh explorations performed.
	Misses int64
	// Coalesces counts the subset of hits that joined an exploration
	// still in flight rather than reading a finished result.
	Coalesces int64
	// Evictions counts failed flights dropped so a retry can recompute.
	Evictions int64
	// Entries is the number of explorations currently cached.
	Entries int
}

// StatsAll reports the full cache statistics in one snapshot.
func (c *Cache) StatsAll() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesces: c.coalesces.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}

// Len returns the number of cached explorations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
