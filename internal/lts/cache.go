package lts

import (
	"container/list"
	"encoding/binary"
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
// The zero value is not usable; construct with NewCache. All methods
// are safe for concurrent use.
type Cache struct {
	// Obs, when set, mirrors the cache statistics to obs counters
	// (lts.cache.hits / misses / coalesces / evictions /
	// evictions.size). It may be assigned once, before the cache is
	// shared across goroutines.
	Obs *obs.Observer

	// MaxEntries, when positive, bounds the number of cached
	// explorations; the least-recently-used entries are evicted past the
	// watermark. Zero (the default) is unbounded — the batch-CLI
	// behaviour, byte-identical to an unbounded cache.
	MaxEntries int
	// MaxStates, when positive, bounds the total number of LTS states
	// held by the cache (the sum of NumStates over cached entries) — the
	// watermark a long-lived server sets so the model store degrades via
	// LRU eviction instead of growing until the process OOMs. A single
	// entry larger than the watermark is itself evicted immediately:
	// staying under the bound wins over keeping an oversized result.
	// Zero (the default) is unbounded. Like Obs, both limits must be
	// assigned before the cache is shared across goroutines.
	MaxStates int

	mu        sync.Mutex
	entries   map[cacheKey]*cacheEntry
	norms     map[*LTS]*normEntry
	lru       *list.List // of cacheKey; front = most recently used
	curStates int64      // sum of states over LRU-tracked entries

	hits          atomic.Int64
	misses        atomic.Int64
	coalesces     atomic.Int64
	evictions     atomic.Int64
	sizeEvictions atomic.Int64
}

// cacheKey identifies one exploration: the semantic identity (both the
// definition environment and the channel context pointers) plus the
// process term's structural encoding and the effective state bound.
type cacheKey struct {
	env       *csp.Env
	ctx       *csp.Context
	proc      string
	maxStates int
}

// structuralKey is p's node encoding: the keys a fresh interner
// assigns while interning p, each length-prefixed. It is deterministic
// and equal for two terms iff they are structurally equal — unlike
// Key(), which renders Int(5) and Sym("5") alike. Reset
// interners from a pool keep a cache hit's cost near a Key() render.
func structuralKey(p csp.Process) string {
	in := keyInterners.Get().(*csp.Interner)
	defer keyInterners.Put(in)
	in.Reset()
	in.Process(p)
	var arr [256]byte
	b := arr[:0]
	for _, k := range in.Keys() {
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
	}
	return string(b)
}

var keyInterners = sync.Pool{New: func() any { return csp.NewInterner() }}

type cacheEntry struct {
	once sync.Once
	// done is set at the end of the once.Do body: a caller that finds an
	// existing entry with done still false joined an in-flight
	// exploration (a single-flight coalesce) rather than hitting memory.
	done atomic.Bool
	lts  *LTS
	err  error
	// elem is the entry's LRU node, set under Cache.mu once the entry
	// holds a successful result; nil while in flight, after an error, or
	// on an unbounded cache (which keeps no LRU at all).
	elem *list.Element
	// states is the entry's NumStates, cached for O(1) size accounting.
	states int
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
// later callers reuse its result. Options.MaxDuration only influences
// how a miss is computed, never whether an entry hits.
func (c *Cache) Explore(sem *csp.Semantics, p csp.Process, opts Options) (*LTS, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	key := cacheKey{env: sem.Env, ctx: sem.Ctx, proc: structuralKey(p), maxStates: maxStates}
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
	if c.bounded() {
		c.touch(key, e)
	}
	return e.lts, nil
}

// bounded reports whether a size watermark is configured. The unbounded
// default skips all LRU bookkeeping, so batch CLIs pay nothing.
func (c *Cache) bounded() bool { return c.MaxEntries > 0 || c.MaxStates > 0 }

// touch records a successful entry as most-recently used and enforces
// the size watermarks. The entry may have been evicted concurrently —
// then there is nothing to account; the caller still holds its result.
func (c *Cache) touch(key cacheKey, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[key] != e {
		return
	}
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
		return
	}
	if c.lru == nil {
		c.lru = list.New()
	}
	e.states = e.lts.NumStates()
	e.elem = c.lru.PushFront(key)
	c.curStates += int64(e.states)
	for c.lru.Len() > 0 &&
		((c.MaxEntries > 0 && c.lru.Len() > c.MaxEntries) ||
			(c.MaxStates > 0 && c.curStates > int64(c.MaxStates))) {
		back := c.lru.Back()
		victimKey := back.Value.(cacheKey)
		victim := c.entries[victimKey]
		c.lru.Remove(back)
		delete(c.entries, victimKey)
		if victim != nil {
			c.curStates -= int64(victim.states)
			victim.elem = nil
			// The normalisation of an evicted LTS is unreachable through
			// the cache; drop it too, or the norms map would keep the
			// evicted state space alive and defeat the watermark.
			delete(c.norms, victim.lts)
		}
		c.sizeEvictions.Add(1)
		c.Obs.Counter("lts.cache.evictions.size").Inc()
	}
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
	// SizeEvictions counts entries LRU-evicted past the MaxEntries /
	// MaxStates watermarks.
	SizeEvictions int64
	// Entries is the number of explorations currently cached.
	Entries int
	// States is the total number of LTS states held by size-tracked
	// entries (0 on an unbounded cache, which keeps no size accounting).
	States int64
}

// StatsAll reports the full cache statistics in one snapshot.
func (c *Cache) StatsAll() CacheStats {
	c.mu.Lock()
	entries := len(c.entries)
	states := c.curStates
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesces:     c.coalesces.Load(),
		Evictions:     c.evictions.Load(),
		SizeEvictions: c.sizeEvictions.Load(),
		Entries:       entries,
		States:        states,
	}
}

// Len returns the number of cached explorations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
