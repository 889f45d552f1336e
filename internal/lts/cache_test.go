package lts

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/csp"
)

// boundSem builds a semantics with n distinct chain processes P0..Pn-1,
// each exploring exactly `states` states, so tests can fill a cache
// with entries of known size.
func boundSem(t *testing.T, n, states int) (*csp.Semantics, []csp.Process) {
	t.Helper()
	ctx := csp.NewContext()
	env := csp.NewEnv()
	procs := make([]csp.Process, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("ch%d", i)
		ctx.MustChannel(name, csp.IntRange{Lo: 0, Hi: states})
		def := fmt.Sprintf("B%d", i)
		env.MustDefine(def, []string{"n"},
			csp.Guard(csp.Binary{Op: csp.OpLt, L: csp.V("n"), R: csp.LitInt(states - 1)},
				csp.Prefix(name, []csp.CommField{csp.Out(csp.V("n"))},
					csp.Call(def, csp.Binary{Op: csp.OpAdd, L: csp.V("n"), R: csp.LitInt(1)}))))
		procs[i] = csp.Call(def, csp.LitInt(0))
	}
	return csp.NewSemantics(env, ctx), procs
}

func TestCacheExploreSharesOneExploration(t *testing.T) {
	sem := testSem(t)
	p := csp.DoEvent("a", csp.DoEvent("b", csp.Stop()))
	c := NewCache()

	l1, err := c.Explore(sem, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2, err := c.Explore(sem, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Error("second Explore returned a different LTS pointer")
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

// TestCacheKeysStructurally pins that two roots whose Key() strings
// coincide but whose terms differ get separate entries: pun!Int(5) and
// pun!Sym("5") both render as pun.5, yet their LTSs perform events that
// csp.Event.Equal tells apart.
func TestCacheKeysStructurally(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("pun", csp.ExplicitType{TypeName: "Pun", Elems: []csp.Value{csp.Int(5), csp.Sym("5")}})
	sem := csp.NewSemantics(csp.NewEnv(), ctx)
	num := csp.Prefix("pun", []csp.CommField{csp.OutVal(csp.Int(5))}, csp.Stop())
	sym := csp.Prefix("pun", []csp.CommField{csp.OutVal(csp.Sym("5"))}, csp.Stop())
	if num.Key() != sym.Key() {
		t.Fatalf("roots no longer pun: %q vs %q", num.Key(), sym.Key())
	}
	c := NewCache()
	for _, tc := range []struct {
		p    csp.Process
		want csp.Event
	}{
		{num, csp.Ev("pun", csp.Int(5))},
		{sym, csp.Ev("pun", csp.Sym("5"))},
	} {
		l, err := c.Explore(sem, tc.p, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Events) != 3 || !l.Events[2].Equal(tc.want) {
			t.Errorf("Explore(%s) events = %v, want one visible event Equal to %v", tc.p.Key(), l.Events, tc.want)
		}
	}
	if hits, misses := c.Stats(); hits != 0 || misses != 2 {
		t.Errorf("stats = %d hits / %d misses, want 0/2", hits, misses)
	}
	// Structurally equal roots still share one entry.
	again := csp.Prefix("pun", []csp.CommField{csp.OutVal(csp.Sym("5"))}, csp.Stop())
	if _, err := c.Explore(sem, again, Options{}); err != nil {
		t.Fatal(err)
	}
	if hits, _ := c.Stats(); hits != 1 {
		t.Errorf("structurally equal root missed the cache: %d hits, want 1", hits)
	}
	// Hiding sets that render alike are different sets: hiding either
	// pun leaves the other visible.
	both := csp.ExtChoice(num, sym)
	for _, hidden := range []csp.Event{csp.Ev("pun", csp.Int(5)), csp.Ev("pun", csp.Sym("5"))} {
		l, err := c.Explore(sem, csp.Hide(both, csp.Events(hidden)), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(l.Events) != 3 || l.Events[2].Equal(hidden) {
			t.Errorf("hiding %#v: events %v, want only the other pun", hidden, l.Events)
		}
	}
	if _, misses := c.Stats(); misses != 4 {
		t.Errorf("%d misses, want 4: punned hiding sets shared an entry", misses)
	}
}

func TestCacheKeysOnEffectiveBound(t *testing.T) {
	sem := testSem(t)
	p := csp.DoEvent("a", csp.Stop())
	c := NewCache()
	if _, err := c.Explore(sem, p, Options{MaxStates: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explore(sem, p, Options{MaxStates: 32}); err != nil {
		t.Fatal(err)
	}
	// Different bounds are different computations: both must be misses.
	if _, misses := c.Stats(); misses != 2 {
		t.Errorf("misses = %d, want 2 (distinct bounds)", misses)
	}
	// Zero and DefaultMaxStates are the same effective bound.
	if _, err := c.Explore(sem, p, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Explore(sem, p, Options{MaxStates: DefaultMaxStates}); err != nil {
		t.Fatal(err)
	}
	hits, misses := c.Stats()
	if misses != 3 || hits != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/3", hits, misses)
	}
}

func TestCacheErrorIsNotPoisoned(t *testing.T) {
	ctx := csp.NewContext()
	ctx.MustChannel("count", csp.IntRange{Lo: 0, Hi: 100})
	env := csp.NewEnv()
	env.MustDefine("C", []string{"n"},
		csp.Guard(csp.Binary{Op: csp.OpLt, L: csp.V("n"), R: csp.LitInt(100)},
			csp.Prefix("count", []csp.CommField{csp.Out(csp.V("n"))},
				csp.Call("C", csp.Binary{Op: csp.OpAdd, L: csp.V("n"), R: csp.LitInt(1)}))))
	sem := csp.NewSemantics(env, ctx)
	p := csp.Call("C", csp.LitInt(0))

	c := NewCache()
	if _, err := c.Explore(sem, p, Options{MaxStates: 5}); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("err = %v, want ErrStateLimit", err)
	}
	if c.Len() != 0 {
		t.Errorf("failed exploration left %d cache entries", c.Len())
	}
	// The same key must be recomputed, not replay the stale failure.
	if _, err := c.Explore(sem, p, Options{MaxStates: 5}); !errors.Is(err, ErrStateLimit) {
		t.Fatalf("retry err = %v, want ErrStateLimit", err)
	}
	if _, misses := c.Stats(); misses != 2 {
		t.Errorf("misses = %d, want 2 (failures are forgotten)", misses)
	}
	// A larger bound succeeds and is cached.
	if _, err := c.Explore(sem, p, Options{MaxStates: 1 << 10}); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want 1", c.Len())
	}
}

func TestCacheNormalizeMemoized(t *testing.T) {
	sem := testSem(t)
	p := csp.IntChoice(csp.DoEvent("a", csp.Stop()), csp.DoEvent("b", csp.Stop()))
	c := NewCache()
	l, err := c.Explore(sem, p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n1 := c.Normalize(l)
	n2 := c.Normalize(l)
	if n1 != n2 {
		t.Error("Normalize recomputed for the same LTS")
	}
	if len(n1.Nodes[n1.Init].MinAcceptances) != 2 {
		t.Errorf("memoized normalisation is wrong: %v", n1.Nodes[n1.Init].MinAcceptances)
	}
}

// TestCacheConcurrentExploreSingleFlight hammers one key from many
// goroutines: exactly one exploration must run, and every caller must
// see the same result. Run under -race this also validates the locking.
func TestCacheConcurrentExploreSingleFlight(t *testing.T) {
	sem := testSem(t)
	p := csp.DoEvent("a", csp.DoEvent("b", csp.DoEvent("c", csp.Stop())))
	c := NewCache()
	const goroutines = 16
	results := make([]*LTS, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l, err := c.Explore(sem, p, Options{})
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			results[g] = l
		}(g)
	}
	wg.Wait()
	_, misses := c.Stats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (single flight)", misses)
	}
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d saw a different LTS", g)
		}
	}
}

// TestCacheUnboundedDefaultKeepsEverything pins that a cache never
// evicts a successful result: every entry explored once hits on every
// later lookup.
func TestCacheUnboundedDefaultKeepsEverything(t *testing.T) {
	sem, procs := boundSem(t, 6, 8)
	c := NewCache()
	for _, p := range procs {
		if _, err := c.Explore(sem, p, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 6 {
		t.Errorf("unbounded cache holds %d entries, want 6", c.Len())
	}
	_, missesBefore := c.Stats()
	for _, p := range procs {
		if _, err := c.Explore(sem, p, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, misses := c.Stats(); misses != missesBefore {
		t.Error("unbounded cache re-explored a cached entry")
	}
}
