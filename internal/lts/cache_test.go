package lts

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/csp"
	"repro/internal/obs"
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
	// pun leaves the other visible, and each hiding is an entry of its
	// own, derived from the one exploration of their operand.
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
	if st := c.StatsAll(); st.Misses != 5 || st.Derived != 2 {
		t.Errorf("%d misses, %d derived; want 5 and 2 (the operand explored, each hiding derived): punned hiding sets shared an entry",
			st.Misses, st.Derived)
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

// viewSem defines S = a -> b -> S [] c -> SKIP and the views
// V = S \ {a} and W = V[[b <- c]] over it.
func viewSem(t *testing.T) *csp.Semantics {
	t.Helper()
	sem := testSem(t)
	sem.Env.MustDefine("S", nil, csp.ExtChoice(
		csp.DoEvent("a", csp.DoEvent("b", csp.Call("S"))),
		csp.DoEvent("c", csp.Skip())))
	sem.Env.MustDefine("V", nil, csp.Hide(csp.Call("S"), csp.EventsOf("a")))
	sem.Env.MustDefine("W", nil, csp.Rename(csp.Call("V"), map[string]string{"b": "c"}))
	return sem
}

// TestCacheDerivesViews pins the statistics and instrumentation of a
// derived view: W's chain explores S once and derives V and W, each a
// miss and a derivation, with a lts.derive span naming its size and its
// base's and a lts.cache.derived count; S and V are then hits.
func TestCacheDerivesViews(t *testing.T) {
	sem := viewSem(t)
	o := obs.New()
	c := NewCache()
	c.Obs = o
	w, err := c.Explore(sem, csp.Call("W"), Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"S", "V"} {
		if _, err := c.Explore(sem, csp.Call(name), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	want := CacheStats{Hits: 2, Misses: 3, Derived: 2, Entries: 3}
	if st := c.StatsAll(); st != want {
		t.Errorf("stats %+v, want %+v", st, want)
	}
	if n := o.Counter("lts.cache.derived").Value(); n != 2 {
		t.Errorf("lts.cache.derived = %d, want 2", n)
	}
	var derives []obs.SpanRecord
	explores := 0
	for _, s := range o.Spans() {
		switch s.Name {
		case "lts.explore":
			explores++
		case "lts.derive":
			derives = append(derives, s)
		}
	}
	if explores != 1 || len(derives) != 2 {
		t.Fatalf("%d lts.explore and %d lts.derive spans, want 1 and 2", explores, len(derives))
	}
	// V's derivation ends first, inside W's.
	v, last := derives[0].Attrs, derives[1].Attrs
	if last["states"] != int64(w.NumStates()) || last["transitions"] != int64(w.NumTransitions()) ||
		last["base.states"] != v["states"] {
		t.Errorf("lts.derive spans %v then %v, want W's size over V's", v, last)
	}
	fresh, err := Explore(sem, csp.Call("W"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < fresh.NumStates(); i++ {
		if w.Key(i) != fresh.Key(i) {
			t.Fatalf("state %d: key %q, explored %q", i, w.Key(i), fresh.Key(i))
		}
	}
}

// TestCacheViewMemoryWatermark: a view is checked against its
// operand's estimate plus its own tables, so a watermark below the
// estimate of an operand already in the cache (explored with no
// watermark) refuses the view with a *MemoryError, and one above the
// total admits it.
func TestCacheViewMemoryWatermark(t *testing.T) {
	sem := viewSem(t)
	c := NewCache()
	s, err := c.Explore(sem, csp.Call("S"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.estBytes <= 0 {
		t.Fatalf("operand estimate %d", s.estBytes)
	}
	_, err = c.Explore(sem, csp.Call("V"), Options{MaxMemBytes: s.estBytes - 1})
	var me *MemoryError
	if !errors.As(err, &me) || me.Limit != s.estBytes-1 || me.EstimatedBytes <= s.estBytes {
		t.Fatalf("err = %v, want a *MemoryError over the operand's estimate", err)
	}
	v, err := c.Explore(sem, csp.Call("V"), Options{MaxMemBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if v.estBytes <= s.estBytes {
		t.Errorf("view estimate %d, want more than its operand's %d", v.estBytes, s.estBytes)
	}
}

// TestCacheCheckpointedViewIsExplored: with checkpointing on, a view is
// explored as before, not derived.
func TestCacheCheckpointedViewIsExplored(t *testing.T) {
	sem := viewSem(t)
	c := NewCache()
	l, err := c.Explore(sem, csp.Call("V"), Options{Checkpoint: &CheckpointOptions{Dir: t.TempDir()}})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.StatsAll(); st.Misses != 1 || st.Derived != 0 || l.view != nil {
		t.Errorf("stats %+v: a checkpointed view was derived", st)
	}
}

// TestCacheUnguardedViewFails: views that come back to themselves
// without a guard — Q = Q \ X, R = R[[a <- b]], and A = B \ X with
// B = A[[a <- b]] asked for from both ends at once — fail with the
// unguarded-recursion error exploring them reports, instead of waiting
// on their own cache entries.
func TestCacheUnguardedViewFails(t *testing.T) {
	sem := testSem(t)
	sem.Env.MustDefine("Q", nil, csp.Hide(csp.Call("Q"), csp.EventsOf("a")))
	sem.Env.MustDefine("R", nil, csp.Rename(csp.Call("R"), map[string]string{"a": "b"}))
	sem.Env.MustDefine("A", nil, csp.Hide(csp.Call("B"), csp.EventsOf("a")))
	sem.Env.MustDefine("B", nil, csp.Rename(csp.Call("A"), map[string]string{"a": "b"}))
	c := NewCache()
	var wg sync.WaitGroup
	for _, name := range []string{"Q", "R", "A", "B", "A", "B"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := csp.Call(name)
			_, want := Explore(sem, p, Options{})
			_, err := c.Explore(sem, p, Options{})
			if !errors.Is(err, csp.ErrUnguardedRecursion) || err.Error() != want.Error() {
				t.Errorf("%s: err = %v, want %v", name, err, want)
			}
		}()
	}
	wg.Wait()
}

// TestCacheConcurrentViews asks one cache for a view chain from many
// goroutines at once, each starting at a different link: every caller
// of a term gets the one LTS computed for it, and S is explored once.
// Run under -race this also checks that derived LTSs render keys from
// their shared bases safely.
func TestCacheConcurrentViews(t *testing.T) {
	sem := viewSem(t)
	c := NewCache()
	names := []string{"W", "V", "S"}
	const goroutines = 12
	got := make([]*LTS, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := c.Explore(sem, csp.Call(names[g%len(names)]), Options{})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < l.NumStates(); i++ {
				_ = l.Key(i)
			}
			got[g] = l
		}()
	}
	wg.Wait()
	for g := len(names); g < goroutines; g++ {
		if got[g] != got[g%len(names)] {
			t.Fatalf("goroutine %d got a different LTS for %s", g, names[g%len(names)])
		}
	}
	if st := c.StatsAll(); st.Misses != 3 || st.Derived != 2 {
		t.Errorf("stats %+v, want 3 misses, 2 of them derived", st)
	}
}
