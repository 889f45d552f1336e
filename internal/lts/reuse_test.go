// Tests of compiler reuse: an exploration through a reset compiler must
// be indistinguishable from one through a fresh compiler — the same
// LTS, node table and memory-watermark verdict — and must leave the
// LTSs of earlier explorations untouched.
package lts

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/csp"
	"repro/internal/csp/cspgen"
	"repro/internal/obs"
)

// reuseSeeds is the size of the generated corpus, and reuseBound the
// state bound each of its explorations runs under; larger systems end
// in a LimitError, which must agree too.
const (
	reuseSeeds = 120
	reuseBound = 3000
)

// exploredView is a finished exploration rendered to plain values, so it
// can be compared after the compiler behind it has been reused.
type exploredView struct {
	init   int
	keys   []string
	omega  []bool
	edges  [][]Edge
	events []string
	nodes  [][]byte // the node table a checkpoint persists
	err    string
}

// render renders an exploration's outcome, without its node table.
func render(l *LTS, err error) exploredView {
	var v exploredView
	if err != nil {
		v.err = err.Error()
		return v
	}
	v.init, v.edges = l.Init, l.Edges
	for i := 0; i < l.NumStates(); i++ {
		v.keys = append(v.keys, l.Key(i))
		v.omega = append(v.omega, l.IsOmega(i))
	}
	for _, ev := range l.Events {
		v.events = append(v.events, fmt.Sprintf("%s %q", ev, csp.IdentityKey(ev)))
	}
	return v
}

// view explores root over c (fresh or reset) and renders the outcome,
// the interner's node table included.
func view(c *compiler, root csp.Process, opts Options) (*LTS, exploredView) {
	l, err := c.explore(root, opts)
	v := render(l, err)
	for _, k := range c.in.Keys() {
		v.nodes = append(v.nodes, append([]byte(nil), k...))
	}
	return l, v
}

// requireSameView fails unless got is want, field by field.
func requireSameView(t *testing.T, label string, got, want exploredView) {
	t.Helper()
	switch {
	case got.err != want.err:
		t.Fatalf("%s: error %q, fresh %q", label, got.err, want.err)
	case got.init != want.init:
		t.Fatalf("%s: init %d, fresh %d", label, got.init, want.init)
	case !reflect.DeepEqual(got.keys, want.keys):
		t.Fatalf("%s: state keys differ from a fresh exploration", label)
	case !reflect.DeepEqual(got.omega, want.omega):
		t.Fatalf("%s: Ω states differ from a fresh exploration", label)
	case !reflect.DeepEqual(got.edges, want.edges):
		t.Fatalf("%s: edges differ from a fresh exploration", label)
	case !reflect.DeepEqual(got.events, want.events):
		t.Fatalf("%s: events %v, fresh %v", label, got.events, want.events)
	case !reflect.DeepEqual(got.nodes, want.nodes):
		t.Fatalf("%s: node table of %d keys, fresh %d, or different keys", label, len(got.nodes), len(want.nodes))
	}
}

// freshView explores root through a never-used compiler.
func freshView(sem *csp.Semantics, root csp.Process, opts Options) exploredView {
	_, v := view(emptyCompiler().begin(sem), root, opts)
	return v
}

// TestReusedCompilerMatchesFresh is the generated reuse oracle. One
// compiler explores the corpus interleaved — 0, 1, 0, 2, 1, 3, 2, … —
// reset between explorations, so every system is explored after a
// smaller or larger one and again after another. Each exploration must
// match a fresh compiler's exactly, and every finished LTS must render
// the same keys after all later explorations as when it was built.
func TestReusedCompilerMatchesFresh(t *testing.T) {
	var order []int64
	for seed := int64(0); seed < reuseSeeds; seed++ {
		order = append(order, seed)
		if seed > 0 {
			order = append(order, seed-1)
		}
	}
	opts := Options{MaxStates: reuseBound}
	type kept struct {
		l    *LTS
		keys []string
	}
	var done []kept
	c := emptyCompiler()
	limited := 0
	for i, seed := range order {
		if i > 0 {
			c.reset()
		}
		sem, root := cspgen.Model(seed)
		l, got := view(c.begin(sem), root, opts)
		if i > 0 && !c.reused {
			t.Fatal("a reset compiler does not report reuse")
		}
		requireSameView(t, fmt.Sprintf("seed %d (exploration %d)", seed, i), got, freshView(sem, root, opts))
		if l != nil {
			done = append(done, kept{l, got.keys})
		} else {
			limited++
		}
	}
	if limited == 0 || limited == len(order) {
		t.Fatalf("%d of %d explorations hit the bound: corpus too one-sided", limited, len(order))
	}
	for i, k := range done {
		for s, want := range k.keys {
			if got := k.l.Key(s); got != want {
				t.Fatalf("LTS %d state %d: key %q became %q after later explorations", i, s, want, got)
			}
		}
	}
}

// TestMemoryErrorSameOnReusedCompiler pins that the resident-size
// estimate is a function of the exploration alone: under the same
// watermark, a compiler whose tables a larger exploration grew trips at
// the same state with the same estimate as a fresh one.
func TestMemoryErrorSameOnReusedCompiler(t *testing.T) {
	warmSem, warm := eventHeavySem(t, 64)
	warm = csp.Interleave(warm, warm)
	c := emptyCompiler()
	midway := 0
	for seed := int64(0); seed < 4*reuseSeeds; seed++ {
		sem, root := cspgen.Model(seed)
		// InternBytes explores without a bound: only finite systems.
		if _, err := emptyCompiler().begin(sem).explore(root, Options{MaxStates: reuseBound}); err != nil {
			continue
		}
		internBytes, err := InternBytes(sem, root)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{MaxStates: reuseBound, MaxMemBytes: internBytes / 2}
		_, err = emptyCompiler().begin(sem).explore(root, opts)
		var fresh *MemoryError
		if !errors.As(err, &fresh) {
			continue
		}
		c.reset()
		if _, err := c.begin(warmSem).explore(warm, Options{}); err != nil {
			t.Fatal(err)
		}
		inherited := len(c.nodes)
		c.reset()
		_, err = c.begin(sem).explore(root, opts)
		var reused *MemoryError
		if !errors.As(err, &reused) || *reused != *fresh {
			t.Fatalf("seed %d: reused compiler (%d inherited node slots) gives %v, fresh %+v", seed, inherited, err, *fresh)
		}
		if fresh.Explored > 1 && inherited > c.tableLen {
			midway++
		}
	}
	if midway < 20 {
		t.Fatalf("only %d watermark trips past the root on an inherited table: corpus too small", midway)
	}
}

// TestConcurrentCacheExplorationsReuseMemos explores the corpus from
// several goroutines at once through Explore and lts.Cache, so pooled
// compilers pass between goroutines (run it under -race). Every LTS
// must match a fresh compiler's.
func TestConcurrentCacheExplorationsReuseMemos(t *testing.T) {
	const workers, seeds = 4, 40
	opts := Options{MaxStates: reuseBound}
	want := make([]exploredView, seeds)
	for seed := range want {
		sem, root := cspgen.Model(int64(seed))
		want[seed] = render(emptyCompiler().begin(sem).explore(root, opts))
	}
	shared := NewCache()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := NewCache()
			for i := 0; i < seeds; i++ {
				seed := (i*(w+1) + w) % seeds
				sem, root := cspgen.Model(int64(seed))
				for _, cache := range []*Cache{own, shared} {
					if got := render(cache.Explore(sem, root, opts)); !reflect.DeepEqual(got, want[seed]) {
						t.Errorf("worker %d seed %d: exploration differs from a fresh compiler's", w, seed)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestExploreSpanReportsMemoReuse pins the memo.reused span attribute:
// every lts.explore span carries it, and among repeated explorations —
// which take a pooled compiler unless the pool dropped it — at least one
// reports true.
func TestExploreSpanReportsMemoReuse(t *testing.T) {
	sem, root := eventHeavySem(t, 4)
	o := obs.New()
	for i := 0; i < 20; i++ {
		if _, err := Explore(sem, root, Options{Obs: o}); err != nil {
			t.Fatal(err)
		}
	}
	reused := 0
	for _, s := range o.Spans() {
		v, ok := s.Attrs["memo.reused"].(bool)
		if !ok {
			t.Fatalf("lts.explore span without a memo.reused attribute: %+v", s.Attrs)
		}
		if v {
			reused++
		}
	}
	if reused == 0 {
		t.Fatal("no exploration reused a pooled memo")
	}
}
