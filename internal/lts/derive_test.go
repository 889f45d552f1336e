package lts_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/csp"
	"repro/internal/csp/cspgen"
	"repro/internal/lts"
)

// deriveBound is the state bound of the derived-view oracle: a
// generated system past it is compared on its *LimitError.
const deriveBound = 2000

// viewSets and viewMaps are the hiding sets and renamings the oracle
// wraps generated systems in: cspgen's own, plus a renaming that merges
// two channels into one and one that moves an event onto another.
var (
	viewSets = []*csp.EventSet{
		csp.EventsOf("a"),
		csp.EventsOf("c", "t"),
		csp.Events(csp.Ev("c", csp.Int(1)), csp.Ev("b")),
		csp.EventsOf("d").AddEvent(csp.Ev("a")),
		csp.NewEventSet(),
	}
	viewMaps = []map[string]string{
		{"a": "b"},
		{"b": "t", "t": "a"},
		{"c": "c"},
		{"a": "t", "b": "t"},
	}
)

// Forms of a generated view: the wraps as one term, or as a chain of
// definitions V1 = wrap(…), V2 = wrap(V1), … explored from a call; over
// the generated root, or over B = t -> B [] root, an operand that comes
// back to its own root.
const (
	formBare = iota
	formCall
	formBareReentrant
	formCallReentrant
	numForms
)

// generatedView returns the term of seed's system wrapped as wrap
// selects: bits 0–1 the form, bits 2–3 the number of wraps (1–3), then
// per wrap one bit for hiding or renaming and three for the set or
// mapping. It returns the number of wraps too.
func generatedView(seed int64, wrap uint32) (*csp.Semantics, csp.Process, int) {
	sem, root := cspgen.Model(seed)
	form := int(wrap % numForms)
	wrap /= numForms
	n := 1 + int(wrap%4)%3
	wrap /= 4
	operand := root
	if form == formBareReentrant || form == formCallReentrant {
		sem.Env.MustDefine("B", nil, csp.ExtChoice(csp.DoEvent("t", csp.Call("B")), root))
		operand = csp.Call("B")
	}
	p := operand
	for i := 1; i <= n; i++ {
		hide, pick := wrap%2 == 0, int(wrap/2%8)
		wrap /= 16
		if hide {
			p = csp.Hide(p, viewSets[pick%len(viewSets)])
		} else {
			p = csp.Rename(p, viewMaps[pick%len(viewMaps)])
		}
		if form == formCall || form == formCallReentrant {
			name := fmt.Sprintf("V%d", i)
			sem.Env.MustDefine(name, nil, p)
			p = csp.Call(name)
		}
	}
	return sem, p, n
}

// checkDerivedView holds Cache.Explore of a generated view to
// lts.Explore of the same term: the same LTS, or the same error; and
// at half the state count, the same *LimitError. It reports whether
// the view explored within deriveBound.
func checkDerivedView(t *testing.T, seed int64, wrap uint32) bool {
	t.Helper()
	sem, p, wraps := generatedView(seed, wrap)
	label := fmt.Sprintf("seed %d wrap %#x (%s)", seed, wrap, p.Key())
	opts := lts.Options{MaxStates: deriveBound}
	want, wantErr := lts.Explore(sem, p, opts)
	c := lts.NewCache()
	got, err := c.Explore(sem, p, opts)
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || wantErr.Error() != err.Error() {
			t.Fatalf("%s: error %v, explored %v", label, err, wantErr)
		}
		requireSameLimit(t, label, err, wantErr)
		return false
	}
	if st := c.StatsAll(); st.Derived < int64(wraps) {
		t.Fatalf("%s: %d views derived, want at least %d", label, st.Derived, wraps)
	}
	requireSameLTS(t, label, want, got)
	for i := range want.Events {
		if !got.Events[i].Equal(want.Events[i]) {
			t.Fatalf("%s: event %d = %#v, explored %#v", label, i, got.Events[i], want.Events[i])
		}
	}
	if n := want.NumStates(); n > 1 {
		half := lts.Options{MaxStates: n / 2}
		_, wantErr := lts.Explore(sem, p, half)
		_, err := c.Explore(sem, p, half)
		requireSameLimit(t, label+" at half the states", err, wantErr)
	}
	return true
}

// requireSameLimit fails unless err and want are both *LimitErrors with
// the same fields, or neither is one.
func requireSameLimit(t *testing.T, label string, err, want error) {
	t.Helper()
	var got, exp *lts.LimitError
	if errors.As(err, &got) != errors.As(want, &exp) {
		t.Fatalf("%s: error %v, explored %v", label, err, want)
	}
	if got != nil && *got != *exp {
		t.Fatalf("%s: limit error %+v, explored %+v", label, *got, *exp)
	}
}

// TestDerivedViewMatchesExploration is the derived-view oracle: for
// 300 generated systems, each wrapped in 1–3 generated hidings and
// renamings in every form, the view the cache derives from its
// operand's LTS must be the LTS exploring the view builds — init,
// state count, keys, Ω states, edges and events (by Equal) — or fail
// with the same error, and trip a bound of half its states with the
// same *LimitError.
func TestDerivedViewMatchesExploration(t *testing.T) {
	const seeds = 300
	ok := 0
	for seed := int64(0); seed < seeds; seed++ {
		for form := uint32(0); form < numForms; form++ {
			// The seed also varies the wraps, so every wrap count, kind
			// and set or mapping is drawn across the corpus.
			wrap := form + numForms*uint32(seed*2654435761>>7)
			if checkDerivedView(t, seed, wrap) {
				ok++
			}
		}
	}
	if ok < seeds*numForms/2 {
		t.Fatalf("only %d of %d generated views explored within the bound", ok, seeds*numForms)
	}
	t.Logf("%d of %d generated views explored within the bound", ok, seeds*numForms)
}

// FuzzDeriveView is the derived-view oracle over fuzzed seeds and
// wraps.
func FuzzDeriveView(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint32(seed*0x9e3779b9))
	}
	f.Fuzz(func(t *testing.T, seed int64, wrap uint32) {
		checkDerivedView(t, seed, wrap)
	})
}

// TestDerivedViewsOfCorpus derives the case study's views — DIAG and
// UPDATE hide part of SYSTEM; in the lossy systems DIAGL and UPDL hide
// more of DELIVL, which hides part of SYSTEML — and requires each to
// equal its exploration, with each system explored once.
func TestDerivedViewsOfCorpus(t *testing.T) {
	for _, cs := range otaCorpus(t) {
		m := cs.sys.Model
		sem := csp.NewSemantics(m.Env, m.Ctx)
		c := lts.NewCache()
		for _, a := range m.Asserts {
			got, err := c.Explore(sem, a.Impl, lts.Options{})
			if err != nil {
				t.Fatalf("%s: %s: %v", cs.name, a.Text, err)
			}
			want, err := lts.Explore(sem, a.Impl, lts.Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireSameLTS(t, cs.name+": "+a.Text, want, got)
		}
		if st := c.StatsAll(); st.Derived == 0 || st.Misses-st.Derived != 1 {
			t.Errorf("%s: %d misses, %d derived; want every view derived from one exploration", cs.name, st.Misses, st.Derived)
		}
	}
}
