// Regression tests against the exploration engine's internals: panic
// attribution, and the resident-size estimate actually covering the
// event-intern table. Both need package-internal access — the
// transitionSource seam and the size constants.
package lts

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/csp"
	"repro/internal/obs"
)

// panicSource is a fake operational semantics over a binary tree of
// Call("S", n) terms: state n steps to 2n+1 and 2n+2 below size, leaves
// are silent, and evaluating the term with n == panicAt panics. It
// reproduces the shape that once misattributed panics: many states per
// level, exactly one of them poisonous.
type panicSource struct {
	size    int
	panicAt int
	byKey   map[string]int
}

func treeTerm(n int) csp.Process { return csp.Call("S", csp.LitInt(n)) }

func newPanicSource(size, panicAt int) *panicSource {
	s := &panicSource{size: size, panicAt: panicAt, byKey: map[string]int{}}
	for n := 0; n < size; n++ {
		s.byKey[treeTerm(n).Key()] = n
	}
	return s
}

// Unfold answers that no term unfolds: every tree term is a leaf.
func (s *panicSource) Unfold(csp.Process) (csp.Process, bool, error) { return nil, false, nil }

func (s *panicSource) Transitions(p csp.Process) ([]csp.Transition, error) {
	n, ok := s.byKey[p.Key()]
	if !ok {
		return nil, fmt.Errorf("unknown state %q", p.Key())
	}
	if n == s.panicAt {
		panic(fmt.Sprintf("poisoned state %d", n))
	}
	var trs []csp.Transition
	for _, c := range []int{2*n + 1, 2*n + 2} {
		if c < s.size {
			trs = append(trs, csp.Transition{Ev: csp.Event{Chan: "step"}, To: treeTerm(c)})
		}
	}
	return trs, nil
}

// TestPanicNamesTheFaultingState pins panic attribution: a panic while
// evaluating a leaf term must surface as an error naming the state
// being expanded, with the panic payload, never as a crash.
func TestPanicNamesTheFaultingState(t *testing.T) {
	const size, panicAt = 127, 37
	wantKey := treeTerm(panicAt).Key()
	src := newPanicSource(size, panicAt)
	_, err := explore(src, treeTerm(0), Options{})
	if err == nil {
		t.Fatal("exploration of a panicking semantics succeeded")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("state %q", wantKey)) {
		t.Fatalf("panic attributed to the wrong state:\n  got  %v\n  want mention of state %q", err, wantKey)
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("poisoned state %d", panicAt)) {
		t.Fatalf("panic payload lost: %v", err)
	}
}

// eventHeavySem builds a 3-level model whose memory is dominated by its
// event table: root offers N distinct events ch.i, all leading to one
// intermediate state D, which steps once more to STOP. 3 states, N+1
// events.
func eventHeavySem(t *testing.T, n int) (*csp.Semantics, csp.Process) {
	t.Helper()
	ctx := csp.NewContext()
	ctx.MustChannel("ch", csp.IntRange{Lo: 0, Hi: n})
	ctx.MustChannel("done", csp.IntRange{Lo: 0, Hi: 1})
	env := csp.NewEnv()
	env.MustDefine("D", nil,
		csp.Prefix("done", []csp.CommField{csp.Out(csp.LitInt(0))}, csp.Stop()))
	branches := make([]csp.Process, n)
	for i := 0; i < n; i++ {
		branches[i] = csp.Prefix("ch", []csp.CommField{csp.Out(csp.LitInt(i))}, csp.Call("D"))
	}
	return csp.NewSemantics(env, ctx), csp.ExtChoice(branches...)
}

// TestMaxMemBytesCountsEventTable pins the resident-size estimate
// against an event-heavy model. The limit is set to everything the
// exploration resides in *except* the event-intern table (rendered
// labels plus per-entry overhead); the watermark must still trip,
// which it only does if events are part of the estimate. The old
// accounting ignored them, so a model with few states but a huge
// alphabet sailed under any watermark.
func TestMaxMemBytesCountsEventTable(t *testing.T) {
	const n = 64
	sem, root := eventHeavySem(t, n)

	// Reference run: capture the interner's resident size and the
	// exact LTS shape.
	ref, err := Explore(sem, root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	internBytes, err := InternBytes(sem, root)
	if err != nil {
		t.Fatal(err)
	}
	if ref.NumStates() != 3 || len(ref.Events) != 2+n+1 {
		t.Fatalf("model shape drifted: %d states, %d events", ref.NumStates(), len(ref.Events))
	}
	edges := 0
	for i := 0; i < ref.NumStates(); i++ {
		edges += len(ref.Edges[i])
	}

	// Everything except the event table fits under this limit; the
	// event table alone pushes the estimate over it. The estimate is
	// checked at each level boundary, and all events are interned while
	// merging the root, so the trip lands at the level-1 boundary with
	// Explored == number of states merged so far.
	limit := internBytes + int64(ref.NumStates())*ltsStateOverhead + int64(edges)*ltsEdgeBytes
	_, err = Explore(sem, root, Options{MaxMemBytes: limit})
	var me *MemoryError
	if !errors.As(err, &me) {
		t.Fatalf("event-table bytes not counted: err = %v, want *MemoryError", err)
	}
	if me.EstimatedBytes <= limit {
		t.Fatalf("MemoryError with estimate %d <= limit %d", me.EstimatedBytes, limit)
	}

	// Resume path: a snapshot with only the root merged — written at the
	// level-1 boundary of a run cancelled while expanding D, the n+1st
	// leaf evaluation — re-registers the event table on load, so the
	// same limit must trip immediately on resume, too.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	opts := Options{Ctx: ctx, Checkpoint: &CheckpointOptions{Dir: dir}}
	if _, _, err := ExploreCancelAfter(sem, root, opts, n+1, cancel); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	cancel()
	o := obs.New()
	_, err = Explore(sem, root, Options{MaxMemBytes: limit, Checkpoint: &CheckpointOptions{Dir: dir}, Obs: o})
	if !errors.As(err, &me) {
		t.Fatalf("resume path: event-table bytes not counted: err = %v, want *MemoryError", err)
	}
	if resumes := o.Counter("lts.checkpoint.resumes").Value(); resumes != 1 {
		t.Fatalf("resume path: %d resumes, want 1", resumes)
	}
	if levels := o.Counter("lts.explore.levels").Value(); levels != 1 {
		t.Fatalf("resume path: %d levels before the trip, want 1", levels)
	}
}

// TestMaxMemBytesCountsMemo pins that the resident-size estimate covers
// the compiled memo and node table. The limit is the final size of
// everything else an exploration holds — interned-term index, states,
// edges and event table — which no level-boundary estimate without the
// memo can exceed, so the watermark trips only if the memo is counted.
func TestMaxMemBytesCountsMemo(t *testing.T) {
	const n = 16
	sem, root := eventHeavySem(t, n)
	ref, err := Explore(sem, root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	internBytes, err := InternBytes(sem, root)
	if err != nil {
		t.Fatal(err)
	}
	limit := internBytes + int64(ref.NumStates())*ltsStateOverhead
	for i := 0; i < ref.NumStates(); i++ {
		limit += int64(len(ref.Edges[i])) * ltsEdgeBytes
	}
	limit += int64(len(ref.Events)-2) * eventEntryOverhead
	_, err = Explore(sem, root, Options{MaxMemBytes: limit})
	var me *MemoryError
	if !errors.As(err, &me) {
		t.Fatalf("memo bytes not counted: err = %v, want *MemoryError", err)
	}
	// With room for the memo the same exploration succeeds.
	if _, err := Explore(sem, root, Options{MaxMemBytes: limit + 1<<20}); err != nil {
		t.Fatalf("exploration with room for the memo failed: %v", err)
	}
}

// TestExploreMemoMetrics pins the compiled-memo instrumentation: misses
// count distinct nodes whose transitions were computed, hits count
// reuses, the node gauge covers the interned table, and none of it
// changes the LTS.
func TestExploreMemoMetrics(t *testing.T) {
	sem, root := eventHeavySem(t, 8)
	plain, err := Explore(sem, root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two copies side by side: every component state recurs across many
	// product states, so the memo must hit.
	o := obs.New()
	l, err := Explore(sem, csp.Interleave(root, root), Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	hits := o.Counter("lts.explore.memo.hits").Value()
	misses := o.Counter("lts.explore.memo.misses").Value()
	if misses == 0 || hits == 0 {
		t.Errorf("memo hits=%d misses=%d, want both > 0", hits, misses)
	}
	nodes := o.Gauge("lts.explore.nodes").Value()
	if nodes < int64(l.NumStates()) {
		t.Errorf("nodes gauge %d below the %d states", nodes, l.NumStates())
	}
	composite := o.Gauge("lts.explore.nodes.composite").Value()
	leaf := o.Gauge("lts.explore.nodes.leaf").Value()
	if composite == 0 || leaf == 0 || composite+leaf != nodes {
		t.Errorf("nodes split %d composite + %d leaf, want both > 0 summing to %d", composite, leaf, nodes)
	}
	if spans := o.Spans(); len(spans) != 1 || spans[0].Attrs["nodes.composite"] != composite || spans[0].Attrs["nodes.leaf"] != leaf {
		t.Errorf("lts.explore span does not carry the nodes split: %+v", spans)
	}
	again, err := Explore(sem, root, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if again.NumStates() != plain.NumStates() || again.NumTransitions() != plain.NumTransitions() {
		t.Error("observability changed the LTS")
	}
}
