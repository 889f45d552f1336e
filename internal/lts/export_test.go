package lts

import (
	"fmt"

	"repro/internal/csp"
)

// Reference is the reference engine's result: the LTS graph, with every
// state's term held as built. It shares the methods requireSameLTS
// compares through with LTS.
type Reference struct {
	Init   int
	Procs  []csp.Process
	Edges  [][]Edge
	Events []csp.Event

	eventIDs map[string]int
}

// NumStates returns the number of explored states.
func (r *Reference) NumStates() int { return len(r.Procs) }

// Key renders the term of a state.
func (r *Reference) Key(id int) string { return r.Procs[id].Key() }

// IsOmega reports whether a state's term is Ω.
func (r *Reference) IsOmega(id int) bool {
	_, omega := r.Procs[id].(csp.OmegaProc)
	return omega
}

// Graph returns the initial state, edge lists and event table.
func (r *Reference) Graph() (int, [][]Edge, []csp.Event) { return r.Init, r.Edges, r.Events }

// Graph returns the initial state, edge lists and event table.
func (l *LTS) Graph() (int, [][]Edge, []csp.Event) { return l.Init, l.Edges, l.Events }

// ExploreReference builds the LTS reachable from root with the
// original string-keyed sequential engine: states interned by their
// recursively rendered canonical Key() strings, events by their
// String() renders, plain level-ordered BFS, every state's whole term
// evaluated by csp.Semantics. It is deliberately frozen — no memo, no
// interner, no checkpoints — and is the differential oracle proving the
// compiled engine produces byte-identical results (state numbering,
// edges, event table). Only maxStates is honoured; 0 means
// DefaultMaxStates.
func ExploreReference(sem *csp.Semantics, root csp.Process, maxStates int) (*Reference, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	l := &Reference{
		Events:   []csp.Event{csp.Tau(), csp.Tick()},
		eventIDs: map[string]int{},
	}
	visited := map[string]int{}
	add := func(p csp.Process) (int, bool, error) {
		k := p.Key()
		if id, ok := visited[k]; ok {
			return id, false, nil
		}
		if len(l.Procs) >= maxStates {
			return 0, false, &LimitError{Explored: len(l.Procs), Limit: maxStates}
		}
		id := len(l.Procs)
		visited[k] = id
		l.Procs = append(l.Procs, p)
		l.Edges = append(l.Edges, nil)
		return id, true, nil
	}
	rootID, _, err := add(root)
	if err != nil {
		return nil, err
	}
	l.Init = rootID
	for id := 0; id < len(l.Procs); id++ {
		trs, err := sem.Transitions(l.Procs[id])
		if err != nil {
			return nil, fmt.Errorf("state %q: %w", l.Key(id), err)
		}
		edges := make([]Edge, 0, len(trs))
		for _, tr := range trs {
			to, _, err := add(tr.To)
			if err != nil {
				return nil, err
			}
			edges = append(edges, Edge{Ev: l.eventID(tr.Ev), To: to})
		}
		l.Edges[id] = edges
	}
	return l, nil
}

// eventID is the reference engine's event interning: by String()
// render, in order of first appearance.
func (l *Reference) eventID(e csp.Event) int {
	switch {
	case e.IsTau():
		return TauID
	case e.IsTick():
		return TickID
	}
	k := e.String()
	if id, ok := l.eventIDs[k]; ok {
		return id
	}
	id := len(l.Events)
	l.Events = append(l.Events, e)
	l.eventIDs[k] = id
	return id
}

// ExploreCancelAfter explores like Explore over a semantics that calls
// cancel after its nth leaf evaluation (never, for n <= 0) — a crash at
// a deterministic point mid-exploration — and reports how many leaf
// evaluations the exploration made.
func ExploreCancelAfter(sem *csp.Semantics, root csp.Process, opts Options, n int, cancel func()) (*LTS, int, error) {
	src := &cancelSource{sem: sem, remaining: n, cancel: cancel}
	l, err := explore(src, root, opts)
	return l, src.evals, err
}

type cancelSource struct {
	sem       *csp.Semantics
	remaining int
	evals     int
	cancel    func()
}

func (s *cancelSource) Transitions(p csp.Process) ([]csp.Transition, error) {
	s.evals++
	if s.evals == s.remaining {
		s.cancel()
	}
	return s.sem.Transitions(p)
}

// InternBytes returns the resident size of the interner an exploration
// of root ends with. Compiled runs explore's compiler, so a BFS over it
// in explore's order interns the same nodes under the same IDs.
func InternBytes(sem *csp.Semantics, root csp.Process) (int64, error) {
	m := Compile(sem)
	queue := []csp.TermID{m.Intern(root)}
	seen := map[csp.TermID]bool{queue[0]: true}
	for len(queue) > 0 {
		steps, err := m.Steps(queue[0])
		if err != nil {
			return 0, err
		}
		queue = queue[1:]
		for _, st := range steps {
			if !seen[st.To] {
				seen[st.To] = true
				queue = append(queue, st.To)
			}
		}
	}
	return m.c.in.Bytes(), nil
}
