package lts

import (
	"fmt"

	"repro/internal/csp"
)

// ExploreReference builds the LTS reachable from root with the
// original string-keyed sequential engine: states interned by their
// recursively rendered canonical Key() strings, events by their
// String() renders, plain level-ordered BFS, every state's whole term
// evaluated by csp.Semantics. It is deliberately frozen — no memo, no
// stores, no checkpoints — and exists for two purposes: the
// differential oracle proving the compiled engine produces
// byte-identical results (state numbering, edges, event table), and the
// benchsmoke baseline that pins how much the engine buys over it. Only
// maxStates is honoured; 0 means DefaultMaxStates.
func ExploreReference(sem *csp.Semantics, root csp.Process, maxStates int) (*LTS, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	l := &LTS{
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
