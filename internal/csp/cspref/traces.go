package cspref

import (
	"fmt"
	"sort"

	"repro/internal/csp"
)

// TraceSet holds the finite set of traces a process can perform up to a
// length bound, in the trace semantics of section IV-A of the paper.
type TraceSet struct {
	traces map[string]csp.Trace
}

// NewTraceSet returns an empty trace set. Callers normally obtain
// TraceSets from Traces.
func NewTraceSet() *TraceSet {
	return &TraceSet{traces: map[string]csp.Trace{}}
}

// Add inserts a trace.
func (ts *TraceSet) Add(t csp.Trace) {
	ts.traces[t.String()] = t
}

// Contains reports whether the exact trace is a member.
func (ts *TraceSet) Contains(t csp.Trace) bool {
	_, ok := ts.traces[t.String()]
	return ok
}

// Len returns the number of distinct traces.
func (ts *TraceSet) Len() int { return len(ts.traces) }

// Slice returns the traces sorted by their canonical string.
func (ts *TraceSet) Slice() []csp.Trace {
	keys := make([]string, 0, len(ts.traces))
	for k := range ts.traces {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]csp.Trace, len(keys))
	for i, k := range keys {
		out[i] = ts.traces[k]
	}
	return out
}

// SubsetOf reports whether every trace in ts is also in other, i.e.
// traces(P) ⊆ traces(Q), the trace-refinement condition Q ⊑T P.
// The first missing trace (if any) is returned as a witness.
func (ts *TraceSet) SubsetOf(other *TraceSet) (bool, csp.Trace) {
	keys := make([]string, 0, len(ts.traces))
	for k := range ts.traces {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, ok := other.traces[k]; !ok {
			return false, ts.traces[k]
		}
	}
	return true, nil
}

// traceGraph is the reachable term graph within a visible-depth bound.
type traceGraph struct {
	procs []csp.Process
	edges [][]traceEdge
	dist  []int
}

type traceEdge struct {
	ev csp.Event
	to int
}

// maxTraceStates bounds term-graph exploration in Traces.
const maxTraceStates = 1 << 18

// Traces enumerates every trace of p with at most maxLen visible events
// (a terminating tick counts as one event). The reachable term graph is
// explored breadth-first up to the bound (tau transitions do not consume
// budget), then traces are collected with memoised suffix enumeration,
// so the result is exact for finite-state processes and for
// infinite-state processes it is exact up to the bound.
func Traces(sem *csp.Semantics, p csp.Process, maxLen int) (*TraceSet, error) {
	g, err := exploreBounded(sem, p, maxLen)
	if err != nil {
		return nil, err
	}

	type memoKey struct {
		state, budget int
	}
	memo := map[memoKey][]csp.Trace{}
	var suffixes func(state, budget int) []csp.Trace
	suffixes = func(state, budget int) []csp.Trace {
		mk := memoKey{state, budget}
		if got, ok := memo[mk]; ok {
			return got
		}
		// Collect the visible (and tick) moves available from the tau
		// closure of this state.
		closure := g.tauClosure(state)
		out := []csp.Trace{{}}
		if budget > 0 {
			for _, m := range closure {
				for _, e := range g.edges[m] {
					switch {
					case e.ev.IsTau():
						// Handled by the closure.
					case e.ev.IsTick():
						out = append(out, csp.Trace{csp.Tick()})
					default:
						for _, suf := range suffixes(e.to, budget-1) {
							tr := make(csp.Trace, 0, len(suf)+1)
							tr = append(tr, e.ev)
							tr = append(tr, suf...)
							out = append(out, tr)
						}
					}
				}
			}
		}
		out = dedupeTraces(out)
		memo[mk] = out
		return out
	}

	ts := NewTraceSet()
	for _, tr := range suffixes(0, maxLen) {
		ts.Add(tr)
	}
	return ts, nil
}

func dedupeTraces(in []csp.Trace) []csp.Trace {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, t := range in {
		k := t.String()
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// exploreBounded builds the term graph reachable within maxLen visible
// events using 0/1-BFS (tau edges cost 0, visible edges cost 1). State 0
// is the root.
func exploreBounded(sem *csp.Semantics, p csp.Process, maxLen int) (*traceGraph, error) {
	g := &traceGraph{}
	index := map[string]int{}
	add := func(proc csp.Process, d int) (int, bool) {
		k := proc.Key()
		if id, ok := index[k]; ok {
			if d < g.dist[id] {
				g.dist[id] = d
				return id, true // must be re-relaxed
			}
			return id, false
		}
		id := len(g.procs)
		index[k] = id
		g.procs = append(g.procs, proc)
		g.edges = append(g.edges, nil)
		g.dist = append(g.dist, d)
		return id, true
	}
	expanded := make(map[int]bool)
	root, _ := add(p, 0)
	// Deque for 0/1 BFS.
	deque := []int{root}
	for len(deque) > 0 {
		cur := deque[0]
		deque = deque[1:]
		if g.dist[cur] >= maxLen && expanded[cur] {
			continue
		}
		if !expanded[cur] {
			if len(g.procs) > maxTraceStates {
				return nil, fmt.Errorf("trace exploration exceeded %d states", maxTraceStates)
			}
			trs, err := Transitions(sem, g.procs[cur])
			if err != nil {
				return nil, fmt.Errorf("transitions of %s: %w", g.procs[cur].Key(), err)
			}
			es := make([]traceEdge, 0, len(trs))
			for _, tr := range trs {
				// Register target lazily with a provisional distance; it
				// is relaxed below.
				to, _ := add(tr.To, g.dist[cur]+1)
				es = append(es, traceEdge{ev: tr.Ev, to: to})
			}
			g.edges[cur] = es
			expanded[cur] = true
		}
		if g.dist[cur] > maxLen {
			continue
		}
		for _, e := range g.edges[cur] {
			w := 1
			if e.ev.IsTau() {
				w = 0
			}
			nd := g.dist[cur] + w
			if nd < g.dist[e.to] || !expanded[e.to] {
				if nd < g.dist[e.to] {
					g.dist[e.to] = nd
				}
				if g.dist[e.to] <= maxLen {
					if w == 0 {
						deque = append([]int{e.to}, deque...)
					} else {
						deque = append(deque, e.to)
					}
				}
			}
		}
	}
	return g, nil
}

// tauClosure returns the states reachable from s via tau edges only,
// including s, in ascending order.
func (g *traceGraph) tauClosure(s int) []int {
	seen := map[int]bool{}
	stack := []int{s}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for _, e := range g.edges[cur] {
			if e.ev.IsTau() && !seen[e.to] {
				stack = append(stack, e.to)
			}
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
