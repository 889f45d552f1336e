package refine

import (
	"fmt"
	"slices"

	"repro/internal/csp"
	"repro/internal/csp/cspref"
)

// AcceptsTraceReference is the frozen string-keyed trace-membership
// check AcceptsTrace replaced, kept as its independent oracle: terms are
// identified by their canonical Key() strings, every frontier term's
// whole syntax tree is evaluated by the reference semantics
// (cspref.Transitions), and observed events are matched with
// csp.Event.Equal. It honours the same budgets and stop-signal probes,
// so every field of the result and every error must agree with
// AcceptsTrace's.
func (c *Checker) AcceptsTraceReference(p csp.Process, t csp.Trace) (TraceCheck, error) {
	maxStates := c.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	ctx, cancel := c.stopSignal()
	defer cancel()

	visited := map[string]bool{}
	trans := map[string][]csp.Transition{}
	transitions := func(key string, p csp.Process) ([]csp.Transition, error) {
		if ts, ok := trans[key]; ok {
			return ts, nil
		}
		ts, err := cspref.Transitions(c.Sem, p)
		if err != nil {
			return nil, fmt.Errorf("transitions of %s: %w", key, err)
		}
		trans[key] = ts
		return ts, nil
	}
	probes := 0
	budgetErr := func(phase string, limit int) *BudgetError {
		return &BudgetError{Phase: phase, Explored: len(visited), Limit: limit}
	}

	type frontierEntry struct {
		key  string
		proc csp.Process
	}
	closure := func(seed []frontierEntry) ([]frontierEntry, error) {
		out := make([]frontierEntry, 0, len(seed))
		seen := map[string]bool{}
		stack := append([]frontierEntry(nil), seed...)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[cur.key] {
				continue
			}
			seen[cur.key] = true
			out = append(out, cur)
			if !visited[cur.key] {
				visited[cur.key] = true
				if len(visited) > maxStates {
					return nil, budgetErr("trace", maxStates)
				}
			}
			probes++
			if ctx != nil && probes%stopCheckInterval == 0 && ctx.Err() != nil {
				return nil, c.stopped(ctx, "trace", len(visited))
			}
			trs, err := transitions(cur.key, cur.proc)
			if err != nil {
				return nil, err
			}
			for _, tr := range trs {
				if tr.Ev.IsTau() {
					k := tr.To.Key()
					if !seen[k] {
						stack = append(stack, frontierEntry{key: k, proc: tr.To})
					}
				}
			}
		}
		return out, nil
	}

	frontier, err := closure([]frontierEntry{{key: p.Key(), proc: p}})
	if err != nil {
		return TraceCheck{}, err
	}

	for i, ev := range t {
		var next []frontierEntry
		nextSeen := map[string]bool{}
		allowed := map[string]csp.Event{}
		for _, fe := range frontier {
			probes++
			if ctx != nil && probes%stopCheckInterval == 0 && ctx.Err() != nil {
				return TraceCheck{}, c.stopped(ctx, "trace", len(visited))
			}
			trs, err := transitions(fe.key, fe.proc)
			if err != nil {
				return TraceCheck{}, err
			}
			for _, tr := range trs {
				if tr.Ev.IsTau() {
					continue
				}
				allowed[csp.IdentityKey(tr.Ev)] = tr.Ev
				if !tr.Ev.Equal(ev) {
					continue
				}
				k := tr.To.Key()
				if !nextSeen[k] {
					nextSeen[k] = true
					if !visited[k] {
						visited[k] = true
						if len(visited) > maxStates {
							return TraceCheck{}, budgetErr("trace", maxStates)
						}
					}
					next = append(next, frontierEntry{key: k, proc: tr.To})
				}
			}
		}
		if len(next) == 0 {
			bad := ev
			return TraceCheck{
				FailedAt: i,
				BadEvent: &bad,
				Allowed:  sortedEvents(allowed),
				States:   len(visited),
			}, nil
		}
		frontier, err = closure(next)
		if err != nil {
			return TraceCheck{}, err
		}
	}
	return TraceCheck{Accepted: true, FailedAt: -1, States: len(visited)}, nil
}

// sortedEvents lists a diagnosis in csp.Compare order, as offered does.
func sortedEvents(m map[string]csp.Event) []csp.Event {
	out := make([]csp.Event, 0, len(m))
	for _, ev := range m {
		out = append(out, ev)
	}
	slices.SortFunc(out, csp.Compare)
	return out
}
