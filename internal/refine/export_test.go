package refine

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/csp"
	"repro/internal/csp/cspref"
	"repro/internal/lts"
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

// RefinesReference is Refines with the product search replaced by
// productCheckReference, the map-based search productCheck replaced,
// kept as its oracle. It also returns the number of implementation
// transitions the search examined, the count MaxSteps bounds.
func (c *Checker) RefinesReference(spec, impl csp.Process, model Model) (Result, int, error) {
	res, st, err := c.refines(spec, impl, model, (*Checker).productCheckReference)
	return res, st.steps, err
}

// RefinesMeasured is Refines that also returns the number of
// implementation transitions the search examined.
func (c *Checker) RefinesMeasured(spec, impl csp.Process, model Model) (Result, int, error) {
	res, st, err := c.refines(spec, impl, model, (*Checker).productCheck)
	return res, st.steps, err
}

// refPair and refParent are the reference search's visited-map key and
// value: a pair, and the pair and implementation label it was first
// reached from (label -1 for the root).
type refPair struct{ impl, spec int }

type refParent struct {
	from refPair
	ev   int
}

// productCheckReference is the product search as a Go map from each
// visited pair to its parent and a re-sliced queue, with the refusal
// test done over a map of the offered labels. It honours the same
// budgets and stop-signal probes as productCheck.
func (c *Checker) productCheckReference(ctx context.Context, specLTS *lts.LTS, norm *lts.Normalized, implLTS *lts.LTS, model Model) (Result, searchStats, error) {
	implToSpec := mapEvents(specLTS.Events, implLTS.Events)

	start := refPair{impl: implLTS.Init, spec: norm.Init}
	visited := map[refPair]refParent{start: {ev: -1}}
	queue := []refPair{start}

	rebuild := func(ps refPair, extra *csp.Event) csp.Trace {
		var rev []csp.Event
		cur := ps
		for {
			pe := visited[cur]
			if pe.ev == -1 {
				break
			}
			if pe.ev != lts.TauID {
				rev = append(rev, implLTS.EventByID(pe.ev))
			}
			cur = pe.from
		}
		trace := make(csp.Trace, 0, len(rev)+1)
		for i := len(rev) - 1; i >= 0; i-- {
			trace = append(trace, rev[i])
		}
		if extra != nil {
			trace = append(trace, *extra)
		}
		return trace
	}
	refusalPossible := func(node int, offered []int) bool {
		offSet := make(map[int]bool, len(offered))
		for _, o := range offered {
			offSet[o] = true
		}
		for _, acc := range norm.Nodes[node].MinAcceptances {
			ok := true
			for _, a := range acc {
				if !offSet[a] {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		return false
	}

	steps := 0
	stats := func() searchStats { return searchStats{steps: steps} }
	visitedProduct := 0
	for len(queue) > 0 {
		ps := queue[0]
		queue = queue[1:]
		visitedProduct++
		if ctx != nil && visitedProduct%stopCheckInterval == 0 && ctx.Err() != nil {
			return Result{}, stats(), c.stopped(ctx, "product", visitedProduct)
		}

		if model == Failures && implLTS.IsStable(ps.impl) {
			offered := implLTS.Initials(ps.impl)
			mapped := make([]int, 0, len(offered))
			for _, o := range offered {
				mapped = append(mapped, implToSpec[o])
			}
			if !refusalPossible(ps.spec, mapped) {
				return Result{
					Holds:          false,
					Counterexample: rebuild(ps, nil),
					Reason: fmt.Sprintf(
						"implementation stable state refuses more than the specification allows (offers %s)",
						labelNames(implLTS, offered)),
					ProductStates: len(visited),
				}, stats(), nil
			}
		}

		for _, e := range implLTS.Edges[ps.impl] {
			steps++
			if c.MaxSteps > 0 && steps > c.MaxSteps {
				return Result{}, stats(), &BudgetError{Phase: "product-steps", Explored: steps - 1, Limit: c.MaxSteps}
			}
			if e.Ev == lts.TauID {
				next := refPair{impl: e.To, spec: ps.spec}
				if _, seen := visited[next]; !seen {
					if c.MaxProductStates > 0 && len(visited) >= c.MaxProductStates {
						return Result{}, stats(), &BudgetError{Phase: "product", Explored: visitedProduct, Limit: c.MaxProductStates}
					}
					visited[next] = refParent{from: ps, ev: lts.TauID}
					queue = append(queue, next)
				}
				continue
			}
			specLabel := implToSpec[e.Ev]
			var specTo int
			ok := specLabel >= 0
			if ok {
				specTo, ok = norm.Accepts(ps.spec, specLabel)
			}
			if !ok {
				bad := implLTS.EventByID(e.Ev)
				return Result{
					Holds:          false,
					Counterexample: rebuild(ps, &bad),
					BadEvent:       &bad,
					Reason:         fmt.Sprintf("implementation performs %s, which the specification cannot", bad),
					ProductStates:  len(visited),
				}, stats(), nil
			}
			next := refPair{impl: e.To, spec: specTo}
			if _, seen := visited[next]; !seen {
				if c.MaxProductStates > 0 && len(visited) >= c.MaxProductStates {
					return Result{}, stats(), &BudgetError{Phase: "product", Explored: visitedProduct, Limit: c.MaxProductStates}
				}
				visited[next] = refParent{from: ps, ev: e.Ev}
				queue = append(queue, next)
			}
		}
	}
	return Result{Holds: true, ProductStates: len(visited)}, stats(), nil
}
