package refine

import (
	"slices"

	"repro/internal/csp"
	"repro/internal/lts"
	"repro/internal/obs"
)

// TraceCheck is the outcome of an on-the-fly trace-membership check: is
// an observed event sequence a trace of the model? Unlike Refines, the
// check never builds the full LTS of the model — it advances a frontier
// of process terms event by event, so cost is proportional to the trace
// length times the local branching, not to the model's state space.
type TraceCheck struct {
	// Accepted is true when the whole trace is a trace of the process.
	Accepted bool
	// FailedAt is the index of the first event the model could not
	// perform (meaningful when !Accepted). Every shorter prefix was
	// accepted — traces are prefix-closed.
	FailedAt int
	// BadEvent is the event at FailedAt.
	BadEvent *csp.Event
	// Allowed lists the visible events the model offered at the point
	// of failure, the counterexample diagnosis.
	Allowed []csp.Event
	// States is the number of distinct process terms visited.
	States int
}

// AcceptsTrace reports whether t is a trace of p (with arbitrary
// internal activity interleaved): the conformance question "could the
// extracted model have produced this observed event sequence?". The
// checker's MaxStates and MaxDuration budgets apply; exhausting either
// returns a *BudgetError ("trace" / "trace-deadline" phase). A
// cancelled Ctx stops the walk with an error matching ctx.Err().
//
// The check walks the compiled semantics (lts.Compile): terms are
// TermIDs with transitions memoized per call, events match by compiled
// ID, and strings are rendered only for Allowed and error messages. The
// memo is released for reuse when the check returns.
func (c *Checker) AcceptsTrace(p csp.Process, t csp.Trace) (res TraceCheck, err error) {
	maxStates := c.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	ctx, cancel := c.stopSignal()
	defer cancel()
	m := lts.Compile(c.Sem)
	defer m.Release()

	// mark holds, per TermID, the last pass (frontier construction) that
	// reached the term, 0 if none. A term is charged against MaxStates
	// when a pass first reaches it: a visible step's successors as they
	// are interned, so one wide step cannot overshoot the budget.
	var mark []uint32
	var pass uint32
	states, probes := 0, 0
	if c.Obs != nil {
		span := c.Obs.StartSpan("refine.trace", obs.Int("events", int64(len(t))), obs.Bool("memo.reused", m.Reused()))
		defer func() {
			hits, misses := m.Memo()
			span.End(obs.String("verdict", verdictOf(Result{Holds: res.Accepted}, err)),
				obs.Int("states", int64(states)), obs.Int("memo.hits", hits), obs.Int("memo.misses", misses))
			c.Obs.Counter("refine.trace.states").Add(int64(states))
		}()
	}
	// reach reports whether the current pass reaches id for the first time.
	reach := func(id csp.TermID) (bool, error) {
		if int(id) >= len(mark) {
			mark = append(mark, make([]uint32, int(id)+1-len(mark))...)
		}
		switch mark[id] {
		case pass:
			return false, nil
		case 0:
			if states++; states > maxStates {
				return false, &BudgetError{Phase: "trace", Explored: states, Limit: maxStates}
			}
		}
		mark[id] = pass
		return true, nil
	}
	// expand returns the transitions of a frontier term, probing the
	// stop signal first: the closure and the visible step both probe, so
	// neither a tau-rich nor a wide tau-free model ignores it.
	expand := func(id csp.TermID) ([]lts.Step, error) {
		probes++
		if ctx != nil && probes%stopCheckInterval == 0 && ctx.Err() != nil {
			return nil, c.stopped(ctx, "trace", states)
		}
		return m.Steps(id)
	}

	// closure expands seed to its tau-closure in out, returning the
	// stable frontier (every term, whether or not it has tau moves, can
	// also offer visible events).
	var stack []csp.TermID
	closure := func(seed, out []csp.TermID) ([]csp.TermID, error) {
		pass++
		stack = append(stack[:0], seed...)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if fresh, err := reach(cur); !fresh {
				if err != nil {
					return nil, err
				}
				continue
			}
			out = append(out, cur)
			steps, err := expand(cur)
			if err != nil {
				return nil, err
			}
			for _, s := range steps {
				if s.Ev == lts.TauID {
					stack = append(stack, s.To)
				}
			}
		}
		return out, nil
	}

	frontier, err := closure([]csp.TermID{m.Intern(p)}, nil)
	if err != nil {
		return TraceCheck{}, err
	}
	var next []csp.TermID
	for i, ev := range t {
		want := m.Event(ev)
		pass++
		next = next[:0]
		for _, id := range frontier {
			steps, err := expand(id)
			if err != nil {
				return TraceCheck{}, err
			}
			for _, s := range steps {
				if s.Ev == want && want != lts.TauID {
					fresh, err := reach(s.To)
					if err != nil {
						return TraceCheck{}, err
					}
					if fresh {
						next = append(next, s.To)
					}
				}
			}
		}
		if len(next) == 0 {
			bad := ev
			return TraceCheck{FailedAt: i, BadEvent: &bad, Allowed: offered(m, frontier), States: states}, nil
		}
		if frontier, err = closure(next, frontier[:0]); err != nil {
			return TraceCheck{}, err
		}
	}
	return TraceCheck{Accepted: true, FailedAt: -1, States: states}, nil
}

// offered is the failure diagnosis: the visible events a frontier
// offers, each once by compiled event ID (which is event identity), in
// csp.Compare order, which keeps conformance reports byte-identical.
// Every frontier term's steps are memoized.
func offered(m *lts.Compiled, frontier []csp.TermID) []csp.Event {
	var out []csp.Event
	seen := map[int32]bool{}
	for _, id := range frontier {
		steps, _ := m.Steps(id)
		for _, s := range steps {
			if s.Ev != lts.TauID && !seen[s.Ev] {
				seen[s.Ev] = true
				out = append(out, m.EventOf(s.Ev))
			}
		}
	}
	slices.SortFunc(out, csp.Compare)
	return out
}
