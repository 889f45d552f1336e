package lts

import (
	"repro/internal/csp"
	"repro/internal/obs"
)

// Derived views. The states of a hiding P \ X are exactly P' \ X for
// the states P' of P, and each has P''s transitions relabelled: an event
// of X becomes tau, and a tick goes to Ω. A renaming P[[R]] is the same,
// with each event renamed. So when a Cache is asked for a term whose
// root is such a view — the term itself, or what its calls and
// conditionals unfold to — it takes P's LTS from the cache and derives
// the view in one pass over P's edges instead of exploring the wrapped
// term again. "Hidden" or "renamed to" is decided once per event of P,
// not once per transition. The derived LTS is the one Explore builds:
// the same BFS numbering, edge order, event table, Ω states and keys.
// A call or conditional root is its own state 0, so when P comes back
// to its root the view gets a distinct root \ X state, as exploration
// does.

// Marks in view.of for the states that wrap no base state.
const (
	omegaState = -1 // Ω, which every tick leads to
	rootState  = -2 // the requested call or conditional
)

// view is what a derived LTS keeps instead of node records: the view
// term, the LTS of its operand, and the base state each of its states
// wraps. A root that unfolds to the view is state 0, which expands as
// the base root does.
type view struct {
	viewTerm
	base *LTS
	of   []int32 // state ID -> base state ID, omegaState or rootState
}

// proc rebuilds the term of state id: w around its base state's term.
func (v *view) proc(id int) csp.Process {
	switch b := v.of[id]; b {
	case omegaState:
		return csp.OmegaProc{}
	case rootState:
		return v.root
	default:
		switch w := v.w.(type) {
		case csp.HideProc:
			w.P = v.base.proc(int(b))
			return w
		case csp.RenameProc:
			w.P = v.base.proc(int(b))
			return w
		}
		panic("lts: a view wraps neither a hiding nor a renaming")
	}
}

// viewTerm is a term whose root is a hiding or renaming, as viewOf
// finds it.
type viewTerm struct {
	// w is the csp.HideProc or csp.RenameProc at the root.
	w csp.Process
	// root is the term itself when its calls and conditionals unfold to
	// w, and nil when it is w.
	root csp.Process
	// operand is w's operand, and operandKey its cache key.
	operand    csp.Process
	operandKey string
}

// viewOf reports whether p is a view: a hiding or renaming at its root,
// either p itself or the term p's calls and conditionals unfold to. ok
// is false when the chain of views below p (the view's operand, the
// operand's own view, and so on) comes back to p or to a term already
// on it, or unfolds more than csp.MaxUnfoldings calls: such a term
// recurses without a guard (Q = Q \ X), and deriving it would wait on
// its own cache entry. Exploring it reports the recursion as before.
// The answer depends on p alone, so goroutines deriving along one chain
// wait on each other's entries in one direction only.
func viewOf(sem *csp.Semantics, p csp.Process, key string) (v viewTerm, ok bool) {
	var seen map[string]bool
	calls := 0
	for q := p; ; {
		var next csp.Process
		switch x := q.(type) {
		case csp.HideProc:
			next = x.P
		case csp.RenameProc:
			next = x.P
		default:
			body, unfolds, err := sem.Unfold(q)
			if !unfolds || err != nil {
				// The chain ends. Below the first view, an operand that
				// fails to evaluate fails its own exploration.
				return v, v.w != nil
			}
			if _, call := q.(csp.CallProc); call {
				if calls++; calls > csp.MaxUnfoldings {
					return viewTerm{}, false
				}
			}
			if v.w == nil {
				v.root = p
			}
			q = body
			continue
		}
		k := csp.IdentityKey(next)
		if seen == nil {
			seen = map[string]bool{key: true}
		}
		if seen[k] {
			return viewTerm{}, false
		}
		seen[k] = true
		if v.w == nil {
			v.w, v.operand, v.operandKey = q, next, k
		}
		q = next
	}
}

// derive builds the LTS of the view t over base, the LTS of t's
// operand. It trips MaxStates exactly where exploring the view would,
// and polls opts.Ctx and checks opts.MaxMemBytes once per BFS level.
func derive(base *LTS, t viewTerm, opts Options) (l *LTS, err error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	span := opts.Obs.StartSpan("lts.derive")
	v := &view{viewTerm: t, base: base, of: make([]int32, 0, base.NumStates()+2)}
	d := &derivation{
		l:         &LTS{Events: []csp.Event{csp.Tau(), csp.Tick()}, view: v},
		relabel:   make([]int32, len(base.Events)),
		stateOf:   make([]int32, base.NumStates()),
		omega:     -1,
		bytes:     base.estBytes,
		maxStates: maxStates,
	}
	defer func() {
		if span != nil {
			span.End(obs.Int("states", int64(len(v.of))), obs.Int("transitions", int64(d.l.NumTransitions())),
				obs.Int("base.states", int64(base.NumStates())), obs.String("outcome", outcome(err)))
		}
	}()
	d.relabel[TauID], d.relabel[TickID] = TauID, TickID
	for i := TickID + 1; i < len(d.relabel); i++ {
		d.relabel[i] = -1
	}
	first := int32(rootState)
	if t.root == nil {
		first = int32(base.Init)
		d.stateOf[base.Init] = 1
	}
	_, _ = d.add(first) // the first state is within any bound
	// Every state but Ω has exactly the edges of the base state it
	// wraps; a call root re-reached as root \ X adds the root's again.
	buf := make([]Edge, base.NumTransitions()+len(base.Edges[base.Init]))
	levelEnd := 0
	for s := 0; s < len(v.of); s++ {
		if s == levelEnd {
			levelEnd = len(v.of)
			if opts.MaxMemBytes > 0 && d.bytes > opts.MaxMemBytes {
				return nil, &MemoryError{Explored: len(v.of), EstimatedBytes: d.bytes, Limit: opts.MaxMemBytes}
			}
			if err := stopped(opts.Ctx, len(v.of)); err != nil {
				return nil, err
			}
		}
		var src []Edge
		switch b := v.of[s]; b {
		case omegaState:
		case rootState:
			src = base.Edges[base.Init]
		default:
			src = base.Edges[b]
		}
		out := buf[:len(src):len(src)]
		buf = buf[len(src):]
		for i, e := range src {
			to, err := d.successor(e)
			if err != nil {
				return nil, err
			}
			out[i] = Edge{Ev: d.event(e.Ev), To: int(to)}
		}
		d.l.Edges[s] = out
		d.bytes += int64(len(out)) * ltsEdgeBytes
	}
	d.l.estBytes = d.bytes
	return d.l, nil
}

// derivation is the state of one derive pass.
type derivation struct {
	l *LTS // the LTS being derived; l.view is its view
	// relabel maps a base event ID to the view's, -1 until first seen;
	// renamed maps a renamed event's identity to its view ID, since a
	// renaming may send several base events to one.
	relabel []int32
	renamed map[string]int32
	// stateOf maps a base state to the view state wrapping it, + 1.
	stateOf   []int32
	omega     int32
	bytes     int64 // the resident-size estimate so far
	maxStates int
}

// add makes a new view state wrapping base state b (or a mark),
// enforcing the exact bound as exploration does.
func (d *derivation) add(b int32) (int32, error) {
	n := len(d.l.view.of)
	if n >= d.maxStates {
		return 0, &LimitError{Explored: n, Limit: d.maxStates}
	}
	d.l.view.of = append(d.l.view.of, b)
	d.l.Edges = append(d.l.Edges, nil)
	d.bytes += ltsStateOverhead
	return int32(n), nil
}

// successor returns the view state a base edge leads to: Ω for a tick,
// otherwise the view of the base target.
func (d *derivation) successor(e Edge) (int32, error) {
	if e.Ev == TickID {
		if d.omega < 0 {
			id, err := d.add(omegaState)
			if err != nil {
				return 0, err
			}
			d.omega = id
		}
		return d.omega, nil
	}
	if d.stateOf[e.To] == 0 {
		id, err := d.add(int32(e.To))
		if err != nil {
			return 0, err
		}
		d.stateOf[e.To] = id + 1
	}
	return d.stateOf[e.To] - 1, nil
}

// event returns the view's ID for base event b, assigning view IDs in
// order of first appearance on an edge as exploration does.
func (d *derivation) event(b int) int {
	if id := d.relabel[b]; id >= 0 {
		return int(id)
	}
	ev := d.l.view.base.Events[b]
	id := int32(-1)
	switch w := d.l.view.w.(type) {
	case csp.HideProc:
		if w.Set.Contains(ev) {
			id = TauID
		}
	case csp.RenameProc:
		if to, ok := w.Mapping[ev.Chan]; ok {
			ev = csp.Event{Chan: to, Args: ev.Args}
		}
		if d.renamed == nil {
			d.renamed = map[string]int32{}
		}
		k := csp.IdentityKey(ev)
		if known, ok := d.renamed[k]; ok {
			id = known
		} else {
			d.renamed[k] = int32(len(d.l.Events))
		}
	}
	if id < 0 {
		id = int32(len(d.l.Events))
		d.l.Events = append(d.l.Events, ev)
		d.bytes += eventEntryOverhead
	}
	d.relabel[b] = id
	return int(id)
}
