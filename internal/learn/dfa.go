package learn

import (
	"encoding/binary"
	"fmt"

	"repro/internal/csp"
)

// DFA is a complete deterministic automaton over a fixed event
// alphabet — the learner's hypothesis. For the trace languages learned
// here (prefix-closed by construction) the non-accepting states form a
// reject region; they are kept explicit so the automaton stays total
// and W-method access strings cover every row of the observation table.
type DFA struct {
	// Alpha is the event alphabet, fixed order.
	Alpha []csp.Event
	// States is the state count; states are 0..States-1.
	States int
	// Initial is the start state.
	Initial int
	// Accepting marks the states whose access words are in the language.
	Accepting []bool
	// Delta is the total transition function Delta[state][symbol].
	Delta [][]int
	// Access holds one access word per state (how the learner reaches
	// it from the initial state); after Canonical these are the
	// BFS-shortest access words.
	Access []csp.Trace
}

// symbol returns the alphabet index of ev. Events are matched by
// csp.Event.Equal identity, so an event that merely renders like a
// symbol is not one.
func symbol(alpha []csp.Event, ev csp.Event) (int, bool) {
	for i, a := range alpha {
		if a.Equal(ev) {
			return i, true
		}
	}
	return 0, false
}

// wordKey is the identity of a word over alpha: its symbols' indices,
// uvarint-encoded (the encoding of SimTeacher's memo key). ok is false
// if w has an event outside alpha.
func wordKey(alpha []csp.Event, w csp.Trace) (key string, ok bool) {
	var arr [32]byte
	b := arr[:0]
	for _, ev := range w {
		i, ok := symbol(alpha, ev)
		if !ok {
			return "", false
		}
		b = binary.AppendUvarint(b, uint64(i))
	}
	return string(b), true
}

// Walk returns the state reached from the initial state on w. Events
// outside the alphabet report an error — the learner never generates
// them, so one appearing means a caller projected a foreign trace.
func (d *DFA) Walk(w csp.Trace) (int, error) {
	st := d.Initial
	for _, ev := range w {
		a, ok := symbol(d.Alpha, ev)
		if !ok {
			return 0, fmt.Errorf("learn: event %s not in the learned alphabet", ev)
		}
		st = d.Delta[st][a]
	}
	return st, nil
}

// Accepts reports whether w is in the hypothesis language.
func (d *DFA) Accepts(w csp.Trace) bool {
	st, err := d.Walk(w)
	if err != nil {
		return false
	}
	return d.Accepting[st]
}

// Canonical renumbers the states in breadth-first order from the
// initial state (alphabet order per level) and recomputes shortest
// access words, dropping unreachable states. Two runs that learn the
// same language at different worker counts therefore render the same
// automaton byte for byte.
func (d *DFA) Canonical() *DFA {
	order := make([]int, 0, d.States)
	newIdx := make([]int, d.States)
	for i := range newIdx {
		newIdx[i] = -1
	}
	newIdx[d.Initial] = 0
	order = append(order, d.Initial)
	access := []csp.Trace{{}}
	for qi := 0; qi < len(order); qi++ {
		old := order[qi]
		for a := range d.Alpha {
			to := d.Delta[old][a]
			if newIdx[to] >= 0 {
				continue
			}
			newIdx[to] = len(order)
			order = append(order, to)
			step := append(append(csp.Trace{}, access[qi]...), d.Alpha[a])
			access = append(access, step)
		}
	}
	out := &DFA{
		Alpha:     d.Alpha,
		States:    len(order),
		Initial:   0,
		Accepting: make([]bool, len(order)),
		Delta:     make([][]int, len(order)),
		Access:    access,
	}
	for ni, old := range order {
		out.Accepting[ni] = d.Accepting[old]
		row := make([]int, len(d.Alpha))
		for a := range d.Alpha {
			row[a] = newIdx[d.Delta[old][a]]
		}
		out.Delta[ni] = row
	}
	return out
}

// Lower registers the accepting part of the automaton as process
// definitions in env (one per accepting state, named prefix_S<n>) and
// returns the root process. Transitions into rejecting states are
// simply not offered — the language is prefix-closed, so the lowered
// process's trace set is exactly the accepted language — and an
// accepting state with no live successors lowers to STOP.
func (d *DFA) Lower(env *csp.Env, prefix string) (csp.Process, error) {
	name := func(i int) string { return fmt.Sprintf("%s_S%d", prefix, i) }
	for i := 0; i < d.States; i++ {
		if !d.Accepting[i] {
			continue
		}
		var branches []csp.Process
		for a, ev := range d.Alpha {
			j := d.Delta[i][a]
			if j < 0 || !d.Accepting[j] {
				continue
			}
			branches = append(branches, csp.Send(ev.Chan, csp.Call(name(j)), ev.Args...))
		}
		if err := env.Define(name(i), nil, csp.ExtChoice(branches...)); err != nil {
			return nil, fmt.Errorf("learn: lower state %d: %w", i, err)
		}
	}
	if d.States == 0 || !d.Accepting[d.Initial] {
		// The empty language: no teacher produces it (the empty word is
		// always a trace), but lower it total anyway.
		return csp.Stop(), nil
	}
	return csp.Call(name(d.Initial)), nil
}

// DFAEdge is one rendered transition.
type DFAEdge struct {
	From  int    `json:"from"`
	Event string `json:"event"`
	To    int    `json:"to"`
}

// DFAJSON is the canonical wire rendering of a learned automaton,
// stable across runs and worker counts.
type DFAJSON struct {
	Alphabet  []string  `json:"alphabet"`
	States    int       `json:"states"`
	Initial   int       `json:"initial"`
	Accepting []int     `json:"accepting"`
	Edges     []DFAEdge `json:"edges"`
}

// JSON renders the automaton. Call on a Canonical automaton for a
// deterministic baseline rendering.
func (d *DFA) JSON() *DFAJSON {
	out := &DFAJSON{States: d.States, Initial: d.Initial}
	for _, a := range d.Alpha {
		out.Alphabet = append(out.Alphabet, a.String())
	}
	for i := 0; i < d.States; i++ {
		if d.Accepting[i] {
			out.Accepting = append(out.Accepting, i)
		}
	}
	for i := 0; i < d.States; i++ {
		for a, ev := range d.Alpha {
			out.Edges = append(out.Edges, DFAEdge{From: i, Event: ev.String(), To: d.Delta[i][a]})
		}
	}
	return out
}
