// Package cspref is the reference operational semantics of CSP, kept as
// an independent oracle for tests: it derives the transitions of a
// whole process term from its syntax tree, with no memo and no
// interning, and enumerates bounded trace sets from them (Traces).
//
// Production code never imports it. There, the lts package's compiler
// is the only place that combines transitions of composite terms; this
// package restates the same rules in their textbook form on top of
// csp.Semantics' leaf rules and Unfold, so that differential tests can
// compare the two. Only _test.go files may import cspref.
package cspref

import (
	"fmt"

	"repro/internal/csp"
)

// Transitions returns every transition the term can perform, evaluating
// the whole term: composite operators recurse into their operands, and
// calls and conditionals are unfolded in place. At most
// csp.MaxUnfoldings calls may be unfolded while evaluating one term.
func Transitions(sem *csp.Semantics, p csp.Process) ([]csp.Transition, error) {
	budget := csp.MaxUnfoldings
	return transitions(sem, p, &budget)
}

func transitions(sem *csp.Semantics, p csp.Process, budget *int) ([]csp.Transition, error) {
	switch t := p.(type) {
	case csp.ExtChoiceProc:
		return extChoiceTransitions(sem, t, budget)
	case csp.SeqProc:
		return seqTransitions(sem, t, budget)
	case csp.ParProc:
		return parTransitions(sem, t, budget)
	case csp.HideProc:
		return hideTransitions(sem, t, budget)
	case csp.RenameProc:
		return renameTransitions(sem, t, budget)
	case csp.CallProc:
		if *budget <= 0 {
			return nil, fmt.Errorf("expanding %s: %w", t.Key(), csp.ErrUnguardedRecursion)
		}
		*budget--
	}
	q, ok, err := sem.Unfold(p)
	if err != nil {
		return nil, err
	}
	if ok {
		return transitions(sem, q, budget)
	}
	return sem.Transitions(p)
}

func extChoiceTransitions(sem *csp.Semantics, p csp.ExtChoiceProc, budget *int) ([]csp.Transition, error) {
	lt, err := transitions(sem, p.L, budget)
	if err != nil {
		return nil, err
	}
	rt, err := transitions(sem, p.R, budget)
	if err != nil {
		return nil, err
	}
	out := make([]csp.Transition, 0, len(lt)+len(rt))
	for _, tr := range lt {
		if tr.Ev.IsTau() {
			// Tau does not resolve external choice.
			out = append(out, csp.Transition{Ev: csp.Tau(), To: csp.ExtChoiceProc{L: tr.To, R: p.R}})
		} else {
			out = append(out, tr)
		}
	}
	for _, tr := range rt {
		if tr.Ev.IsTau() {
			out = append(out, csp.Transition{Ev: csp.Tau(), To: csp.ExtChoiceProc{L: p.L, R: tr.To}})
		} else {
			out = append(out, tr)
		}
	}
	return out, nil
}

func seqTransitions(sem *csp.Semantics, p csp.SeqProc, budget *int) ([]csp.Transition, error) {
	lt, err := transitions(sem, p.L, budget)
	if err != nil {
		return nil, err
	}
	out := make([]csp.Transition, 0, len(lt))
	for _, tr := range lt {
		if tr.Ev.IsTick() {
			// Termination of the first component is internal to P;Q.
			out = append(out, csp.Transition{Ev: csp.Tau(), To: p.R})
		} else {
			out = append(out, csp.Transition{Ev: tr.Ev, To: csp.SeqProc{L: tr.To, R: p.R}})
		}
	}
	return out, nil
}

func parTransitions(sem *csp.Semantics, p csp.ParProc, budget *int) ([]csp.Transition, error) {
	lt, err := transitions(sem, p.L, budget)
	if err != nil {
		return nil, err
	}
	rt, err := transitions(sem, p.R, budget)
	if err != nil {
		return nil, err
	}
	var out []csp.Transition
	leftTick, rightTick := false, false
	for _, tr := range lt {
		switch {
		case tr.Ev.IsTick():
			leftTick = true
		case tr.Ev.IsTau() || !p.Sync.Contains(tr.Ev):
			out = append(out, csp.Transition{Ev: tr.Ev, To: csp.ParProc{L: tr.To, R: p.R, Sync: p.Sync}})
		}
	}
	for _, tr := range rt {
		switch {
		case tr.Ev.IsTick():
			rightTick = true
		case tr.Ev.IsTau() || !p.Sync.Contains(tr.Ev):
			out = append(out, csp.Transition{Ev: tr.Ev, To: csp.ParProc{L: p.L, R: tr.To, Sync: p.Sync}})
		}
	}
	// Synchronised events: both components must agree on the event.
	for _, ltr := range lt {
		if !ltr.Ev.IsVisible() || !p.Sync.Contains(ltr.Ev) {
			continue
		}
		for _, rtr := range rt {
			if rtr.Ev.IsVisible() && p.Sync.Contains(rtr.Ev) && ltr.Ev.Equal(rtr.Ev) {
				out = append(out, csp.Transition{
					Ev: ltr.Ev,
					To: csp.ParProc{L: ltr.To, R: rtr.To, Sync: p.Sync},
				})
			}
		}
	}
	// Distributed termination: the composition terminates when both can.
	if leftTick && rightTick {
		out = append(out, csp.Transition{Ev: csp.Tick(), To: csp.OmegaProc{}})
	}
	return out, nil
}

func hideTransitions(sem *csp.Semantics, p csp.HideProc, budget *int) ([]csp.Transition, error) {
	inner, err := transitions(sem, p.P, budget)
	if err != nil {
		return nil, err
	}
	out := make([]csp.Transition, 0, len(inner))
	for _, tr := range inner {
		switch {
		case tr.Ev.IsTick():
			out = append(out, csp.Transition{Ev: csp.Tick(), To: csp.OmegaProc{}})
		case p.Set.Contains(tr.Ev):
			out = append(out, csp.Transition{Ev: csp.Tau(), To: csp.HideProc{P: tr.To, Set: p.Set}})
		default:
			out = append(out, csp.Transition{Ev: tr.Ev, To: csp.HideProc{P: tr.To, Set: p.Set}})
		}
	}
	return out, nil
}

func renameTransitions(sem *csp.Semantics, p csp.RenameProc, budget *int) ([]csp.Transition, error) {
	inner, err := transitions(sem, p.P, budget)
	if err != nil {
		return nil, err
	}
	out := make([]csp.Transition, 0, len(inner))
	for _, tr := range inner {
		ev := tr.Ev
		if ev.IsVisible() {
			if to, ok := p.Mapping[ev.Chan]; ok {
				ev = csp.Event{Chan: to, Args: ev.Args}
			}
		}
		if tr.Ev.IsTick() {
			out = append(out, csp.Transition{Ev: csp.Tick(), To: csp.OmegaProc{}})
			continue
		}
		out = append(out, csp.Transition{Ev: ev, To: csp.RenameProc{P: tr.To, Mapping: p.Mapping}})
	}
	return out, nil
}
