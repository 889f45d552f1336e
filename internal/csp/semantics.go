package csp

import (
	"errors"
	"fmt"
)

// Transition is one step of the operational semantics: the process can
// perform Ev and then behave as To.
type Transition struct {
	Ev Event
	To Process
}

// ErrUnguardedRecursion is returned when a chain of process-call
// unfoldings exceeds MaxUnfoldings without reaching a prefix, which
// indicates an unguarded recursive definition such as P = P.
var ErrUnguardedRecursion = errors.New("unguarded recursion: expansion budget exceeded")

// MaxUnfoldings bounds the CallProc unfoldings that computing one
// term's transitions may go through: lts's compiler counts those on one
// nested chain, the test-only reference semantics every one. Unfolding
// a conditional does not count.
const MaxUnfoldings = 4096

// Semantics holds the leaf rules of the operational semantics within a
// fixed definition environment and channel context. The rules of the
// composite operators ([], ;, [| |], \, [[ ]]) live in one place, the
// lts package's compiler, which combines memoized leaf transitions.
type Semantics struct {
	Env *Env
	Ctx *Context
}

// NewSemantics pairs a definition environment with a channel context.
func NewSemantics(env *Env, ctx *Context) *Semantics {
	return &Semantics{Env: env, Ctx: ctx}
}

// Transitions returns every transition of a leaf term: a prefix (input
// fields enumerated over their channel's declared type), an internal
// choice, SKIP, STOP or Ω. Any other term is an error; calls and
// conditionals first go through Unfold.
func (s *Semantics) Transitions(p Process) ([]Transition, error) {
	switch t := p.(type) {
	case StopProc, OmegaProc:
		return nil, nil
	case SkipProc:
		return []Transition{{Ev: Tick(), To: OmegaProc{}}}, nil
	case PrefixProc:
		return s.prefixTransitions(t)
	case IntChoiceProc:
		return []Transition{
			{Ev: Tau(), To: t.L},
			{Ev: Tau(), To: t.R},
		}, nil
	case nil:
		return nil, errors.New("nil process")
	}
	return nil, fmt.Errorf("no leaf rule for process node %T", p)
}

// Unfold returns the term a call or conditional behaves as: the call's
// instantiated body, or the branch the guard picks. ok is false for any
// other term. Unfold does not bound recursion; its callers count call
// unfoldings against MaxUnfoldings.
func (s *Semantics) Unfold(p Process) (q Process, ok bool, err error) {
	switch t := p.(type) {
	case IfProc:
		v, err := Eval(t.Cond)
		if err != nil {
			return nil, true, fmt.Errorf("conditional guard: %w", err)
		}
		b, isBool := v.(Bool)
		if !isBool {
			return nil, true, fmt.Errorf("conditional guard is not boolean: %s", v)
		}
		if b {
			return t.Then, true, nil
		}
		return t.Else, true, nil
	case CallProc:
		body, err := s.Env.Expand(t)
		return body, true, err
	}
	return nil, false, nil
}

// prefixTransitions enumerates the concrete events a prefix offers. Input
// fields range over the channel's declared field type (filtered by any
// restriction predicate); output fields are evaluated and validated
// against the field type.
func (s *Semantics) prefixTransitions(p PrefixProc) ([]Transition, error) {
	ch, ok := s.Ctx.Channel(p.Chan)
	if !ok {
		return nil, fmt.Errorf("prefix on undeclared channel %q", p.Chan)
	}
	if len(p.Fields) != len(ch.Fields) {
		return nil, fmt.Errorf("channel %q has %d field(s), prefix supplies %d",
			p.Chan, len(ch.Fields), len(p.Fields))
	}
	var out []Transition
	args := make([]Value, len(p.Fields))
	var rec func(i int, cont Process, rest []CommField) error
	rec = func(i int, cont Process, rest []CommField) error {
		if i == len(p.Fields) {
			cp := make([]Value, len(args))
			copy(cp, args)
			out = append(out, Transition{
				Ev: Event{Chan: p.Chan, Args: cp},
				To: cont,
			})
			return nil
		}
		f := rest[0]
		if !f.IsInput {
			v, err := Eval(f.Expr)
			if err != nil {
				return fmt.Errorf("output field %d of channel %q: %w", i, p.Chan, err)
			}
			if !ch.Fields[i].Contains(v) {
				return fmt.Errorf("value %s outside domain %s of channel %q field %d",
					v, ch.Fields[i].Name(), p.Chan, i)
			}
			args[i] = v
			return rec(i+1, cont, rest[1:])
		}
		for _, v := range ch.Fields[i].Values() {
			if f.Restrict != nil {
				rv, err := Eval(f.Restrict.subst(f.Var, v))
				if err != nil {
					return fmt.Errorf("input restriction on %q: %w", f.Var, err)
				}
				b, ok := rv.(Bool)
				if !ok {
					return fmt.Errorf("input restriction on %q is not boolean", f.Var)
				}
				if !b {
					continue
				}
			}
			args[i] = v
			// Bind the input variable in the remaining fields and the
			// continuation.
			nrest := make([]CommField, len(rest)-1)
			for j, rf := range rest[1:] {
				nf := rf
				if rf.IsInput {
					if rf.Restrict != nil && rf.Var != f.Var {
						nf.Restrict = rf.Restrict.subst(f.Var, v)
					}
				} else {
					nf.Expr = rf.Expr.subst(f.Var, v)
				}
				nrest[j] = nf
				if rf.IsInput && rf.Var == f.Var {
					// Shadowed: stop substituting further (copy rest as-is).
					copy(nrest[j+1:], rest[j+2:])
					break
				}
			}
			ncont := cont.Subst(f.Var, v)
			if err := rec(i+1, ncont, nrest); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, p.Cont, p.Fields); err != nil {
		return nil, err
	}
	return out, nil
}
