package csp

import (
	"sort"
	"strings"
)

// Process is a CSP process term. Terms are immutable; taking a transition
// produces a new term (input bindings are applied by substitution, so a
// term is always closed).
type Process interface {
	// Key renders the term as canonical syntax, for messages and
	// display. It is not an identity: Int(5) and Sym("5") render alike.
	// Exploration identifies states by their interned TermID, and
	// IdentityKey is the identity wherever a string key is needed.
	Key() string
	// Subst replaces free occurrences of a variable with a value.
	Subst(name string, v Value) Process
}

// StopProc is the deadlocked process STOP: it engages in no event.
type StopProc struct{}

// Key returns "STOP".
func (StopProc) Key() string { return "STOP" }

// Subst returns STOP unchanged.
func (s StopProc) Subst(string, Value) Process { return s }

// SkipProc is SKIP: it terminates successfully (performs tick).
type SkipProc struct{}

// Key returns "SKIP".
func (SkipProc) Key() string { return "SKIP" }

// Subst returns SKIP unchanged.
func (s SkipProc) Subst(string, Value) Process { return s }

// OmegaProc is the terminated process reached after tick.
type OmegaProc struct{}

// Key returns "Ω".
func (OmegaProc) Key() string { return "Ω" }

// Subst returns Ω unchanged.
func (o OmegaProc) Subst(string, Value) Process { return o }

// Stop returns the STOP process.
func Stop() Process { return StopProc{} }

// Skip returns the SKIP process.
func Skip() Process { return SkipProc{} }

// CommField is one dotted component of a prefix communication: either an
// output expression (c!e or c.e) or an input binder (c?x), optionally
// restricted by a predicate over the bound variable (c?x:pred).
type CommField struct {
	IsInput  bool
	Var      string // input binder name (IsInput)
	Restrict Expr   // optional boolean predicate mentioning Var (IsInput)
	Expr     Expr   // output expression (!IsInput)
}

// In builds an unrestricted input field c?x.
func In(name string) CommField { return CommField{IsInput: true, Var: name} }

// InSuchThat builds a restricted input field: only values for which pred
// (an expression over the bound variable) evaluates true are offered.
func InSuchThat(name string, pred Expr) CommField {
	return CommField{IsInput: true, Var: name, Restrict: pred}
}

// Out builds an output field c!e.
func Out(e Expr) CommField { return CommField{Expr: e} }

// OutVal builds an output field carrying a literal value.
func OutVal(v Value) CommField { return CommField{Expr: Lit{Val: v}} }

func (f CommField) key() string {
	if f.IsInput {
		if f.Restrict != nil {
			return "?" + f.Var + ":" + f.Restrict.Key()
		}
		return "?" + f.Var
	}
	return "!" + f.Expr.Key()
}

// PrefixProc is the prefix process c<fields> -> P.
type PrefixProc struct {
	Chan   string
	Fields []CommField
	Cont   Process
}

// Key returns canonical prefix syntax.
func (p PrefixProc) Key() string {
	var sb strings.Builder
	sb.WriteString(p.Chan)
	for _, f := range p.Fields {
		sb.WriteString(f.key())
	}
	sb.WriteString(" -> ")
	sb.WriteString(p.Cont.Key())
	return sb.String()
}

// Subst substitutes into output expressions, input restrictions and the
// continuation, respecting shadowing by input binders.
func (p PrefixProc) Subst(name string, v Value) Process {
	fields := make([]CommField, len(p.Fields))
	shadowed := false
	for i, f := range p.Fields {
		nf := f
		if !shadowed {
			if f.IsInput {
				if f.Restrict != nil && f.Var != name {
					nf.Restrict = f.Restrict.subst(name, v)
				}
				if f.Var == name {
					shadowed = true
				}
			} else {
				nf.Expr = f.Expr.subst(name, v)
			}
		}
		fields[i] = nf
	}
	cont := p.Cont
	if !shadowed {
		cont = cont.Subst(name, v)
	}
	return PrefixProc{Chan: p.Chan, Fields: fields, Cont: cont}
}

// ExtChoiceProc is external choice P [] Q.
type ExtChoiceProc struct{ L, R Process }

// Key returns canonical choice syntax.
func (p ExtChoiceProc) Key() string { return "(" + p.L.Key() + " [] " + p.R.Key() + ")" }

// Subst substitutes into both branches.
func (p ExtChoiceProc) Subst(name string, v Value) Process {
	return ExtChoiceProc{L: p.L.Subst(name, v), R: p.R.Subst(name, v)}
}

// IntChoiceProc is internal (nondeterministic) choice P |~| Q.
type IntChoiceProc struct{ L, R Process }

// Key returns canonical choice syntax.
func (p IntChoiceProc) Key() string { return "(" + p.L.Key() + " |~| " + p.R.Key() + ")" }

// Subst substitutes into both branches.
func (p IntChoiceProc) Subst(name string, v Value) Process {
	return IntChoiceProc{L: p.L.Subst(name, v), R: p.R.Subst(name, v)}
}

// SeqProc is sequential composition P ; Q: behaves as P until it
// terminates, then as Q.
type SeqProc struct{ L, R Process }

// Key returns canonical sequence syntax.
func (p SeqProc) Key() string { return "(" + p.L.Key() + " ; " + p.R.Key() + ")" }

// Subst substitutes into both components.
func (p SeqProc) Subst(name string, v Value) Process {
	return SeqProc{L: p.L.Subst(name, v), R: p.R.Subst(name, v)}
}

// ParProc is generalised parallel P [| Sync |] Q: the components
// synchronise on every event in Sync (and on termination); all other
// events interleave. An empty Sync gives pure interleaving P ||| Q.
type ParProc struct {
	L, R Process
	Sync *EventSet
}

// Key returns canonical parallel syntax.
func (p ParProc) Key() string {
	return "(" + p.L.Key() + " [|" + p.Sync.Key() + "|] " + p.R.Key() + ")"
}

// Subst substitutes into both components.
func (p ParProc) Subst(name string, v Value) Process {
	return ParProc{L: p.L.Subst(name, v), R: p.R.Subst(name, v), Sync: p.Sync}
}

// HideProc is hiding P \ A: events in A become internal (tau).
type HideProc struct {
	P   Process
	Set *EventSet
}

// Key returns canonical hiding syntax.
func (p HideProc) Key() string { return "(" + p.P.Key() + " \\ " + p.Set.Key() + ")" }

// Subst substitutes into the hidden process.
func (p HideProc) Subst(name string, v Value) Process {
	return HideProc{P: p.P.Subst(name, v), Set: p.Set}
}

// RenameProc renames channels of P: an event on channel c is presented to
// the environment as the same event on channel Mapping[c]. Channels not
// in the mapping are unchanged. This is functional (one-to-one per
// channel) renaming, sufficient for intruder plumbing.
type RenameProc struct {
	P       Process
	Mapping map[string]string
}

// Key returns canonical renaming syntax.
func (p RenameProc) Key() string {
	pairs := make([]string, 0, len(p.Mapping))
	for from, to := range p.Mapping {
		pairs = append(pairs, from+"<-"+to)
	}
	sort.Strings(pairs)
	return "(" + p.P.Key() + "[[" + strings.Join(pairs, ",") + "]])"
}

// Subst substitutes into the renamed process.
func (p RenameProc) Subst(name string, v Value) Process {
	return RenameProc{P: p.P.Subst(name, v), Mapping: p.Mapping}
}

// IfProc is the conditional process if Cond then Then else Else. The
// condition must be closed by the time the process is explored.
type IfProc struct {
	Cond Expr
	Then Process
	Else Process
}

// Key returns canonical conditional syntax.
func (p IfProc) Key() string {
	return "(if " + p.Cond.Key() + " then " + p.Then.Key() + " else " + p.Else.Key() + ")"
}

// Subst substitutes into the condition and both branches.
func (p IfProc) Subst(name string, v Value) Process {
	return IfProc{
		Cond: p.Cond.subst(name, v),
		Then: p.Then.Subst(name, v),
		Else: p.Else.Subst(name, v),
	}
}

// CallProc is a reference to a named (possibly parameterised) process
// definition resolved in an Env, enabling recursion: P = a -> P.
type CallProc struct {
	Name string
	Args []Expr
}

// Key returns canonical call syntax.
func (p CallProc) Key() string {
	if len(p.Args) == 0 {
		return p.Name
	}
	parts := make([]string, len(p.Args))
	for i, a := range p.Args {
		parts[i] = a.Key()
	}
	return p.Name + "(" + strings.Join(parts, ",") + ")"
}

// Subst substitutes into the argument expressions.
func (p CallProc) Subst(name string, v Value) Process {
	args := make([]Expr, len(p.Args))
	for i, a := range p.Args {
		args[i] = a.subst(name, v)
	}
	return CallProc{Name: p.Name, Args: args}
}

// Compile-time interface checks.
var (
	_ Process = StopProc{}
	_ Process = SkipProc{}
	_ Process = OmegaProc{}
	_ Process = PrefixProc{}
	_ Process = ExtChoiceProc{}
	_ Process = IntChoiceProc{}
	_ Process = SeqProc{}
	_ Process = ParProc{}
	_ Process = HideProc{}
	_ Process = RenameProc{}
	_ Process = IfProc{}
	_ Process = CallProc{}
)
