package cspm

import (
	"fmt"

	"repro/internal/csp"
)

// Model is an evaluated CSPm script: the declaration context and
// definition environment ready for the refinement checker, plus the
// resolved assertions.
type Model struct {
	Ctx     *csp.Context
	Env     *csp.Env
	Script  *Script
	Asserts []ResolvedAssert
}

// ResolvedAssert is an assertion with its process expressions evaluated.
type ResolvedAssert struct {
	Kind AssertKind
	Spec csp.Process // nil for property assertions
	Impl csp.Process
	Text string
}

// Load parses and evaluates a CSPm source in one step.
func Load(src string) (*Model, error) {
	script, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Evaluate(script)
}

// Evaluate converts a parsed script into csp declarations, definitions
// and resolved assertions, reporting unresolved names and arity errors.
func Evaluate(script *Script) (*Model, error) {
	ev := &evaluator{
		ctx:     csp.NewContext(),
		env:     csp.NewEnv(),
		ctors:   map[string]ctorInfo{},
		procs:   map[string]int{},
		chans:   map[string]bool{},
		typesBy: map[string]csp.Type{},
	}
	ev.typesBy["Bool"] = csp.BoolType{}

	// Pass 1: collect process names (so forward references work) and
	// declare types/channels in order.
	for _, d := range script.Decls {
		if pd, ok := d.(ProcDef); ok {
			if _, dup := ev.procs[pd.Name]; dup {
				return nil, fmt.Errorf("process %q defined twice", pd.Name)
			}
			ev.procs[pd.Name] = len(pd.Params)
		}
	}
	for _, d := range script.Decls {
		var err error
		switch decl := d.(type) {
		case DatatypeDecl:
			err = ev.declareDatatype(decl)
		case NametypeDecl:
			err = ev.declareNametype(decl)
		case ChannelDecl:
			err = ev.declareChannel(decl)
		}
		if err != nil {
			return nil, err
		}
	}
	// Pass 2: evaluate process bodies.
	for _, d := range script.Decls {
		pd, ok := d.(ProcDef)
		if !ok {
			continue
		}
		scope := map[string]bool{}
		for _, p := range pd.Params {
			scope[p] = true
		}
		body, err := ev.proc(pd.Body, scope)
		if err != nil {
			return nil, fmt.Errorf("in definition of %s: %w", pd.Name, err)
		}
		if err := ev.env.Define(pd.Name, pd.Params, body); err != nil {
			return nil, err
		}
	}
	// Pass 3: assertions.
	m := &Model{Ctx: ev.ctx, Env: ev.env, Script: script}
	for _, a := range script.Asserts {
		ra := ResolvedAssert{Kind: a.Kind, Text: a.Text}
		var err error
		if a.Spec != nil {
			ra.Spec, err = ev.proc(a.Spec, map[string]bool{})
			if err != nil {
				return nil, fmt.Errorf("in assertion %q: %w", a.Text, err)
			}
		}
		ra.Impl, err = ev.proc(a.Impl, map[string]bool{})
		if err != nil {
			return nil, fmt.Errorf("in assertion %q: %w", a.Text, err)
		}
		m.Asserts = append(m.Asserts, ra)
	}
	return m, nil
}

type ctorInfo struct {
	arity    int
	datatype string
}

type evaluator struct {
	ctx     *csp.Context
	env     *csp.Env
	ctors   map[string]ctorInfo
	procs   map[string]int // name -> arity
	chans   map[string]bool
	typesBy map[string]csp.Type
}

func (ev *evaluator) typeExpr(te TypeExpr) (csp.Type, error) {
	switch t := te.(type) {
	case TypeRef:
		if ty, ok := ev.typesBy[t.Name]; ok {
			return ty, nil
		}
		return nil, fmt.Errorf("unknown type %q", t.Name)
	case TypeRange:
		return csp.IntRange{Lo: t.Lo, Hi: t.Hi}, nil
	}
	return nil, fmt.Errorf("unsupported type expression %T", te)
}

func (ev *evaluator) declareDatatype(d DatatypeDecl) error {
	if _, dup := ev.typesBy[d.Name]; dup {
		return fmt.Errorf("type %q declared twice", d.Name)
	}
	dt := csp.DataType{TypeName: d.Name}
	for _, c := range d.Ctors {
		if _, dup := ev.ctors[c.Name]; dup {
			return fmt.Errorf("constructor %q declared twice", c.Name)
		}
		if ev.chans[c.Name] {
			return clash(c.Name, d.Name)
		}
		ctor := csp.Ctor{Head: csp.Sym(c.Name)}
		for _, f := range c.Fields {
			ft, err := ev.typeExpr(f)
			if err != nil {
				return fmt.Errorf("datatype %s, constructor %s: %w", d.Name, c.Name, err)
			}
			ctor.Fields = append(ctor.Fields, ft)
		}
		dt.Ctors = append(dt.Ctors, ctor)
		ev.ctors[c.Name] = ctorInfo{arity: len(c.Fields), datatype: d.Name}
	}
	ev.typesBy[d.Name] = dt
	return ev.ctx.DeclareType(d.Name, dt)
}

func (ev *evaluator) declareNametype(d NametypeDecl) error {
	if _, dup := ev.typesBy[d.Name]; dup {
		return fmt.Errorf("type %q declared twice", d.Name)
	}
	set, err := ev.valueSet(d.Set, map[string]bool{})
	if err != nil {
		return fmt.Errorf("nametype %s: %w", d.Name, err)
	}
	ty := csp.ExplicitType{TypeName: d.Name, Elems: set.Elems()}
	ev.typesBy[d.Name] = ty
	return ev.ctx.DeclareType(d.Name, ty)
}

func (ev *evaluator) declareChannel(d ChannelDecl) error {
	var fields []csp.Type
	for _, f := range d.Fields {
		ft, err := ev.typeExpr(f)
		if err != nil {
			return fmt.Errorf("channel %v: %w", d.Names, err)
		}
		fields = append(fields, ft)
	}
	for _, name := range d.Names {
		if c, ok := ev.ctors[name]; ok {
			return clash(name, c.datatype)
		}
		if err := ev.ctx.DeclareChannel(name, fields...); err != nil {
			return err
		}
		ev.chans[name] = true
	}
	return nil
}

// clash reports a constructor of datatype that has a channel's name,
// which CSPm forbids: the name would denote both.
func clash(name, datatype string) error {
	return fmt.Errorf("constructor %q of datatype %s has the name of channel %q", name, datatype, name)
}

// expr converts a value expression, resolving identifiers against the
// current variable scope and the constructor table.
func (ev *evaluator) expr(e ExprE, scope map[string]bool) (csp.Expr, error) {
	switch x := e.(type) {
	case IntE:
		return csp.LitInt(x.Val), nil
	case BoolE:
		return csp.LitBool(x.Val), nil
	case IdentE:
		if scope[x.Name] {
			return csp.V(x.Name), nil
		}
		if ci, ok := ev.ctors[x.Name]; ok {
			if ci.arity != 0 {
				return nil, fmt.Errorf("constructor %q expects %d argument(s)", x.Name, ci.arity)
			}
			return csp.LitSym(x.Name), nil
		}
		return nil, fmt.Errorf("unknown identifier %q", x.Name)
	case DottedE:
		ci, ok := ev.ctors[x.Head]
		if !ok {
			return nil, fmt.Errorf("unknown constructor %q", x.Head)
		}
		if ci.arity != len(x.Args) {
			return nil, fmt.Errorf("constructor %q expects %d argument(s), got %d",
				x.Head, ci.arity, len(x.Args))
		}
		args := make([]csp.Expr, len(x.Args))
		for i, a := range x.Args {
			ce, err := ev.expr(a, scope)
			if err != nil {
				return nil, err
			}
			args[i] = ce
		}
		return csp.DotExpr{Head: csp.Sym(x.Head), Args: args}, nil
	case BinE:
		l, err := ev.expr(x.L, scope)
		if err != nil {
			return nil, err
		}
		r, err := ev.expr(x.R, scope)
		if err != nil {
			return nil, err
		}
		op, ok := binOpTable[x.Op]
		if !ok {
			return nil, fmt.Errorf("unknown operator %q", x.Op)
		}
		return csp.Binary{Op: op, L: l, R: r}, nil
	case UnE:
		sub, err := ev.expr(x.X, scope)
		if err != nil {
			return nil, err
		}
		if x.Op == "-" {
			return csp.Unary{Op: csp.OpNeg, X: sub}, nil
		}
		return csp.Unary{Op: csp.OpNot, X: sub}, nil
	case MemberE:
		elem, err := ev.expr(x.Elem, scope)
		if err != nil {
			return nil, err
		}
		set, err := ev.valueSet(x.Set, scope)
		if err != nil {
			return nil, err
		}
		return csp.MemberExpr{Elem: elem, Set: csp.Lit{Val: set}}, nil
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

var binOpTable = map[string]csp.BinOp{
	"+": csp.OpAdd, "-": csp.OpSub, "*": csp.OpMul, "/": csp.OpDiv,
	"%": csp.OpMod, "==": csp.OpEq, "!=": csp.OpNe, "<": csp.OpLt,
	"<=": csp.OpLe, ">": csp.OpGt, ">=": csp.OpGe,
	"and": csp.OpAnd, "or": csp.OpOr,
}

// valueSet evaluates a set expression to a concrete set of values.
func (ev *evaluator) valueSet(s SetExpr, scope map[string]bool) (csp.SetValue, error) {
	switch x := s.(type) {
	case RangeSet:
		vals := make([]csp.Value, 0, x.Hi-x.Lo+1)
		for i := x.Lo; i <= x.Hi; i++ {
			vals = append(vals, csp.Int(i))
		}
		return csp.NewSet(vals...), nil
	case ExplicitSet:
		var vals []csp.Value
		for _, e := range x.Elems {
			ce, err := ev.expr(e, scope)
			if err != nil {
				return csp.SetValue{}, err
			}
			v, err := csp.Eval(ce)
			if err != nil {
				return csp.SetValue{}, fmt.Errorf("set element: %w", err)
			}
			vals = append(vals, v)
		}
		return csp.NewSet(vals...), nil
	case SetRef:
		ty, ok := ev.typesBy[x.Name]
		if !ok {
			return csp.SetValue{}, fmt.Errorf("unknown set %q", x.Name)
		}
		return csp.NewSet(ty.Values()...), nil
	case SetUnion:
		l, err := ev.valueSet(x.L, scope)
		if err != nil {
			return csp.SetValue{}, err
		}
		r, err := ev.valueSet(x.R, scope)
		if err != nil {
			return csp.SetValue{}, err
		}
		out := l
		for _, v := range r.Elems() {
			out = out.Add(v)
		}
		return out, nil
	case ProdSet:
		return csp.SetValue{}, fmt.Errorf("production set {| ... |} used where a value set is required")
	}
	return csp.SetValue{}, fmt.Errorf("unsupported set expression %T", s)
}

// eventSet evaluates a set expression to a set of events, for use as a
// synchronisation or hiding set.
func (ev *evaluator) eventSet(s SetExpr, scope map[string]bool) (*csp.EventSet, error) {
	switch x := s.(type) {
	case ProdSet:
		set := csp.NewEventSet()
		for _, c := range x.Channels {
			if !ev.chans[c] {
				return nil, fmt.Errorf("production set names undeclared channel %q", c)
			}
			set.AddChannel(c)
		}
		return set, nil
	case ExplicitSet:
		set := csp.NewEventSet()
		for _, e := range x.Elems {
			evnt, err := ev.eventLiteral(e, scope)
			if err != nil {
				return nil, err
			}
			set.AddEvent(evnt)
		}
		return set, nil
	case SetUnion:
		l, err := ev.eventSet(x.L, scope)
		if err != nil {
			return nil, err
		}
		r, err := ev.eventSet(x.R, scope)
		if err != nil {
			return nil, err
		}
		return l.Union(r), nil
	}
	return nil, fmt.Errorf("cannot interpret %T as an event set", s)
}

// eventLiteral converts an expression like send.reqSw (or a bare event
// channel name) into a concrete event.
func (ev *evaluator) eventLiteral(e ExprE, scope map[string]bool) (csp.Event, error) {
	switch x := e.(type) {
	case IdentE:
		if ev.chans[x.Name] {
			return csp.Ev(x.Name), nil
		}
		return csp.Event{}, fmt.Errorf("%q is not a channel", x.Name)
	case DottedE:
		if !ev.chans[x.Head] {
			return csp.Event{}, fmt.Errorf("%q is not a channel", x.Head)
		}
		args := make([]csp.Value, len(x.Args))
		for i, a := range x.Args {
			ce, err := ev.expr(a, scope)
			if err != nil {
				return csp.Event{}, err
			}
			v, err := csp.Eval(ce)
			if err != nil {
				return csp.Event{}, err
			}
			args[i] = v
		}
		return csp.Ev(x.Head, args...), nil
	}
	return csp.Event{}, fmt.Errorf("cannot interpret %T as an event", e)
}

// proc converts a process expression within the given variable scope.
func (ev *evaluator) proc(pe ProcExpr, scope map[string]bool) (csp.Process, error) {
	switch x := pe.(type) {
	case StopE:
		return csp.Stop(), nil
	case SkipE:
		return csp.Skip(), nil
	case CallE:
		arity, ok := ev.procs[x.Name]
		if !ok {
			return nil, fmt.Errorf("undefined process %q", x.Name)
		}
		if arity != len(x.Args) {
			return nil, fmt.Errorf("process %q expects %d argument(s), got %d",
				x.Name, arity, len(x.Args))
		}
		args := make([]csp.Expr, len(x.Args))
		for i, a := range x.Args {
			ce, err := ev.expr(a, scope)
			if err != nil {
				return nil, err
			}
			args[i] = ce
		}
		return csp.Call(x.Name, args...), nil
	case PrefixE:
		if !ev.chans[x.Chan] {
			return nil, fmt.Errorf("prefix on undeclared channel %q", x.Chan)
		}
		fields := make([]csp.CommField, len(x.Fields))
		// Input binders extend the scope for later fields and the
		// continuation.
		inner := scope
		cloned := false
		for i, f := range x.Fields {
			switch f.Kind {
			case FieldDot, FieldOut:
				ce, err := ev.expr(f.Expr, inner)
				if err != nil {
					return nil, err
				}
				fields[i] = csp.Out(ce)
			case FieldIn:
				if !cloned {
					inner = cloneScope(inner)
					cloned = true
				}
				if f.In != nil {
					set, err := ev.valueSet(f.In, inner)
					if err != nil {
						return nil, err
					}
					pred := csp.MemberExpr{Elem: csp.V(f.Var), Set: csp.Lit{Val: set}}
					fields[i] = csp.InSuchThat(f.Var, pred)
				} else {
					fields[i] = csp.In(f.Var)
				}
				inner[f.Var] = true
			default:
				return nil, fmt.Errorf("unknown field kind %d", f.Kind)
			}
		}
		cont, err := ev.proc(x.Cont, inner)
		if err != nil {
			return nil, err
		}
		return csp.Prefix(x.Chan, fields, cont), nil
	case BinProcE:
		l, err := ev.proc(x.L, scope)
		if err != nil {
			return nil, err
		}
		r, err := ev.proc(x.R, scope)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case OpExtChoice:
			return csp.ExtChoice(l, r), nil
		case OpIntChoice:
			return csp.IntChoice(l, r), nil
		case OpSeqComp:
			return csp.Seq(l, r), nil
		case OpInterleave:
			return csp.Interleave(l, r), nil
		case OpGenPar:
			sync, err := ev.eventSet(x.Sync, scope)
			if err != nil {
				return nil, err
			}
			return csp.Par(l, sync, r), nil
		}
		return nil, fmt.Errorf("unknown process operator %d", x.Op)
	case ReplE:
		set, err := ev.valueSet(x.Set, scope)
		if err != nil {
			return nil, err
		}
		inner := cloneScope(scope)
		inner[x.Var] = true
		template, err := ev.proc(x.Body, inner)
		if err != nil {
			return nil, err
		}
		elems := set.Elems()
		branches := make([]csp.Process, len(elems))
		for i, v := range elems {
			branches[i] = template.Subst(x.Var, v)
		}
		if x.Op == OpInterleave {
			return csp.Interleave(branches...), nil
		}
		return csp.ExtChoice(branches...), nil
	case HideE:
		inner, err := ev.proc(x.P, scope)
		if err != nil {
			return nil, err
		}
		set, err := ev.eventSet(x.Set, scope)
		if err != nil {
			return nil, err
		}
		return csp.Hide(inner, set), nil
	case RenameE:
		inner, err := ev.proc(x.P, scope)
		if err != nil {
			return nil, err
		}
		mapping := make(map[string]string, len(x.Pairs))
		for _, pair := range x.Pairs {
			if !ev.chans[pair[0]] || !ev.chans[pair[1]] {
				return nil, fmt.Errorf("renaming %s <- %s involves undeclared channel",
					pair[0], pair[1])
			}
			mapping[pair[0]] = pair[1]
		}
		return csp.Rename(inner, mapping), nil
	case IfE:
		cond, err := ev.expr(x.Cond, scope)
		if err != nil {
			return nil, err
		}
		then, err := ev.proc(x.Then, scope)
		if err != nil {
			return nil, err
		}
		els, err := ev.proc(x.Else, scope)
		if err != nil {
			return nil, err
		}
		return csp.If(cond, then, els), nil
	case GuardE:
		cond, err := ev.expr(x.Cond, scope)
		if err != nil {
			return nil, err
		}
		body, err := ev.proc(x.P, scope)
		if err != nil {
			return nil, err
		}
		return csp.Guard(cond, body), nil
	}
	return nil, fmt.Errorf("unsupported process expression %T", pe)
}

func cloneScope(scope map[string]bool) map[string]bool {
	out := make(map[string]bool, len(scope)+1)
	for k, v := range scope {
		out[k] = v
	}
	return out
}
