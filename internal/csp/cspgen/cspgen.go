// Package cspgen generates small closed CSP systems from a seed, for
// differential tests of the checking engines against their references:
// a channel context, a set of (possibly parameterised) recursive
// definitions whose recursion is always guarded by a prefix, and a root
// term. Terms mix every operator: nested [| |] with channel and
// event-listed sync sets, |||, hiding, renaming, ;, [], |~|,
// conditionals, parameterised calls and restricted inputs. Most systems
// have at most a few hundred states; some are larger or infinite.
// Punned adds a channel whose values render alike without being Equal.
package cspgen

import (
	"fmt"
	"math/rand"

	"repro/internal/csp"
)

// modelGen holds the state of one generated system.
type modelGen struct {
	r      *rand.Rand
	params []int // parameter count of each definition P<i>
	// root is set once the definitions are generated. Parallel operators
	// appear only in the root term: a definition recursing through
	// [| |] spawns a component per step, and the reference engine's
	// whole-term evaluation is exponential in such terms.
	root bool
	// puns, set only by Punned, are the values of channel p: they add a
	// prefix on p and sets listing p's events to the choices Model has.
	puns []csp.Value
}

// genDomain is the value domain of every integer field and parameter.
var genDomain = csp.IntRange{Lo: 0, Hi: 2}

// Model generates the system of a seed: its semantics and root term.
func Model(seed int64) (*csp.Semantics, csp.Process) {
	g := &modelGen{r: rand.New(rand.NewSource(seed))}
	sem := g.system()
	g.root = true
	return sem, g.proc(3, true, nil)
}

// Punned generates a refinement question of a seed: a system with a
// channel p whose type holds Int(0), Int(1) and the symbols spelling+"0"
// and spelling+"1", and a specification and an implementation term
// that use p in prefixes, sync sets and hiding sets. With spelling ""
// the symbols render like the integers (p.0 twice, p.1 twice) while
// being different events; any other spelling gives the same system
// with no two values rendering alike, its twin.
func Punned(seed int64, spelling string) (sem *csp.Semantics, spec, impl csp.Process) {
	ints := csp.IntRange{Lo: 0, Hi: 1}
	syms := csp.EnumType("S", csp.Sym(spelling+"0"), csp.Sym(spelling+"1"))
	g := &modelGen{r: rand.New(rand.NewSource(seed)), puns: append(ints.Values(), syms.Values()...)}
	sem = g.system()
	sem.Ctx.MustChannel("p", csp.UnionType{TypeName: "P", Members: []csp.Type{ints, syms}})
	g.root = true
	impl = g.proc(3, true, nil)
	if g.pick(2) == 0 {
		return sem, csp.IntChoice(impl, g.proc(2, true, nil)), impl
	}
	return sem, g.proc(3, true, nil), impl
}

// system generates the channel context and the definitions.
func (g *modelGen) system() *csp.Semantics {
	ctx := csp.NewContext()
	ctx.MustChannel("a")
	ctx.MustChannel("b")
	ctx.MustChannel("t")
	ctx.MustChannel("c", genDomain)
	ctx.MustChannel("d", csp.IntRange{Lo: 0, Hi: 1}, genDomain)
	env := csp.NewEnv()
	n := 2 + g.r.Intn(3)
	g.params = make([]int, n)
	for i := range g.params {
		g.params[i] = g.r.Intn(2)
	}
	for i, np := range g.params {
		var vars []string
		if np == 1 {
			vars = []string{"n"}
		}
		env.MustDefine(fmt.Sprintf("P%d", i), vars, g.proc(2+g.r.Intn(2), false, vars))
	}
	return csp.NewSemantics(env, ctx)
}

func (g *modelGen) pick(n int) int { return g.r.Intn(n) }

// choices is n, plus extra for a Punned system. The extra choices come
// last, so Model's systems are unchanged.
func (g *modelGen) choices(n, extra int) int {
	if g.puns == nil {
		return n
	}
	return n + extra
}

// proc generates a term. guarded reports whether a prefix (or the root
// position) precedes it, which is what makes a call safe: calls never
// appear unguarded inside a definition body.
func (g *modelGen) proc(depth int, guarded bool, vars []string) csp.Process {
	if depth <= 0 {
		return g.leaf(guarded, vars)
	}
	sub := func() csp.Process { return g.proc(depth-1, guarded, vars) }
	switch g.pick(13) {
	case 0, 1, 2:
		return g.prefix(depth, vars)
	case 3:
		return csp.ExtChoice(sub(), sub())
	case 4:
		return csp.IntChoice(sub(), sub())
	case 5:
		return csp.If(g.cond(vars), sub(), sub())
	case 6:
		return csp.Seq(sub(), sub())
	case 7, 8:
		if g.root {
			return csp.Par(sub(), g.set(), sub())
		}
		return csp.ExtChoice(sub(), sub())
	case 9:
		if g.root {
			return csp.Interleave(sub(), sub())
		}
		return g.prefix(depth, vars)
	case 10:
		return csp.Hide(sub(), g.set())
	case 11:
		maps := []map[string]string{{"a": "b"}, {"b": "t", "t": "a"}, {"c": "c"}}
		return csp.Rename(sub(), maps[g.pick(len(maps))])
	}
	return g.leaf(guarded, vars)
}

func (g *modelGen) leaf(guarded bool, vars []string) csp.Process {
	if guarded && g.pick(3) > 0 {
		i := g.pick(len(g.params))
		var args []csp.Expr
		if g.params[i] == 1 {
			args = append(args, g.expr(vars))
		}
		return csp.Call(fmt.Sprintf("P%d", i), args...)
	}
	if g.pick(3) == 0 {
		return csp.Stop()
	}
	return csp.Skip()
}

// prefix generates a communication; the continuation is guarded and may
// use any variable the communication binds.
func (g *modelGen) prefix(depth int, vars []string) csp.Process {
	switch g.pick(g.choices(4, 1)) {
	case 0:
		ch := []string{"a", "b", "t"}[g.pick(3)]
		return csp.DoEvent(ch, g.proc(depth-1, true, vars))
	case 1:
		return csp.Prefix("c", []csp.CommField{csp.Out(g.expr(vars))}, g.proc(depth-1, true, vars))
	case 2:
		x := fmt.Sprintf("x%d", len(vars))
		f := csp.In(x)
		if g.pick(2) == 0 {
			f = csp.InSuchThat(x, csp.Binary{Op: csp.OpNe, L: csp.V(x), R: g.expr(vars)})
		}
		inner := append(append([]string(nil), vars...), x)
		return csp.Prefix("c", []csp.CommField{f}, g.proc(depth-1, true, inner))
	case 4:
		// p's values are not integers, so the bound variable stays out
		// of vars.
		f := csp.OutVal(g.pun())
		if g.pick(2) == 0 {
			f = csp.InSuchThat("y", csp.MemberExpr{Elem: csp.V("y"), Set: csp.Lit{Val: csp.NewSet(g.pun(), g.pun(), g.pun())}})
		}
		return csp.Prefix("p", []csp.CommField{f}, g.proc(depth-1, true, vars))
	}
	y := fmt.Sprintf("x%d", len(vars))
	inner := append(append([]string(nil), vars...), y)
	return csp.Prefix("d", []csp.CommField{csp.InSuchThat(y, csp.Binary{Op: csp.OpLt, L: csp.V(y), R: csp.LitInt(2)}), csp.Out(g.expr(inner))},
		g.proc(depth-1, true, inner))
}

// expr is an integer expression in genDomain over the bound variables.
func (g *modelGen) expr(vars []string) csp.Expr {
	if len(vars) == 0 || g.pick(3) == 0 {
		return csp.LitInt(g.pick(3))
	}
	v := csp.V(vars[g.pick(len(vars))])
	if g.pick(2) == 0 {
		return v
	}
	return csp.Binary{Op: csp.OpMod, L: csp.Binary{Op: csp.OpAdd, L: v, R: csp.LitInt(1)}, R: csp.LitInt(3)}
}

func (g *modelGen) cond(vars []string) csp.Expr {
	ops := []csp.BinOp{csp.OpEq, csp.OpLt, csp.OpNe}
	return csp.Binary{Op: ops[g.pick(len(ops))], L: g.expr(vars), R: g.expr(vars)}
}

func (g *modelGen) set() *csp.EventSet {
	switch g.pick(g.choices(5, 2)) {
	case 0:
		return csp.EventsOf("a")
	case 1:
		return csp.EventsOf("c", "t")
	case 2:
		return csp.Events(csp.Ev("c", csp.Int(g.pick(3))), csp.Ev("b"))
	case 3:
		return csp.EventsOf("d").AddEvent(csp.Ev("a"))
	case 5:
		return csp.Events(csp.Ev("p", g.pun()), csp.Ev("p", g.pun()))
	case 6:
		return csp.Events(csp.Ev("p", g.pun()), csp.Ev("b"))
	}
	return csp.NewEventSet()
}

func (g *modelGen) pun() csp.Value { return g.puns[g.pick(len(g.puns))] }
