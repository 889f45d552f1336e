package csp

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The pun: Int(5) and Sym("5") both render as 5, yet are not Equal.
var (
	punInt, punSym = Int(5), Sym("5")
	punNum, punStr = Ev("pun", punInt), Ev("pun", punSym)
)

func TestIdentityKeyIsEqual(t *testing.T) {
	if punNum.String() != punStr.String() || punNum.Equal(punStr) {
		t.Fatalf("%v and %v no longer pun", punNum, punStr)
	}
	if IdentityKey(punInt) == IdentityKey(punSym) || IdentityKey(punNum) == IdentityKey(punStr) {
		t.Error("punned terms share an identity key")
	}
	if IdentityKey(punNum) != IdentityKey(Ev("pun", Int(5))) {
		t.Error("equal events have different identity keys")
	}
	if Compare(punNum, punStr) == 0 || Compare(punNum, punStr) != -Compare(punStr, punNum) {
		t.Error("Compare does not order punned events strictly")
	}
	if Compare(Ev("a"), Ev("b")) >= 0 {
		t.Error("Compare does not order by rendering first")
	}
}

// TestNewSetPunsByIdentity: a set keeps one member per Equal class, so
// Int(5) and Sym("5") are two members whatever order they are given in,
// and every such set is Equal with the same rendering.
func TestNewSetPunsByIdentity(t *testing.T) {
	orders := [][]Value{
		{punInt, punSym, punInt, punSym, punInt},
		{punSym, punInt},
		{punSym, punSym, punInt},
		{punInt, punInt, punSym},
	}
	want := NewSet(orders[0]...)
	for _, vs := range orders {
		s := NewSet(vs...)
		if s.Len() != 2 || !s.Contains(punInt) || !s.Contains(punSym) {
			t.Errorf("NewSet%v = %v, want both 5s", vs, s.Elems())
		}
		if !s.Equal(want) || s.String() != want.String() {
			t.Errorf("NewSet%v = %v is not Equal to %v", vs, s, want)
		}
	}
	for _, s := range []SetValue{NewSet(punInt).Add(punSym), NewSet(punSym).Add(punInt).Add(punSym)} {
		if !s.Equal(want) {
			t.Errorf("Add built %v, want %v", s.Elems(), want.Elems())
		}
	}
}

// TestSetAddMatchesNewSet pins that a set built by Add, one member at a
// time in any order and with repeats, is the set NewSet builds from the
// same values: the same members in the same order. The pool puns (Int
// and Sym, bare and inside Dotted and nested sets), so the binary
// search must place rendering ties by identity. Add must leave the set
// it extends unchanged, and Contains must agree with Equal.
func TestSetAddMatchesNewSet(t *testing.T) {
	pool := []Value{
		Int(5), Sym("5"), Int(12), Sym("12"), Int(-1), Bool(true), Sym("true"),
		Dotted{Head: "m", Args: []Value{Int(5)}}, Dotted{Head: "m", Args: []Value{Sym("5")}},
		NewSet(Int(5)), NewSet(Sym("5")), NewSet(), Sym("a"),
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var vs []Value
		for n := rng.Intn(2 * len(pool)); len(vs) < n; {
			vs = append(vs, pool[rng.Intn(len(pool))])
		}
		var built SetValue
		for _, v := range vs {
			before := built.String()
			next := built.Add(v)
			if built.String() != before {
				t.Fatalf("Add(%v) changed the set it extends: %s, was %s", v, built, before)
			}
			built = next
		}
		want := NewSet(vs...)
		if !built.Equal(want) || len(built.Elems()) != len(want.Elems()) {
			t.Fatalf("Add over %v built %v, NewSet %v", vs, built.Elems(), want.Elems())
		}
		for i, e := range want.Elems() {
			if IdentityKey(built.Elems()[i]) != IdentityKey(e) {
				t.Fatalf("Add over %v: member %d is %#v, NewSet's %#v", vs, i, built.Elems()[i], e)
			}
		}
		for _, v := range pool {
			in := slices.ContainsFunc(vs, v.Equal)
			if built.Contains(v) != in {
				t.Fatalf("Contains(%#v) = %v on %v, want %v", v, !in, built.Elems(), in)
			}
		}
	}
}

// TestUnionTypePunsByIdentity: a union of {Int(5)} and {Sym("5")} has
// both values, so c?x over it offers two events.
func TestUnionTypePunsByIdentity(t *testing.T) {
	u := UnionType{TypeName: "U", Members: []Type{
		ExplicitType{TypeName: "N", Elems: []Value{punInt}},
		ExplicitType{TypeName: "S", Elems: []Value{punSym}},
		ExplicitType{TypeName: "N2", Elems: []Value{punInt}},
	}}
	if vs := u.Values(); len(vs) != 2 || !vs[0].Equal(punInt) || !vs[1].Equal(punSym) {
		t.Fatalf("Values = %#v, want [5 \"5\"]", vs)
	}
	ctx := NewContext()
	ctx.MustChannel("pun", u)
	trs, err := NewSemantics(NewEnv(), ctx).Transitions(Prefix("pun", []CommField{In("x")}, Stop()))
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 2 || !trs[0].Ev.Equal(punNum) || !trs[1].Ev.Equal(punStr) {
		t.Errorf("pun?x offers %v, want pun.5 twice", trs)
	}
}

// TestEventSetPunsByIdentity: building, testing, joining and rendering
// a set all tell pun.Int(5) from pun.Sym("5").
func TestEventSetPunsByIdentity(t *testing.T) {
	num, str := Events(punNum), NewEventSet().AddEvent(punStr)
	if num.Contains(punStr) || str.Contains(punNum) || !num.Contains(punNum) || !str.Contains(punStr) {
		t.Error("membership confuses punned events")
	}
	both := num.Union(str)
	if !both.Contains(punNum) || !both.Contains(punStr) {
		t.Error("union lost a punned event")
	}
	if both.Key() != "{pun.5,pun.5}" || num.Key() != "{pun.5}" {
		t.Errorf("keys %s and %s do not list every member", both.Key(), num.Key())
	}
	if got := Events(punStr, punNum, punStr); got.Key() != both.Key() {
		t.Errorf("Events = %s, want %s", got.Key(), both.Key())
	}
	if (Trace{punNum, punStr}).Hide(num).Equal(Trace{}) {
		t.Error("hiding pun.Int(5) hid pun.Sym(\"5\")")
	}
}

// TestDecodeNodesPunnedSets: sets whose members render alike are
// encoded in Compare order and decode back to the same node table, so a
// checkpoint holding them resumes instead of being re-explored.
func TestDecodeNodesPunnedSets(t *testing.T) {
	in := NewInterner()
	in.Process(HideProc{
		P:   Prefix("pun", []CommField{OutVal(NewSet(punSym, punInt))}, Stop()),
		Set: Events(punStr, punNum),
	})
	nodes, err := DecodeNodes(in.Keys())
	if err != nil {
		t.Fatal(err)
	}
	root, ok := nodes.Process(TermID(len(in.Keys()) - 1))
	if !ok {
		t.Fatal("root node is not a process")
	}
	if !strings.Contains(root.Key(), "{pun.5,pun.5}") {
		t.Errorf("decoded root %s lost a punned event", root.Key())
	}
	again := NewInterner()
	again.Process(root)
	if len(again.Keys()) != len(in.Keys()) {
		t.Fatalf("re-interned %d nodes, want %d", len(again.Keys()), len(in.Keys()))
	}
	for i, k := range again.Keys() {
		if !bytes.Equal(k, in.Keys()[i]) {
			t.Fatalf("node %d re-interns to %x, want %x", i, k, in.Keys()[i])
		}
	}
}
