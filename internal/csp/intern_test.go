package csp

import (
	"fmt"
	"testing"
)

// buildTerm constructs a moderately deep process term exercising every
// node kind, parameterized so distinct n yield structurally distinct
// terms.
func buildTerm(n int) Process {
	sync := NewEventSet()
	sync.AddChannel("update")
	sync.AddEvent(Event{Chan: "fw", Args: []Value{Sym("ok")}})
	ren := RenameProc{
		P:       Call("NODE", Lit{Val: Int(n)}),
		Mapping: map[string]string{"a": "b", "c": "d"},
	}
	inner := ParProc{
		L:    Prefix("update", []CommField{In("x"), Out(Binary{Op: OpAdd, L: Var{Name: "x"}, R: Lit{Val: Int(n)}})}, Stop()),
		R:    HideProc{P: ren, Set: sync},
		Sync: sync,
	}
	cond := IfProc{
		Cond: Binary{Op: OpLt, L: Lit{Val: Int(n)}, R: Lit{Val: Int(100)}},
		Then: SeqProc{L: Skip(), R: inner},
		Else: IntChoiceProc{L: Stop(), R: Skip()},
	}
	return ExtChoiceProc{L: cond, R: Prefix("log", []CommField{Out(Lit{Val: NewSet(Int(1), Sym("s"), Dotted{Head: "pair", Args: []Value{Int(n), Bool(true)}})})}, OmegaProc{})}
}

func TestInternerKeyEquivalence(t *testing.T) {
	// Structural interning must agree with canonical Key strings on the
	// terms this library builds: same Key ⇒ same TermID and different
	// Key ⇒ different TermID.
	in := NewInterner()
	byKey := map[string]TermID{}
	for n := 0; n < 50; n++ {
		for rep := 0; rep < 2; rep++ { // second build: fresh structurally-equal term
			p := buildTerm(n % 25)
			id := in.Process(p)
			k := p.Key()
			if prev, ok := byKey[k]; ok {
				if prev != id {
					t.Fatalf("key %q interned to both %d and %d", k, prev, id)
				}
			} else {
				for k2, id2 := range byKey {
					if id2 == id {
						t.Fatalf("distinct keys %q and %q share TermID %d", k, k2, id)
					}
				}
				byKey[k] = id
			}
		}
	}
}

func TestInternerEventIdentity(t *testing.T) {
	in := NewInterner()
	a := in.Event(Event{Chan: "can", Args: []Value{Sym("tx"), Int(5)}})
	b := in.Event(Event{Chan: "can", Args: []Value{Sym("tx"), Int(5)}})
	c := in.Event(Event{Chan: "can", Args: []Value{Sym("tx"), Int(6)}})
	if a != b {
		t.Fatalf("equal events interned to %d and %d", a, b)
	}
	if a == c {
		t.Fatalf("distinct events share TermID %d", a)
	}
	if in.Event(Tau()) == in.Event(Tick()) {
		t.Fatal("tau and tick interned identically")
	}
}

func TestInternerNilSetEqualsEmptySet(t *testing.T) {
	// A nil sync set and an empty one have the same canonical Key
	// ("{}"), so they must intern identically or state identity would
	// diverge from the reference engine.
	in := NewInterner()
	withNil := in.Process(ParProc{L: Stop(), R: Skip(), Sync: nil})
	withEmpty := in.Process(ParProc{L: Stop(), R: Skip(), Sync: NewEventSet()})
	if withNil != withEmpty {
		t.Fatalf("nil sync set interned to %d, empty to %d", withNil, withEmpty)
	}
}

func TestInternerSharedSetByContent(t *testing.T) {
	// Distinct *EventSet pointers with equal content must intern to the
	// same ID (the pointer memo is only a cache).
	in := NewInterner()
	s1, s2 := NewEventSet(), NewEventSet()
	s1.AddChannel("update")
	s2.AddChannel("update")
	a := in.Process(HideProc{P: Stop(), Set: s1})
	b := in.Process(HideProc{P: Stop(), Set: s2})
	if a != b {
		t.Fatalf("content-equal sets interned to %d and %d", a, b)
	}
}

func TestInternerDenseIDs(t *testing.T) {
	in := NewInterner()
	if in.Len() != 0 {
		t.Fatalf("fresh interner has %d nodes", in.Len())
	}
	in.Process(Stop())
	in.Process(Skip())
	in.Process(Stop())
	if in.Len() != 2 {
		t.Fatalf("expected 2 nodes after STOP,SKIP,STOP; got %d", in.Len())
	}
}

func TestInternerRestrictedInputDistinct(t *testing.T) {
	// "?x" and "?x:pred" must not collide, nor "?x" with "!x".
	in := NewInterner()
	plain := in.Process(Prefix("c", []CommField{In("x")}, Stop()))
	restricted := in.Process(Prefix("c", []CommField{InSuchThat("x", Binary{Op: OpLt, L: Var{Name: "x"}, R: Lit{Val: Int(3)}})}, Stop()))
	out := in.Process(Prefix("c", []CommField{Out(Var{Name: "x"})}, Stop()))
	if plain == restricted || plain == out || restricted == out {
		t.Fatalf("field kinds collided: plain=%d restricted=%d out=%d", plain, restricted, out)
	}
}

// TestCompositeTableTellsCollidingTwinsApart interns pairs of composite
// keys that differ in one field yet share a home slot of the initial
// table, so the second lookup probes past the first one's record: each
// must keep an ID of its own. Random keys rarely collide like this, so
// the generated oracles alone would miss an equality test that skips a
// field.
func TestCompositeTableTellsCollidingTwinsApart(t *testing.T) {
	base := compKey{tag: uint32(itagPar), a: 1, b: 2, aux: 3}
	mask := uint32(compSlots0 - 1)
	fields := map[string]func(k *compKey, v uint32){
		"tag": func(k *compKey, v uint32) { k.tag = v },
		"a":   func(k *compKey, v uint32) { k.a = TermID(v) },
		"b":   func(k *compKey, v uint32) { k.b = TermID(v) },
		"aux": func(k *compKey, v uint32) { k.aux = TermID(v) },
	}
	for name, set := range fields {
		twin := base
		for v := uint32(0); twin == base || twin.hash()&mask != base.hash()&mask; v++ {
			twin = base
			set(&twin, v)
		}
		in := NewInterner()
		x, y := in.composite(base), in.composite(twin)
		if x == y || in.composite(base) != x || in.composite(twin) != y {
			t.Errorf("twins differing in %s: IDs %d and %d, then %d and %d", name, x, y, in.composite(base), in.composite(twin))
		}
	}
}

func BenchmarkInternProcess(b *testing.B) {
	terms := make([]Process, 64)
	for i := range terms {
		terms[i] = buildTerm(i)
	}
	in := NewInterner()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Process(terms[i%len(terms)])
	}
}

func BenchmarkKeyString(b *testing.B) {
	terms := make([]Process, 64)
	for i := range terms {
		terms[i] = buildTerm(i)
	}
	m := map[string]int{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := terms[i%len(terms)].Key()
		if _, ok := m[k]; !ok {
			m[k] = len(m)
		}
	}
}

func ExampleInterner() {
	in := NewInterner()
	a := in.Process(Prefix("update", []CommField{In("x")}, Stop()))
	b := in.Process(Prefix("update", []CommField{In("x")}, Stop()))
	fmt.Println(a == b)
	// Output: true
}

// TestCodecRejectsMalformed feeds DecodeNodes one table per defect class
// a checkpoint file could carry. Each must be rejected with an error.
func TestCodecRejectsMalformed(t *testing.T) {
	k := func(b ...byte) []byte { return b }
	stop := k(itagStop)
	// chain builds a table whose last node's tree doubles per level.
	chain := func(levels int) [][]byte {
		keys := [][]byte{stop, k(itagEventSet, 0, 0)}
		for i := 0; i < levels; i++ {
			prev := byte(len(keys) - 1)
			if i == 0 {
				prev = 0
			}
			keys = append(keys, k(itagPar, prev, prev, 1))
		}
		return keys
	}
	cases := map[string][][]byte{
		"empty key":             {k()},
		"unknown tag 0":         {k(0)},
		"unknown tag":           {k(itagMapping + 1)},
		"truncated varint":      {k(itagValInt, 0x80)},
		"overlong varint":       {k(itagValInt, 0x80, 0x00)},
		"varint overflow":       {k(itagValInt, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)},
		"truncated child":       {stop, k(itagSeq, 0)},
		"string past end":       {k(itagValSym, 5, 'a')},
		"huge count":            {k(itagValSet, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		"self reference":        {k(itagExprLit, 0)},
		"forward reference":     {k(itagExprLit, 1), k(itagValInt, 2)},
		"wrong child kind":      {stop, k(itagExprLit, 0)},
		"process as event":      {stop, k(itagEventSet, 0, 1, 0)},
		"trailing bytes":        {k(itagStop, 0)},
		"duplicate key":         {stop, stop},
		"bool out of range":     {k(itagValBool, 2)},
		"unknown binary op":     {k(itagExprVar, 1, 'x'), k(itagExprBinary, 0, 0, 0)},
		"unknown unary op":      {k(itagExprVar, 1, 'x'), k(itagExprUnary, 9, 0)},
		"unsorted set":          {k(itagValSym, 1, 'b'), k(itagValSym, 1, 'a'), k(itagValSet, 2, 0, 1)},
		"duplicate channels":    {k(itagEventSet, 2, 1, 'a', 1, 'a', 0)},
		"unsorted mapping":      {k(itagMapping, 2, 1, 'b', 1, 'x', 1, 'a', 1, 'y')},
		"punned set descending": {k(itagValSym, 1, '5'), k(itagValInt, 10), k(itagValSet, 2, 0, 1)},
		"exponential term":      chain(24),
		"json codec document":   {[]byte(`{"t":"stop"}`)},
	}
	for name, keys := range cases {
		if _, err := DecodeNodes(keys); err == nil {
			t.Errorf("%s: DecodeNodes accepted %x", name, keys)
		}
	}
	// A shallower chain of the same shape is an ordinary shared term.
	if _, err := DecodeNodes(chain(8)); err != nil {
		t.Errorf("chain(8): %v", err)
	}
}
