package csp_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/csp"
	"repro/internal/csp/cspgen"
	"repro/internal/csp/cspref"
)

// refInterner is the oracle for the interner's composite table: the
// byte-keyed index composites had before it, each node's tag and
// uvarint children in a map[string]TermID. Leaves are adopted from the
// interner under test as it assigns them, so both share one ID space.
type refInterner struct {
	t    testing.TB
	ids  map[string]csp.TermID
	keys [][]byte
}

func newRefInterner(t testing.TB) *refInterner {
	return &refInterner{t: t, ids: map[string]csp.TermID{}}
}

func (r *refInterner) intern(key []byte) csp.TermID {
	if id, ok := r.ids[string(key)]; ok {
		return id
	}
	id := csp.TermID(len(r.keys))
	r.ids[string(key)] = id
	r.keys = append(r.keys, key)
	return id
}

// composite interns tag(children...) by its encoding.
func (r *refInterner) composite(tag byte, children ...csp.TermID) csp.TermID {
	key := []byte{tag}
	for _, c := range children {
		key = binary.AppendUvarint(key, uint64(c))
	}
	return r.intern(key)
}

// adopt interns, by their keys, the nodes in assigned since the last
// call. Each must be new to the reference and get the next ID: an ID
// the interner assigned to a node it already held fails here.
func (r *refInterner) adopt(in *csp.Interner) {
	r.t.Helper()
	keys := in.Keys()
	for id := len(r.keys); id < len(keys); id++ {
		if got := r.intern(keys[id]); got != csp.TermID(id) {
			r.t.Fatalf("node %d (%x) is the reference's node %d", id, keys[id], got)
		}
	}
}

// process interns p into in as Interner.Process does, child by child,
// building each composite through in's constructor and through the
// reference, and requires both to give it the same ID.
func (r *refInterner) process(in *csp.Interner, p csp.Process) csp.TermID {
	r.t.Helper()
	var got, want csp.TermID
	switch x := p.(type) {
	case csp.ExtChoiceProc:
		a, b := r.process(in, x.L), r.process(in, x.R)
		got, want = in.ExtChoice(a, b), r.composite(csp.TagExtChoice, a, b)
	case csp.SeqProc:
		a, b := r.process(in, x.L), r.process(in, x.R)
		got, want = in.Seq(a, b), r.composite(csp.TagSeq, a, b)
	case csp.ParProc:
		a, b := r.process(in, x.L), r.process(in, x.R)
		s := in.EventSet(x.Sync)
		r.adopt(in)
		got, want = in.Par(a, b, s), r.composite(csp.TagPar, a, b, s)
	case csp.HideProc:
		a := r.process(in, x.P)
		s := in.EventSet(x.Set)
		r.adopt(in)
		got, want = in.Hide(a, s), r.composite(csp.TagHide, a, s)
	case csp.RenameProc:
		a := r.process(in, x.P)
		m := in.Mapping(x.Mapping)
		r.adopt(in)
		got, want = in.Rename(a, m), r.composite(csp.TagRename, a, m)
	default:
		id := in.Process(p)
		r.adopt(in)
		return id
	}
	if got != want {
		r.t.Fatalf("%s interned to %d, the reference's %d", p.Key(), got, want)
	}
	return got
}

// requireKeys checks that in's node table is the reference's, byte for
// byte.
func (r *refInterner) requireKeys(in *csp.Interner) {
	r.t.Helper()
	keys := in.Keys()
	if len(keys) != len(r.keys) || in.Len() != len(r.keys) {
		r.t.Fatalf("interner holds %d nodes (Len %d), the reference %d", len(keys), in.Len(), len(r.keys))
	}
	for id, k := range keys {
		if !bytes.Equal(k, r.keys[id]) {
			r.t.Fatalf("node %d renders %x, the reference %x", id, k, r.keys[id])
		}
	}
}

// TestInternCompositeOracleCSPGen interns the reachable states of
// generated systems three ways: through the composite constructors
// beside the reference, and through Interner.Process in a second
// interner. All three must assign the same IDs and the same node table.
func TestInternCompositeOracleCSPGen(t *testing.T) {
	const maxStates = 300
	composites := 0
	for seed := int64(1); seed <= 60; seed++ {
		var sem *csp.Semantics
		var roots []csp.Process
		if seed%3 == 0 {
			s, spec, impl := cspgen.Punned(seed, "")
			sem, roots = s, []csp.Process{spec, impl}
		} else {
			s, root := cspgen.Model(seed)
			sem, roots = s, []csp.Process{root}
		}
		in, whole, ref := csp.NewInterner(), csp.NewInterner(), newRefInterner(t)
		seen := map[csp.TermID]bool{}
		frontier := roots
		for len(frontier) > 0 && len(seen) < maxStates {
			p := frontier[0]
			frontier = frontier[1:]
			id := ref.process(in, p)
			if w := whole.Process(p); w != id {
				t.Fatalf("seed %d: Process gives %s ID %d, the constructors %d", seed, p.Key(), w, id)
			}
			if seen[id] {
				continue
			}
			seen[id] = true
			trs, err := cspref.Transitions(sem, p)
			if err != nil {
				continue // an unguarded or out-of-range branch: not a state to walk
			}
			for _, tr := range trs {
				frontier = append(frontier, tr.To)
			}
		}
		ref.requireKeys(in)
		ref.requireKeys(whole)
		if _, err := csp.DecodeNodes(in.Keys()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		composites += in.Composites()
	}
	if composites < 1000 {
		t.Fatalf("the generated systems held only %d composite nodes", composites)
	}
}

// syntheticComposites drives in and ref through n composite operations
// over a few leaves, each chosen by intn (which returns a number in
// [0, n)). A third of them repeat an earlier operation and a third are
// its twin, differing in one field: the table must tell such keys apart
// wherever their probe sequences cross. It checks every ID both assign.
func syntheticComposites(in *csp.Interner, ref *refInterner, intn func(n int) int, n int) {
	procs := []csp.TermID{in.Process(csp.Stop()), in.Process(csp.Skip()), in.Process(csp.Prefix("a", nil, csp.Stop()))}
	sets := []csp.TermID{in.EventSet(nil), in.EventSet(csp.NewEventSet().AddChannel("a")), in.EventSet(csp.NewEventSet().AddChannel("b"))}
	maps := []csp.TermID{in.Mapping(map[string]string{"a": "b"}), in.Mapping(map[string]string{"b": "a"})}
	ref.adopt(in)
	type op struct {
		tag     byte
		a, b, c csp.TermID
	}
	pick := func(ids []csp.TermID) csp.TermID { return ids[intn(len(ids))] }
	// fresh gives o a random tag and the fields that tag reads, keeping
	// a and b when keep is set.
	fresh := func(o op, keep bool) op {
		if !keep {
			o.a, o.b = pick(procs), pick(procs)
		}
		o.c = 0
		switch intn(5) {
		case 0:
			o.tag = csp.TagExtChoice
		case 1:
			o.tag = csp.TagSeq
		case 2:
			o.tag, o.c = csp.TagPar, pick(sets)
		case 3:
			o.tag, o.b = csp.TagHide, pick(sets)
		default:
			o.tag, o.b = csp.TagRename, pick(maps)
		}
		return o
	}
	var ops []op
	for len(ops) < n {
		var o op
		switch mode := intn(3); {
		case len(ops) == 0 || mode == 2:
			o = fresh(o, false)
		case mode == 0:
			o = ops[intn(len(ops))]
		default:
			o = ops[intn(len(ops))]
			switch intn(4) {
			case 0:
				o = fresh(o, true)
			case 1:
				o.a = pick(procs)
			case 2:
				if o.tag == csp.TagExtChoice || o.tag == csp.TagSeq || o.tag == csp.TagPar {
					o.b = pick(procs)
				}
			default:
				switch o.tag {
				case csp.TagPar:
					o.c = pick(sets)
				case csp.TagHide:
					o.b = pick(sets)
				case csp.TagRename:
					o.b = pick(maps)
				}
			}
		}
		var got, want csp.TermID
		switch o.tag {
		case csp.TagExtChoice:
			got, want = in.ExtChoice(o.a, o.b), ref.composite(o.tag, o.a, o.b)
		case csp.TagSeq:
			got, want = in.Seq(o.a, o.b), ref.composite(o.tag, o.a, o.b)
		case csp.TagPar:
			got, want = in.Par(o.a, o.b, o.c), ref.composite(o.tag, o.a, o.b, o.c)
		case csp.TagHide:
			got, want = in.Hide(o.a, o.b), ref.composite(o.tag, o.a, o.b)
		default:
			got, want = in.Rename(o.a, o.b), ref.composite(o.tag, o.a, o.b)
		}
		if got != want {
			ref.t.Fatalf("operation %d %+v interned to %d, the reference's %d", len(ops), o, got, want)
		}
		ops = append(ops, o)
		procs = append(procs, got)
	}
}

// TestInternCompositeOracleRegrowth interns over 200,000 distinct
// composites, which regrows the table 13 times (64 to 2^19 slots), and
// checks every ID and the rendered node table against the reference.
func TestInternCompositeOracleRegrowth(t *testing.T) {
	in, ref := csp.NewInterner(), newRefInterner(t)
	syntheticComposites(in, ref, rand.New(rand.NewSource(1)).Intn, 420_000)
	if in.Composites() < 200_000 {
		t.Fatalf("only %d distinct composites", in.Composites())
	}
	ref.requireKeys(in)
}

// FuzzInternComposite drives the interner and the reference through
// the composite operations the input spells, two bytes per choice.
func FuzzInternComposite(f *testing.F) {
	seed := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(seed)
	f.Add(seed)
	f.Add(bytes.Repeat([]byte{0, 0, 1, 0}, 256))
	f.Fuzz(func(t *testing.T, data []byte) {
		intn := func(n int) int {
			if len(data) < 2 {
				return 0
			}
			v := int(binary.LittleEndian.Uint16(data))
			data = data[2:]
			return v % n
		}
		in, ref := csp.NewInterner(), newRefInterner(t)
		syntheticComposites(in, ref, intn, len(data)/8)
		ref.requireKeys(in)
	})
}
