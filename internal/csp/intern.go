package csp

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"unsafe"
)

// TermID is the dense identifier of a hash-consed term node. Two terms
// receive the same TermID exactly when they are structurally equal, so
// exploration dedup becomes an integer comparison instead of a
// canonical-string comparison.
type TermID uint32

// Node tags. Every interned node's key starts with its tag byte; the
// remaining payload is an unambiguous (length-prefixed / counted)
// encoding of the node's own data plus the TermIDs of its children, so
// key equality is exactly structural term equality.
const (
	itagStop byte = iota + 1
	itagSkip
	itagOmega
	itagPrefix
	itagExtChoice
	itagIntChoice
	itagSeq
	itagPar
	itagHide
	itagRename
	itagIf
	itagCall
	itagFieldOut
	itagFieldIn
	itagFieldInRestrict
	itagExprLit
	itagExprVar
	itagExprBinary
	itagExprUnary
	itagExprDot
	itagExprSetAdd
	itagExprMember
	itagValInt
	itagValBool
	itagValSym
	itagValDotted
	itagValSet
	itagEvent
	itagEventSet
	itagMapping
)

// Interner hash-conses CSP terms bottom-up: every distinct subterm
// (process, communication field, expression, value, event, event set)
// is assigned a stable dense TermID, and structurally equal terms — the
// state-identity relation of exploration — always map to the same ID.
// Interning a term walks it once and performs one table hit per node
// with no allocation on the hit path, replacing the recursive
// canonical-string rendering (Process.Key) that previously dominated
// state interning.
//
// Equality is structural, which is strictly finer than Key-string
// equality: value kinds that render identically (Sym("5") vs Int(5))
// intern differently. For models whose value spaces do not pun on
// rendered syntax — all models this library builds — the two relations
// coincide.
//
// An Interner is not safe for concurrent use; each exploration owns
// one. EventSets and rename mappings are memoized by pointer (they are
// structurally shared across Subst), so they must not be mutated once
// interning has begun — the same immutability exploration already
// requires of them.
type Interner struct {
	ids     map[string]int
	bytes   int64
	keys    [][]byte // keys[id]: the node table, the same bytes as the index's keys
	chunk   []byte   // the key arena's current chunk; see finish
	scratch []byte
	sets    map[*EventSet]TermID
	maps    map[uintptr]TermID
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		ids:     map[string]int{},
		scratch: make([]byte, 0, 128),
		sets:    map[*EventSet]TermID{},
		maps:    map[uintptr]TermID{},
	}
}

// Reset empties the interner for reuse, keeping its capacity.
func (in *Interner) Reset() {
	clear(in.ids)
	clear(in.sets)
	clear(in.maps)
	in.bytes = 0
	in.keys = in.keys[:0]
}

// Len returns the number of interned nodes (the next TermID to be
// assigned).
func (in *Interner) Len() int { return len(in.ids) }

// Keys returns the node table: Keys()[i] is the key of TermID i, the
// persisted form of every term interned so far, which DecodeNodes reads
// back. They are the index's own bytes: the caller must not modify them.
func (in *Interner) Keys() [][]byte { return in.keys }

// Per-node resident cost beyond the key bytes: a map[string]int entry
// (string header, int, amortised bucket overhead) and the key's slice
// header in the node table.
const (
	mapEntryOverhead = 48
	keySlotOverhead  = 24
)

// Bytes estimates the resident size of the interner: the index's
// entries and the node table, which share each key's bytes.
func (in *Interner) Bytes() int64 { return in.bytes }

// finish interns the node encoded in scratch and returns its ID.
func (in *Interner) finish() TermID {
	if id, ok := in.ids[string(in.scratch)]; ok { // no allocation: the compiler optimises this lookup
		return TermID(id)
	}
	id := len(in.ids)
	// The key is copied into the key arena, whose chunks grow
	// geometrically up to 64 KiB: one allocation per chunk, not per node.
	// Bytes below a chunk's length are never written again, not even
	// after Reset, so the index's map key is a string over the same bytes.
	if n := len(in.scratch); cap(in.chunk)-len(in.chunk) < n {
		in.chunk = make([]byte, 0, max(n, 256, min(2*cap(in.chunk), 64<<10)))
	}
	start := len(in.chunk)
	in.chunk = append(in.chunk, in.scratch...)
	key := in.chunk[start:len(in.chunk):len(in.chunk)]
	in.ids[unsafe.String(&key[0], len(key))] = id
	in.keys = append(in.keys, key)
	in.bytes += int64(len(key)) + mapEntryOverhead + keySlotOverhead
	return TermID(id)
}

func (in *Interner) begin(tag byte) { in.scratch = append(in.scratch[:0], tag) }

func (in *Interner) str(s string) {
	in.scratch = binary.AppendUvarint(in.scratch, uint64(len(s)))
	in.scratch = append(in.scratch, s...)
}

func (in *Interner) id(t TermID) {
	in.scratch = binary.AppendUvarint(in.scratch, uint64(t))
}

func (in *Interner) count(n int) {
	in.scratch = binary.AppendUvarint(in.scratch, uint64(n))
}

func (in *Interner) leaf(tag byte) TermID {
	in.begin(tag)
	return in.finish()
}

// Process interns a process term, hash-consing every subterm.
func (in *Interner) Process(p Process) TermID {
	switch x := p.(type) {
	case StopProc:
		return in.leaf(itagStop)
	case SkipProc:
		return in.leaf(itagSkip)
	case OmegaProc:
		return in.leaf(itagOmega)
	case PrefixProc:
		var arr [8]TermID
		fields := arr[:0]
		for _, f := range x.Fields {
			fields = append(fields, in.field(f))
		}
		cont := in.Process(x.Cont)
		in.begin(itagPrefix)
		in.str(x.Chan)
		in.count(len(fields))
		for _, f := range fields {
			in.id(f)
		}
		in.id(cont)
		return in.finish()
	case ExtChoiceProc:
		return in.ExtChoice(in.Process(x.L), in.Process(x.R))
	case IntChoiceProc:
		return in.binary(itagIntChoice, in.Process(x.L), in.Process(x.R))
	case SeqProc:
		return in.Seq(in.Process(x.L), in.Process(x.R))
	case ParProc:
		return in.Par(in.Process(x.L), in.Process(x.R), in.EventSet(x.Sync))
	case HideProc:
		return in.Hide(in.Process(x.P), in.EventSet(x.Set))
	case RenameProc:
		return in.Rename(in.Process(x.P), in.Mapping(x.Mapping))
	case IfProc:
		c, t, e := in.expr(x.Cond), in.Process(x.Then), in.Process(x.Else)
		in.begin(itagIf)
		in.id(c)
		in.id(t)
		in.id(e)
		return in.finish()
	case CallProc:
		var arr [8]TermID
		args := arr[:0]
		for _, a := range x.Args {
			args = append(args, in.expr(a))
		}
		in.begin(itagCall)
		in.str(x.Name)
		in.count(len(args))
		for _, a := range args {
			in.id(a)
		}
		return in.finish()
	}
	panic(fmt.Sprintf("csp: interner: unknown process type %T", p))
}

// The constructors below intern a composite process node directly from
// its children's IDs, with exactly the encoding Process gives the same
// term, so a compiled exploration can build successor states without
// materialising and re-walking their syntax trees.

// ExtChoice interns l [] r.
func (in *Interner) ExtChoice(l, r TermID) TermID { return in.binary(itagExtChoice, l, r) }

// Seq interns l ; r.
func (in *Interner) Seq(l, r TermID) TermID { return in.binary(itagSeq, l, r) }

// Par interns l [| sync |] r, where sync is an EventSet ID.
func (in *Interner) Par(l, r, sync TermID) TermID {
	in.begin(itagPar)
	in.id(l)
	in.id(r)
	in.id(sync)
	return in.finish()
}

// Hide interns p \ set, where set is an EventSet ID.
func (in *Interner) Hide(p, set TermID) TermID { return in.binary(itagHide, p, set) }

// Rename interns p[[mapping]], where mapping is a Mapping ID.
func (in *Interner) Rename(p, mapping TermID) TermID { return in.binary(itagRename, p, mapping) }

func (in *Interner) binary(tag byte, l, r TermID) TermID {
	in.begin(tag)
	in.id(l)
	in.id(r)
	return in.finish()
}

func (in *Interner) field(f CommField) TermID {
	if !f.IsInput {
		e := in.expr(f.Expr)
		in.begin(itagFieldOut)
		in.id(e)
		return in.finish()
	}
	if f.Restrict == nil {
		in.begin(itagFieldIn)
		in.str(f.Var)
		return in.finish()
	}
	r := in.expr(f.Restrict)
	in.begin(itagFieldInRestrict)
	in.str(f.Var)
	in.id(r)
	return in.finish()
}

func (in *Interner) expr(x Expr) TermID {
	switch e := x.(type) {
	case Lit:
		v := in.value(e.Val)
		in.begin(itagExprLit)
		in.id(v)
		return in.finish()
	case Var:
		in.begin(itagExprVar)
		in.str(e.Name)
		return in.finish()
	case Binary:
		l, r := in.expr(e.L), in.expr(e.R)
		in.begin(itagExprBinary)
		in.scratch = append(in.scratch, byte(e.Op))
		in.id(l)
		in.id(r)
		return in.finish()
	case Unary:
		xi := in.expr(e.X)
		in.begin(itagExprUnary)
		in.scratch = append(in.scratch, byte(e.Op))
		in.id(xi)
		return in.finish()
	case DotExpr:
		var arr [8]TermID
		args := arr[:0]
		for _, a := range e.Args {
			args = append(args, in.expr(a))
		}
		in.begin(itagExprDot)
		in.str(string(e.Head))
		in.count(len(args))
		for _, a := range args {
			in.id(a)
		}
		return in.finish()
	case SetAddExpr:
		b, el := in.expr(e.Base), in.expr(e.Elem)
		in.begin(itagExprSetAdd)
		in.id(b)
		in.id(el)
		return in.finish()
	case MemberExpr:
		el, s := in.expr(e.Elem), in.expr(e.Set)
		in.begin(itagExprMember)
		in.id(el)
		in.id(s)
		return in.finish()
	}
	panic(fmt.Sprintf("csp: interner: unknown expression type %T", x))
}

func (in *Interner) value(v Value) TermID {
	switch x := v.(type) {
	case Int:
		in.begin(itagValInt)
		in.scratch = binary.AppendVarint(in.scratch, int64(x))
		return in.finish()
	case Bool:
		in.begin(itagValBool)
		if x {
			in.scratch = append(in.scratch, 1)
		} else {
			in.scratch = append(in.scratch, 0)
		}
		return in.finish()
	case Sym:
		in.begin(itagValSym)
		in.str(string(x))
		return in.finish()
	case Dotted:
		var arr [8]TermID
		args := arr[:0]
		for _, a := range x.Args {
			args = append(args, in.value(a))
		}
		in.begin(itagValDotted)
		in.str(string(x.Head))
		in.count(len(args))
		for _, a := range args {
			in.id(a)
		}
		return in.finish()
	case SetValue:
		// Elements are already in canonical (sorted, deduplicated) order.
		var arr [8]TermID
		elems := arr[:0]
		for _, e := range x.Elems() {
			elems = append(elems, in.value(e))
		}
		in.begin(itagValSet)
		in.count(len(elems))
		for _, e := range elems {
			in.id(e)
		}
		return in.finish()
	}
	panic(fmt.Sprintf("csp: interner: unknown value type %T", v))
}

// Event interns an event (tau and tick included; their reserved channel
// names keep them distinct from every visible event).
func (in *Interner) Event(e Event) TermID {
	var arr [8]TermID
	args := arr[:0]
	for _, a := range e.Args {
		args = append(args, in.value(a))
	}
	in.begin(itagEvent)
	in.str(e.Chan)
	in.count(len(args))
	for _, a := range args {
		in.id(a)
	}
	return in.finish()
}

// EventSet interns an event set by content. A nil set encodes identically to
// an empty set — the same identification the canonical Key strings have
// always made — and distinct *EventSet pointers with equal content
// intern to the same ID. The per-pointer memo only skips re-encoding.
func (in *Interner) EventSet(s *EventSet) TermID {
	if s != nil {
		if id, ok := in.sets[s]; ok {
			return id
		}
	}
	var chans []string
	var evIDs []TermID
	if s != nil {
		chans = make([]string, 0, len(s.chans))
		for c := range s.chans {
			chans = append(chans, c)
		}
		sort.Strings(chans)
		keys := make([]string, 0, len(s.events))
		for k := range s.events {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			evIDs = append(evIDs, in.Event(s.events[k]))
		}
	}
	in.begin(itagEventSet)
	in.count(len(chans))
	for _, c := range chans {
		in.str(c)
	}
	in.count(len(evIDs))
	for _, e := range evIDs {
		in.id(e)
	}
	id := in.finish()
	if s != nil {
		in.sets[s] = id
	}
	return id
}

// Mapping interns a rename mapping by content, memoized by map pointer
// (mappings are shared unchanged across Subst).
func (in *Interner) Mapping(m map[string]string) TermID {
	var ptr uintptr
	if m != nil {
		ptr = reflect.ValueOf(m).Pointer()
		if id, ok := in.maps[ptr]; ok {
			return id
		}
	}
	froms := make([]string, 0, len(m))
	for from := range m {
		froms = append(froms, from)
	}
	sort.Strings(froms)
	in.begin(itagMapping)
	in.count(len(froms))
	for _, from := range froms {
		in.str(from)
		in.str(m[from])
	}
	id := in.finish()
	if m != nil {
		in.maps[ptr] = id
	}
	return id
}

// The node table. The keys an Interner assigns, listed in TermID order,
// are a complete serialization of every term interned: each key is its
// node's tag and payload over child IDs, and children are always
// interned before their parent, so they have smaller IDs. DecodeNodes
// reads such a table back into terms — the format checkpoints persist.

// maxTermNodes bounds the tree size of any decoded term. A table shares
// subterms, so a few dozen keys can spell a term with billions of tree
// nodes; every walk over terms (interning, Key, the semantics) is linear
// in tree size, so such a table is rejected rather than walked.
const maxTermNodes = 1 << 20

// Nodes is a decoded node table: node i is the term keys[i] encodes — a
// Process, CommField, Expr, Value, Event, *EventSet or rename mapping.
type Nodes struct {
	terms []any
}

// Process returns node id as a process, or ok=false if it is not one.
func (n *Nodes) Process(id TermID) (p Process, ok bool) {
	if int(id) < len(n.terms) {
		p, ok = n.terms[id].(Process)
	}
	return p, ok
}

// Event returns node id as an event, or ok=false if it is not one.
func (n *Nodes) Event(id TermID) (e Event, ok bool) {
	if int(id) < len(n.terms) {
		e, ok = n.terms[id].(Event)
	}
	return e, ok
}

// DecodeNodes rebuilds the terms of a node table, bottom-up in ID order.
// The table is untrusted input (a checkpoint file), so every key is
// checked: a known tag, well-formed minimal varints, counts and lengths
// no larger than the bytes left, child references to earlier nodes of
// the right kind, canonically ordered sets and mappings, no trailing
// bytes, no duplicate keys and no term over maxTermNodes. An accepted
// table therefore re-interns, node by node, to exactly the same keys.
func DecodeNodes(keys [][]byte) (*Nodes, error) {
	n := &Nodes{terms: make([]any, 0, len(keys))}
	sizes := make([]int, 0, len(keys)) // tree size of each term, at most maxTermNodes
	seen := make(map[string]bool, len(keys))
	for i, key := range keys {
		d := nodeDecoder{nodes: n, sizes: sizes, key: key, self: i, size: 1}
		term := d.node()
		switch {
		case d.err != nil:
		case d.pos != len(key):
			d.fail("%d trailing bytes", len(key)-d.pos)
		case d.size > maxTermNodes:
			d.fail("term exceeds %d nodes", maxTermNodes)
		case seen[string(key)]:
			d.fail("duplicate key")
		}
		if d.err != nil {
			return nil, d.err
		}
		seen[string(key)] = true
		n.terms = append(n.terms, term)
		sizes = append(sizes, d.size)
	}
	return n, nil
}

// nodeDecoder reads one key. The first error sticks; later reads return
// zero values, so a node's decoding reads straight through.
type nodeDecoder struct {
	nodes *Nodes // the earlier nodes
	sizes []int  // the earlier nodes' tree sizes
	key   []byte
	pos   int
	self  int // this node's ID
	size  int // this node's tree size, counting children read so far
	err   error
}

func (d *nodeDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("csp: node %d: "+format, append([]any{d.self}, args...)...)
	}
}

func (d *nodeDecoder) readByte() byte {
	if d.err != nil || d.pos >= len(d.key) {
		d.fail("truncated")
		return 0
	}
	d.pos++
	return d.key[d.pos-1]
}

// uvarint reads a minimally encoded unsigned varint — the only form
// binary.AppendUvarint produces, so re-encoding reproduces the key.
func (d *nodeDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.key[d.pos:])
	if n <= 0 || (n > 1 && d.key[d.pos+n-1] == 0) {
		d.fail("truncated, overlong or non-minimal varint")
		return 0
	}
	d.pos += n
	return v
}

// count reads an element count. Every element takes at least one byte,
// so a count beyond the bytes left is rejected before anything is
// allocated for it.
func (d *nodeDecoder) count() int {
	c := d.uvarint()
	if c > uint64(len(d.key)-d.pos) {
		d.fail("count %d exceeds the %d bytes left", c, len(d.key)-d.pos)
		return 0
	}
	return int(c)
}

func (d *nodeDecoder) str() string {
	n := d.count()
	d.pos += n
	return string(d.key[d.pos-n : d.pos])
}

// child reads a child reference, which must name an earlier node whose
// term is a T.
func child[T any](d *nodeDecoder) T {
	var zero T
	id := d.uvarint()
	if d.err != nil {
		return zero
	}
	if id >= uint64(d.self) {
		d.fail("reference to node %d is not to an earlier node", id)
		return zero
	}
	t, ok := d.nodes.terms[id].(T)
	if !ok {
		d.fail("child %d has the wrong kind", id)
	}
	d.size = min(d.size+d.sizes[id], maxTermNodes+1)
	return t
}

// children reads a counted list of child references.
func children[T any](d *nodeDecoder) []T {
	n := d.count()
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = child[T](d)
	}
	return out
}

// ascending fails unless s > prev (for i > 0): the strictly sorted
// order the interner encodes sets and mappings in.
func (d *nodeDecoder) ascending(i int, prev, s string) {
	if i > 0 && s <= prev {
		d.fail("members not in strictly ascending order")
	}
}

// node decodes the key's node; the inverse of the Interner's encoding.
func (d *nodeDecoder) node() any {
	switch tag := d.readByte(); tag {
	case itagStop:
		return StopProc{}
	case itagSkip:
		return SkipProc{}
	case itagOmega:
		return OmegaProc{}
	case itagPrefix:
		return PrefixProc{Chan: d.str(), Fields: children[CommField](d), Cont: child[Process](d)}
	case itagExtChoice:
		return ExtChoiceProc{L: child[Process](d), R: child[Process](d)}
	case itagIntChoice:
		return IntChoiceProc{L: child[Process](d), R: child[Process](d)}
	case itagSeq:
		return SeqProc{L: child[Process](d), R: child[Process](d)}
	case itagPar:
		return ParProc{L: child[Process](d), R: child[Process](d), Sync: child[*EventSet](d)}
	case itagHide:
		return HideProc{P: child[Process](d), Set: child[*EventSet](d)}
	case itagRename:
		return RenameProc{P: child[Process](d), Mapping: child[map[string]string](d)}
	case itagIf:
		return IfProc{Cond: child[Expr](d), Then: child[Process](d), Else: child[Process](d)}
	case itagCall:
		return CallProc{Name: d.str(), Args: children[Expr](d)}
	case itagFieldOut:
		return CommField{Expr: child[Expr](d)}
	case itagFieldIn:
		return CommField{IsInput: true, Var: d.str()}
	case itagFieldInRestrict:
		return CommField{IsInput: true, Var: d.str(), Restrict: child[Expr](d)}
	case itagExprLit:
		return Lit{Val: child[Value](d)}
	case itagExprVar:
		return Var{Name: d.str()}
	case itagExprBinary:
		op := BinOp(d.readByte())
		if op < OpAdd || op > OpOr {
			d.fail("unknown binary operator %d", op)
		}
		return Binary{Op: op, L: child[Expr](d), R: child[Expr](d)}
	case itagExprUnary:
		op := UnOp(d.readByte())
		if op != OpNeg && op != OpNot {
			d.fail("unknown unary operator %d", op)
		}
		return Unary{Op: op, X: child[Expr](d)}
	case itagExprDot:
		return DotExpr{Head: Sym(d.str()), Args: children[Expr](d)}
	case itagExprSetAdd:
		return SetAddExpr{Base: child[Expr](d), Elem: child[Expr](d)}
	case itagExprMember:
		return MemberExpr{Elem: child[Expr](d), Set: child[Expr](d)}
	case itagValInt:
		// Zigzag, as binary.AppendVarint writes it.
		u := d.uvarint()
		return Int(int64(u>>1) ^ -int64(u&1))
	case itagValBool:
		b := d.readByte()
		if b > 1 {
			d.fail("bool byte %d", b)
		}
		return Bool(b == 1)
	case itagValSym:
		return Sym(d.str())
	case itagValDotted:
		return Dotted{Head: Sym(d.str()), Args: children[Value](d)}
	case itagValSet:
		// The encoding lists Elems() in canonical order; values that
		// render alike (Sym("5"), Int(5)) have no canonical order between
		// them, so such a set is rejected.
		elems := children[Value](d)
		for i := 1; i < len(elems) && d.err == nil; i++ {
			d.ascending(i, elems[i-1].String(), elems[i].String())
		}
		return SetValue{elems: elems}
	case itagEvent:
		return Event{Chan: d.str(), Args: children[Value](d)}
	case itagEventSet:
		s := NewEventSet()
		prev := ""
		for i, n := 0, d.count(); i < n && d.err == nil; i++ {
			c := d.str()
			d.ascending(i, prev, c)
			s.AddChannel(c)
			prev = c
		}
		for i, n := 0, d.count(); i < n && d.err == nil; i++ {
			e := child[Event](d)
			d.ascending(i, prev, e.String())
			s.AddEvent(e)
			prev = e.String()
		}
		return s
	case itagMapping:
		m := map[string]string{}
		prev := ""
		for i, n := 0, d.count(); i < n && d.err == nil; i++ {
			from := d.str()
			d.ascending(i, prev, from)
			m[from] = d.str()
			prev = from
		}
		return m
	default:
		d.fail("unknown tag %d", tag)
		return nil
	}
}
