package csp

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
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
// Nodes live in one ID space, numbered in first-intern order, and are
// indexed two ways. A composite process node ([| |], \, [[ ]], [] and
// ;) is fully described by its tag and up to three child IDs, so it is
// looked up in a pointer-free open-addressing table keyed by those
// fixed-width fields: no encoding, no string hash and nothing for the
// garbage collector to scan. Every other node (a leaf: prefix, |~|,
// call, conditional, field, expression, value, event, set, mapping) is
// keyed by its byte encoding in a map. A composite's byte encoding is
// rendered only when Keys asks for the node table.
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
	ids     map[string]int // leaf keys
	bytes   int64          // leaf keys and records, map entries, rendered composite keys
	leaves  []leafRec      // the leaves, in ID order
	keys    [][]byte       // the node table as far as Keys has listed it
	chunk   []byte         // the key arena's current chunk; see store
	scratch []byte
	sets    map[*EventSet]TermID
	maps    map[uintptr]TermID

	// The composite index: slots is an open-addressing table (linear
	// probing, a power of two long, at most 3/4 full) of record index + 1,
	// 0 for an empty slot; recs holds the composites in ID order, and
	// recs[:rendered] are listed in keys.
	slots    []uint32
	recs     []compRec
	rendered int
}

// leafRec is one leaf's record: its key, which its map entry shares.
type leafRec struct {
	key []byte
	id  TermID
}

// compKey is a composite node: its tag and children. Par uses a, b and
// aux (the sync set); the other composites use a and b and leave aux 0.
type compKey struct {
	tag       uint32
	a, b, aux TermID
}

// compRec is one composite node's record in the index.
type compRec struct {
	key compKey
	id  TermID
}

// The composite table starts at 64 slots with room for 32 records, when
// the first composite is interned, so an interner of leaves only (an
// event lookup, a value's identity) never allocates one.
const (
	compSlots0 = 64
	compRecs0  = 32
)

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{
		ids:     map[string]int{},
		scratch: make([]byte, 0, 128),
		sets:    map[*EventSet]TermID{},
		maps:    map[uintptr]TermID{},
	}
}

// maxKeptSlots bounds the composite table Reset keeps: a larger one is
// released, so a pooled interner holds no table a large term once grew.
const maxKeptSlots = 1 << 12

// Reset empties the interner for reuse, keeping the capacity of its leaf
// index, node table and the key arena's current chunk, which it writes
// again from the start, and a composite table of up to maxKeptSlots
// slots, cleared. A reset interner assigns the IDs a fresh one would,
// in the same first-intern order, and Bytes reads the same.
func (in *Interner) Reset() {
	clear(in.ids)
	clear(in.sets)
	clear(in.maps)
	in.bytes = 0
	clear(in.leaves) // nothing may pin an earlier chunk
	in.leaves = in.leaves[:0]
	clear(in.keys)
	in.keys = in.keys[:0]
	in.chunk = in.chunk[:0]
	if len(in.slots) <= maxKeptSlots {
		clear(in.slots)
		in.recs = in.recs[:0]
	} else {
		in.slots, in.recs = nil, nil
	}
	in.rendered = 0
}

// Len returns the number of interned nodes (the next TermID to be
// assigned).
func (in *Interner) Len() int { return len(in.leaves) + len(in.recs) }

// Composites returns how many of the interned nodes are composite
// process nodes; the other Len() - Composites() are leaves.
func (in *Interner) Composites() int { return len(in.recs) }

// Keys returns the node table: Keys()[i] is the key of TermID i, the
// persisted form of every term interned so far, which DecodeNodes reads
// back. It extends the table with the nodes interned since the last
// call, merging the leaf and composite records by ID and rendering each
// composite's byte encoding; the table and the rendered keys then stay
// resident (and count in Bytes). The keys are the interner's own bytes:
// the caller must not modify them, and they are overwritten after
// Reset.
func (in *Interner) Keys() [][]byte {
	leaf := len(in.keys) - in.rendered
	for id := TermID(len(in.keys)); int(id) < in.Len(); id++ {
		if leaf < len(in.leaves) && in.leaves[leaf].id == id {
			in.keys = append(in.keys, in.leaves[leaf].key)
			leaf++
			continue
		}
		k := in.recs[in.rendered].key
		in.rendered++
		in.begin(byte(k.tag))
		in.id(k.a)
		in.id(k.b)
		if byte(k.tag) == itagPar {
			in.id(k.aux)
		}
		key := in.store()
		in.keys = append(in.keys, key)
		in.bytes += int64(len(key))
	}
	return in.keys
}

// Per-node resident cost beyond the key bytes: a leaf's map[string]int
// entry (string header, int, amortised bucket overhead) and record, a
// composite's record, and a listed node's key slice header in the node
// table.
const (
	mapEntryOverhead = 48
	leafRecBytes     = int64(unsafe.Sizeof(leafRec{}))
	compRecBytes     = int64(unsafe.Sizeof(compRec{}))
	keySlotOverhead  = 24
)

// Bytes estimates the resident size of the interner: the leaves' keys,
// index entries and records, the composite records and table, and the
// node table Keys has listed, with the composite keys it rendered (a
// leaf's key is shared, not copied).
func (in *Interner) Bytes() int64 {
	return in.bytes + int64(len(in.recs))*compRecBytes + int64(compSlots(len(in.recs)))*4 +
		int64(len(in.keys))*keySlotOverhead
}

// compSlots is the length of the composite table a fresh interner has
// after interning n composites: none before the first, then compSlots0,
// doubled whenever it would be more than 3/4 full. Bytes counts it
// rather than the table's actual length, which a reset interner may
// inherit from an earlier, larger use.
func compSlots(n int) int {
	if n == 0 {
		return 0
	}
	s := compSlots0
	for 4*n > 3*s {
		s *= 2
	}
	return s
}

// finish interns the leaf node encoded in scratch and returns its ID.
func (in *Interner) finish() TermID {
	if id, ok := in.ids[string(in.scratch)]; ok { // no allocation: the compiler optimises this lookup
		return TermID(id)
	}
	id := in.Len()
	key := in.store()
	in.ids[unsafe.String(&key[0], len(key))] = id
	in.leaves = append(in.leaves, leafRec{key: key, id: TermID(id)})
	in.bytes += int64(len(key)) + mapEntryOverhead + leafRecBytes
	return TermID(id)
}

// store copies scratch into the key arena, whose chunks grow
// geometrically up to 64 KiB: one allocation per chunk, not per node.
// Bytes below a chunk's length are not written again before Reset, so
// the leaf index's map key is a string over the same bytes.
func (in *Interner) store() []byte {
	if n := len(in.scratch); cap(in.chunk)-len(in.chunk) < n {
		in.chunk = make([]byte, 0, max(n, 256, min(2*cap(in.chunk), 64<<10)))
	}
	start := len(in.chunk)
	in.chunk = append(in.chunk, in.scratch...)
	return in.chunk[start:len(in.chunk):len(in.chunk)]
}

// composite interns the composite node k and returns its ID.
func (in *Interner) composite(k compKey) TermID {
	if in.slots == nil {
		in.slots = make([]uint32, compSlots0)
		in.recs = make([]compRec, 0, compRecs0)
	}
	mask := uint32(len(in.slots) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		s := in.slots[i]
		if s == 0 {
			id := TermID(in.Len())
			in.recs = append(in.recs, compRec{key: k, id: id})
			in.slots[i] = uint32(len(in.recs))
			if 4*len(in.recs) > 3*len(in.slots) {
				in.grow()
			}
			return id
		}
		if r := &in.recs[s-1]; r.key == k {
			return r.id
		}
	}
}

// grow doubles the composite table and re-inserts every record.
func (in *Interner) grow() {
	in.slots = make([]uint32, 2*len(in.slots))
	mask := uint32(len(in.slots) - 1)
	for r := range in.recs {
		i := in.recs[r].key.hash() & mask
		for in.slots[i] != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = uint32(r + 1)
	}
}

// hash mixes all of k's fields into the low bits the table indexes by.
func (k compKey) hash() uint32 {
	h := (uint64(k.a)<<32 | uint64(k.b)) * 0x9e3779b97f4a7c15
	h ^= uint64(k.aux)<<8 | uint64(k.tag)
	h = (h ^ h>>29) * 0xbf58476d1ce4e5b9
	return uint32(h ^ h>>32)
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
		l, r := in.Process(x.L), in.Process(x.R)
		in.begin(itagIntChoice)
		in.id(l)
		in.id(r)
		return in.finish()
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
// its children's IDs. Process reaches composites through them too, so a
// compiled exploration can build successor states without materialising
// and re-walking their syntax trees, and gets the IDs Process gives the
// same terms.

// ExtChoice interns l [] r.
func (in *Interner) ExtChoice(l, r TermID) TermID {
	return in.composite(compKey{tag: uint32(itagExtChoice), a: l, b: r})
}

// Seq interns l ; r.
func (in *Interner) Seq(l, r TermID) TermID {
	return in.composite(compKey{tag: uint32(itagSeq), a: l, b: r})
}

// Par interns l [| sync |] r, where sync is an EventSet ID.
func (in *Interner) Par(l, r, sync TermID) TermID {
	return in.composite(compKey{tag: uint32(itagPar), a: l, b: r, aux: sync})
}

// Hide interns p \ set, where set is an EventSet ID.
func (in *Interner) Hide(p, set TermID) TermID {
	return in.composite(compKey{tag: uint32(itagHide), a: p, b: set})
}

// Rename interns p[[mapping]], where mapping is a Mapping ID.
func (in *Interner) Rename(p, mapping TermID) TermID {
	return in.composite(compKey{tag: uint32(itagRename), a: p, b: mapping})
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

// Value interns a value, hash-consing every subterm.
func (in *Interner) Value(v Value) TermID { return in.value(v) }

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
	// Channels in ascending order, events in Compare order.
	var chans []string
	var events []Event
	if s != nil {
		for c := range s.chans {
			chans = append(chans, c)
		}
		for _, e := range s.events {
			events = append(events, e)
		}
	}
	sort.Strings(chans)
	slices.SortFunc(events, Compare)
	evIDs := make([]TermID, len(events))
	for i, e := range events {
		evIDs[i] = in.Event(e)
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

// ascending fails unless order > 0 for i > 0, where order compares a
// member with the one before it: the strictly sorted order the
// interner encodes sets and mappings in.
func (d *nodeDecoder) ascending(i, order int) {
	if i > 0 && order <= 0 {
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
		// The encoding lists Elems() in canonical (Compare) order.
		elems := children[Value](d)
		for i := 1; i < len(elems) && d.err == nil; i++ {
			d.ascending(i, Compare(elems[i], elems[i-1]))
		}
		return SetValue{elems: elems}
	case itagEvent:
		return Event{Chan: d.str(), Args: children[Value](d)}
	case itagEventSet:
		s := NewEventSet()
		prev := ""
		for i, n := 0, d.count(); i < n && d.err == nil; i++ {
			c := d.str()
			d.ascending(i, strings.Compare(c, prev))
			s.AddChannel(c)
			prev = c
		}
		var last Event
		for i, n := 0, d.count(); i < n && d.err == nil; i++ {
			e := child[Event](d)
			d.ascending(i, Compare(e, last))
			s.AddEvent(e)
			last = e
		}
		return s
	case itagMapping:
		m := map[string]string{}
		prev := ""
		for i, n := 0, d.count(); i < n && d.err == nil; i++ {
			from := d.str()
			d.ascending(i, strings.Compare(from, prev))
			m[from] = d.str()
			prev = from
		}
		return m
	default:
		d.fail("unknown tag %d", tag)
		return nil
	}
}
