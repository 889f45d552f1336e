package csp

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"sync"
)

// IdentityKey is the identity of t, a Process, Event or Value: the
// keys a fresh interner assigns while interning t, each
// length-prefixed. Two terms have the same key iff they are Equal —
// unlike String and Key, which render Int(5) and Sym("5") alike. It is
// the one key for sameness wherever a hash is needed. The interners are
// pooled and reset, so a call allocates little beyond the key.
func IdentityKey(t any) string {
	in := keyInterners.Get().(*Interner)
	defer keyInterners.Put(in)
	in.Reset()
	switch x := t.(type) {
	case Event:
		in.Event(x)
	case Value:
		in.value(x)
	case Process:
		in.Process(x)
	default:
		panic(fmt.Sprintf("csp: identity key of %T", t))
	}
	var arr [256]byte
	b := arr[:0]
	for _, k := range in.Keys() {
		b = binary.AppendUvarint(b, uint64(len(k)))
		b = append(b, k...)
	}
	return string(b)
}

var keyInterners = sync.Pool{New: func() any { return NewInterner() }}

// Compare is the canonical order of values and of events: by
// rendering, ties broken by IdentityKey. Terms that do not pun keep
// their rendering order, so every output and node table built from
// them is byte-stable; terms that render alike still get a total order.
func Compare[T fmt.Stringer](a, b T) int {
	if c := cmp.Compare(a.String(), b.String()); c != 0 {
		return c
	}
	return cmp.Compare(IdentityKey(a), IdentityKey(b))
}
