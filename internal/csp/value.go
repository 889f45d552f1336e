// Package csp implements the core of Communicating Sequential Processes:
// values, events, channel contexts, a process AST, and Roscoe-style
// operational semantics over finite alphabets. It is the foundation the
// rest of the library (LTS exploration, refinement checking, the CSPm
// front-end and the CAPL model extractor) builds on.
//
// The semantic model implemented is the finite-trace model described in
// section IV-A of Heneghan et al., "Enabling Security Checking of
// Automotive ECUs with Formal CSP Models" (DSN-W 2019), extended with the
// stable-failures information needed by the refinement checker.
package csp

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Value is a datum communicated over a channel or bound to a process
// parameter. Values are immutable and structurally comparable via Equal
// and canonically printable via String.
type Value interface {
	fmt.Stringer
	// Equal reports structural equality with another value.
	Equal(Value) bool
	isValue()
}

// Int is an integer value.
type Int int

func (i Int) String() string { return strconv.Itoa(int(i)) }
func (i Int) isValue()       {}

// Equal reports whether v is an Int with the same numeric value.
func (i Int) Equal(v Value) bool {
	o, ok := v.(Int)
	return ok && o == i
}

// Bool is a boolean value.
type Bool bool

func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}
func (b Bool) isValue() {}

// Equal reports whether v is a Bool with the same truth value.
func (b Bool) Equal(v Value) bool {
	o, ok := v.(Bool)
	return ok && o == b
}

// Sym is an atomic symbol: a nullary datatype constructor such as reqSw,
// or an agent/key name such as Alice.
type Sym string

func (s Sym) String() string { return string(s) }
func (s Sym) isValue()       {}

// Equal reports whether v is a Sym with the same name.
func (s Sym) Equal(v Value) bool {
	o, ok := v.(Sym)
	return ok && o == s
}

// Dotted is a compound value built from a datatype constructor applied to
// argument values, printed in CSPm dotted form, e.g. Enc.k.m.
type Dotted struct {
	Head Sym
	Args []Value
}

// NewDotted constructs a Dotted value, copying args.
func NewDotted(head Sym, args ...Value) Dotted {
	cp := make([]Value, len(args))
	copy(cp, args)
	return Dotted{Head: head, Args: cp}
}

func (d Dotted) String() string {
	var sb strings.Builder
	sb.WriteString(string(d.Head))
	for _, a := range d.Args {
		sb.WriteByte('.')
		sb.WriteString(a.String())
	}
	return sb.String()
}

func (d Dotted) isValue() {}

// Equal reports structural equality with another value.
func (d Dotted) Equal(v Value) bool {
	o, ok := v.(Dotted)
	if !ok || o.Head != d.Head || len(o.Args) != len(d.Args) {
		return false
	}
	for i, a := range d.Args {
		if !a.Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// SetValue is a finite set of values, usable as a process parameter
// (e.g. an intruder knowledge set). Its canonical form is sorted by
// Compare and holds no two Equal members, so two sets with the same
// members are Equal and have the same String, whatever order they were
// built in.
type SetValue struct {
	elems []Value
}

// NewSet builds a SetValue from the given elements, deduplicating them.
func NewSet(elems ...Value) SetValue {
	if len(elems) == 0 {
		return SetValue{}
	}
	sorted := make([]Value, len(elems))
	copy(sorted, elems)
	slices.SortFunc(sorted, Compare)
	out := sorted[:1]
	for _, e := range sorted[1:] {
		if !e.Equal(out[len(out)-1]) {
			out = append(out, e)
		}
	}
	return SetValue{elems: out}
}

// Add returns a new set that also contains v, inserted at its place in
// Compare order: one binary search, rendering v once, and one copy.
func (s SetValue) Add(v Value) SetValue {
	if s.Contains(v) {
		return s
	}
	vs := v.String()
	i, _ := slices.BinarySearchFunc(s.elems, v, func(e, v Value) int {
		if c := strings.Compare(e.String(), vs); c != 0 {
			return c
		}
		return Compare(e, v)
	})
	return SetValue{elems: slices.Insert(slices.Clip(s.elems), i, v)}
}

// Contains reports whether v is a member of the set. It scans with
// Equal, which allocates nothing: a binary search by Compare renders the
// members it visits, and on the small sets models hold (an intruder's
// knowledge) that made the NSPK attack search almost twice as slow.
func (s SetValue) Contains(v Value) bool {
	return slices.ContainsFunc(s.elems, v.Equal)
}

// Elems returns the members in canonical order. The caller must not
// mutate the returned slice.
func (s SetValue) Elems() []Value { return s.elems }

// Len returns the number of members.
func (s SetValue) Len() int { return len(s.elems) }

func (s SetValue) String() string {
	parts := make([]string, len(s.elems))
	for i, e := range s.elems {
		parts[i] = e.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func (s SetValue) isValue() {}

// Equal reports whether v is a SetValue with the same members.
func (s SetValue) Equal(v Value) bool {
	o, ok := v.(SetValue)
	if !ok || len(o.elems) != len(s.elems) {
		return false
	}
	for i, e := range s.elems {
		if !e.Equal(o.elems[i]) {
			return false
		}
	}
	return true
}
