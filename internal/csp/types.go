package csp

import (
	"fmt"
	"strings"
)

// Type describes a finite domain of values, used to type channel fields
// and to enumerate the possible bindings of an input prefix c?x.
type Type interface {
	// Values enumerates every member of the type in a deterministic order.
	Values() []Value
	// Contains reports whether v is a member of the type.
	Contains(v Value) bool
	// Name returns a printable name for diagnostics.
	Name() string
}

// IntRange is the integer interval {Lo..Hi}, inclusive.
type IntRange struct {
	Lo, Hi int
}

// Values enumerates Lo..Hi.
func (r IntRange) Values() []Value {
	if r.Hi < r.Lo {
		return nil
	}
	out := make([]Value, 0, r.Hi-r.Lo+1)
	for i := r.Lo; i <= r.Hi; i++ {
		out = append(out, Int(i))
	}
	return out
}

// Contains reports whether v is an Int within the interval.
func (r IntRange) Contains(v Value) bool {
	i, ok := v.(Int)
	return ok && int(i) >= r.Lo && int(i) <= r.Hi
}

// Name returns the interval in CSPm set notation.
func (r IntRange) Name() string { return fmt.Sprintf("{%d..%d}", r.Lo, r.Hi) }

// BoolType is the two-element boolean domain.
type BoolType struct{}

// Values enumerates false then true.
func (BoolType) Values() []Value { return []Value{Bool(false), Bool(true)} }

// Contains reports whether v is a Bool.
func (BoolType) Contains(v Value) bool {
	_, ok := v.(Bool)
	return ok
}

// Name returns "Bool".
func (BoolType) Name() string { return "Bool" }

// Ctor is one constructor of a DataType: a head symbol plus the types of
// its dotted arguments (empty for nullary constructors).
type Ctor struct {
	Head   Sym
	Fields []Type
}

// DataType is a CSPm-style datatype: a finite sum of constructors, each
// possibly carrying dotted payload fields, e.g.
// datatype Msg = reqSw | rptSw | mac.Key.Payload.
type DataType struct {
	TypeName string
	Ctors    []Ctor
}

// Values enumerates every value of the datatype: each nullary constructor
// as a Sym, and each payload-carrying constructor applied to every
// combination of its field values.
func (d DataType) Values() []Value {
	var out []Value
	for _, c := range d.Ctors {
		if len(c.Fields) == 0 {
			out = append(out, c.Head)
			continue
		}
		for _, combo := range cartesian(c.Fields) {
			out = append(out, NewDotted(c.Head, combo...))
		}
	}
	return out
}

// Contains reports whether v is a value of this datatype.
func (d DataType) Contains(v Value) bool {
	switch val := v.(type) {
	case Sym:
		for _, c := range d.Ctors {
			if c.Head == val && len(c.Fields) == 0 {
				return true
			}
		}
	case Dotted:
		for _, c := range d.Ctors {
			if c.Head != val.Head || len(c.Fields) != len(val.Args) {
				continue
			}
			ok := true
			for i, f := range c.Fields {
				if !f.Contains(val.Args[i]) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
	}
	return false
}

// Name returns the datatype's declared name.
func (d DataType) Name() string { return d.TypeName }

// EnumType is a convenience for a datatype of nullary constructors only.
func EnumType(name string, syms ...Sym) DataType {
	ctors := make([]Ctor, len(syms))
	for i, s := range syms {
		ctors[i] = Ctor{Head: s}
	}
	return DataType{TypeName: name, Ctors: ctors}
}

// UnionType is the union of several component types.
type UnionType struct {
	TypeName string
	Members  []Type
}

// Values enumerates the members of every component type, deduplicated.
func (u UnionType) Values() []Value {
	var out []Value
	seen := map[string]bool{}
	for _, m := range u.Members {
		for _, v := range m.Values() {
			k := IdentityKey(v)
			if !seen[k] {
				seen[k] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Contains reports whether any component type contains v.
func (u UnionType) Contains(v Value) bool {
	for _, m := range u.Members {
		if m.Contains(v) {
			return true
		}
	}
	return false
}

// Name returns the union's declared name.
func (u UnionType) Name() string { return u.TypeName }

// ExplicitType is a finite type given by an explicit list of values.
type ExplicitType struct {
	TypeName string
	Elems    []Value
}

// Values returns the explicit member list. Callers must not mutate it.
func (e ExplicitType) Values() []Value { return e.Elems }

// Contains reports whether v is one of the explicit members.
func (e ExplicitType) Contains(v Value) bool {
	for _, m := range e.Elems {
		if m.Equal(v) {
			return true
		}
	}
	return false
}

// Name returns the explicit type's declared name.
func (e ExplicitType) Name() string { return e.TypeName }

// Channel declares a typed channel: events on it are the channel name
// dotted with one value per field.
type Channel struct {
	ChanName string
	Fields   []Type
}

// Context holds the channel and type declarations a process alphabet is
// drawn from. It corresponds to the channel/datatype/nametype declaration
// section of a CSPm script.
type Context struct {
	channels map[string]*Channel
	order    []string
	types    map[string]Type
}

// NewContext returns an empty declaration context.
func NewContext() *Context {
	return &Context{
		channels: make(map[string]*Channel),
		types:    make(map[string]Type),
	}
}

// DeclareChannel registers a channel with the given field types. It
// returns an error if the name is already declared.
func (c *Context) DeclareChannel(name string, fields ...Type) error {
	if _, dup := c.channels[name]; dup {
		return fmt.Errorf("channel %q already declared", name)
	}
	c.channels[name] = &Channel{ChanName: name, Fields: fields}
	c.order = append(c.order, name)
	return nil
}

// MustChannel is DeclareChannel that panics on duplicates; intended for
// static model construction. The panic value is a *BuildError, so
// builder functions can recover it into a returned error with
// RecoverBuild.
func (c *Context) MustChannel(name string, fields ...Type) {
	if err := c.DeclareChannel(name, fields...); err != nil {
		panic(&BuildError{Op: "channel", Name: name, Err: err})
	}
}

// Channel looks up a declared channel.
func (c *Context) Channel(name string) (*Channel, bool) {
	ch, ok := c.channels[name]
	return ch, ok
}

// ChannelNames returns declared channel names in declaration order.
func (c *Context) ChannelNames() []string {
	out := make([]string, len(c.order))
	copy(out, c.order)
	return out
}

// DeclareType registers a named type (datatype or nametype).
func (c *Context) DeclareType(name string, t Type) error {
	if _, dup := c.types[name]; dup {
		return fmt.Errorf("type %q already declared", name)
	}
	c.types[name] = t
	return nil
}

// Type looks up a declared type by name.
func (c *Context) Type(name string) (Type, bool) {
	t, ok := c.types[name]
	return t, ok
}

// EventsOf enumerates every event of the named channel (the CSPm
// production set {| name |}).
func (c *Context) EventsOf(name string) ([]Event, error) {
	ch, ok := c.channels[name]
	if !ok {
		return nil, fmt.Errorf("channel %q not declared", name)
	}
	if len(ch.Fields) == 0 {
		return []Event{{Chan: name}}, nil
	}
	combos := cartesian(ch.Fields)
	out := make([]Event, 0, len(combos))
	for _, combo := range combos {
		out = append(out, Event{Chan: name, Args: combo})
	}
	return out, nil
}

// AllEvents enumerates the full alphabet Sigma: every event of every
// declared channel, in declaration order.
func (c *Context) AllEvents() []Event {
	var out []Event
	for _, name := range c.order {
		evs, _ := c.EventsOf(name)
		out = append(out, evs...)
	}
	return out
}

// cartesian enumerates the cartesian product of the value domains of the
// given types, in lexicographic order of the component enumerations.
func cartesian(fields []Type) [][]Value {
	if len(fields) == 0 {
		return nil
	}
	domains := make([][]Value, len(fields))
	total := 1
	for i, f := range fields {
		domains[i] = f.Values()
		total *= len(domains[i])
		if total == 0 {
			return nil
		}
	}
	out := make([][]Value, 0, total)
	combo := make([]Value, len(fields))
	var rec func(i int)
	rec = func(i int) {
		if i == len(fields) {
			cp := make([]Value, len(combo))
			copy(cp, combo)
			out = append(out, cp)
			return
		}
		for _, v := range domains[i] {
			combo[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}

// TypeUnionName builds a stable display name for anonymous unions.
func TypeUnionName(members []Type) string {
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name()
	}
	return "union(" + strings.Join(names, ",") + ")"
}
