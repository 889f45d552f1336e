package csp

import (
	"sort"
	"strings"
)

// Reserved channel names for the two special events of the operational
// semantics: the silent event tau and successful termination tick.
const (
	tauChan  = "τ" // τ
	tickChan = "✓" // ✓
)

// Event is a visible communication (channel name dotted with argument
// values), or one of the two special events Tau and Tick.
type Event struct {
	Chan string
	Args []Value
}

// Tau is the silent internal event.
func Tau() Event { return Event{Chan: tauChan} }

// Tick is the successful-termination event.
func Tick() Event { return Event{Chan: tickChan} }

// IsTau reports whether the event is the silent event.
func (e Event) IsTau() bool { return e.Chan == tauChan }

// IsTick reports whether the event is successful termination.
func (e Event) IsTick() bool { return e.Chan == tickChan }

// IsVisible reports whether the event is an ordinary communication
// (neither tau nor tick).
func (e Event) IsVisible() bool { return !e.IsTau() && !e.IsTick() }

// String renders the event in CSPm dotted notation, e.g. send.reqSw.
func (e Event) String() string {
	if len(e.Args) == 0 {
		return e.Chan
	}
	var sb strings.Builder
	sb.WriteString(e.Chan)
	for _, a := range e.Args {
		sb.WriteByte('.')
		sb.WriteString(a.String())
	}
	return sb.String()
}

// Equal reports structural equality of two events.
func (e Event) Equal(o Event) bool {
	if e.Chan != o.Chan || len(e.Args) != len(o.Args) {
		return false
	}
	for i, a := range e.Args {
		if !a.Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// Ev builds a concrete event from a channel name and values.
func Ev(ch string, args ...Value) Event {
	return Event{Chan: ch, Args: args}
}

// Trace is a finite sequence of visible events, possibly ending in Tick.
type Trace []Event

// String renders the trace in CSP angle-bracket notation.
func (t Trace) String() string {
	parts := make([]string, len(t))
	for i, e := range t {
		parts[i] = e.String()
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// Equal reports element-wise equality of two traces.
func (t Trace) Equal(o Trace) bool {
	if len(t) != len(o) {
		return false
	}
	for i, e := range t {
		if !e.Equal(o[i]) {
			return false
		}
	}
	return true
}

// HasPrefix reports whether p is a prefix of t (tr1 <= tr2 in the paper's
// notation).
func (t Trace) HasPrefix(p Trace) bool {
	if len(p) > len(t) {
		return false
	}
	for i, e := range p {
		if !t[i].Equal(e) {
			return false
		}
	}
	return true
}

// Hide returns the trace with every event in set removed (tr \ A).
func (t Trace) Hide(set *EventSet) Trace {
	out := make(Trace, 0, len(t))
	for _, e := range t {
		if !set.Contains(e) {
			out = append(out, e)
		}
	}
	return out
}

// EventSet is a finite set of visible events, described as a union of
// whole channels (the CSPm production set {| c |}) and individual events.
// Membership is decided without enumerating the channel's domain.
// Individual events are stored and tested by IdentityKey, so two events
// that merely render alike (pun.5 with an Int or a Sym) are different
// members.
type EventSet struct {
	chans  map[string]bool
	events map[string]Event
}

// NewEventSet returns an empty event set.
func NewEventSet() *EventSet {
	return &EventSet{chans: map[string]bool{}, events: map[string]Event{}}
}

// EventsOf builds an event set covering every event of the named
// channels, as in the CSPm production set {| c1, c2 |}.
func EventsOf(channels ...string) *EventSet {
	s := NewEventSet()
	for _, c := range channels {
		s.chans[c] = true
	}
	return s
}

// Events builds an event set from individual events.
func Events(evs ...Event) *EventSet {
	s := NewEventSet()
	for _, e := range evs {
		s.AddEvent(e)
	}
	return s
}

// AddChannel includes every event of the named channel.
func (s *EventSet) AddChannel(name string) *EventSet {
	s.chans[name] = true
	return s
}

// AddEvent includes a single event.
func (s *EventSet) AddEvent(e Event) *EventSet {
	s.events[IdentityKey(e)] = e
	return s
}

// Contains reports whether the event is in the set. Tau and tick are
// never members.
func (s *EventSet) Contains(e Event) bool {
	if s == nil || !e.IsVisible() {
		return false
	}
	if s.chans[e.Chan] {
		return true
	}
	if len(s.events) == 0 {
		return false
	}
	_, ok := s.events[IdentityKey(e)]
	return ok
}

// Union returns a new set containing the members of both sets.
func (s *EventSet) Union(o *EventSet) *EventSet {
	out := NewEventSet()
	for _, src := range []*EventSet{s, o} {
		if src == nil {
			continue
		}
		for c := range src.chans {
			out.chans[c] = true
		}
		for k, e := range src.events {
			out.events[k] = e
		}
	}
	return out
}

// Key renders the set canonically, for Process.Key.
func (s *EventSet) Key() string {
	if s == nil {
		return "{}"
	}
	parts := make([]string, 0, len(s.chans)+len(s.events))
	for c := range s.chans {
		parts = append(parts, "{|"+c+"|}")
	}
	for _, e := range s.events {
		parts = append(parts, e.String())
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}
