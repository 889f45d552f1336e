package candb

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/csp"
)

// Table is the frame ↔ event dictionary of the paper's Figure 1 loop,
// where the CAN database joins the simulated bus to the model: a
// frame's identifier names its message, the message's constructor name
// (CtorName, then the rename map) gives the CSP datatype constructor,
// and its sender gives the channel. It maps both ways — identifier to
// event, and event (by csp.Event.Equal) back to message — so it is
// validated once, when built, and is read-only after.
type Table struct {
	entries []entry // sorted by event, csp.Compare
	byID    map[uint32]int
}

type entry struct {
	ev  csp.Event
	msg *Message
}

// The inputs NewTable rejects. Its errors wrap one of these with the
// offending message.
var (
	ErrDuplicateID    = errors.New("duplicate identifier")
	ErrUnmappedSender = errors.New("sender has no channel")
	ErrDuplicateEvent = errors.New("two messages map onto one event")
	ErrBadDLC         = errors.New("DLC outside 0..8")
)

// NewTable builds the table of db. rename maps CtorName(message name)
// to the model constructor (nil keeps the CtorName); senderChan maps
// each sending node to the channel its frames appear on.
func NewTable(db *Database, rename, senderChan map[string]string) (*Table, error) {
	t := &Table{byID: make(map[uint32]int, len(db.Messages))}
	for _, m := range db.Messages {
		if m.DLC < 0 || m.DLC > 8 {
			return nil, fmt.Errorf("candb: message %s: %w (DLC %d)", m.Name, ErrBadDLC, m.DLC)
		}
		ch, ok := senderChan[m.Sender]
		if !ok {
			return nil, fmt.Errorf("candb: message %s: %w (sender %q)", m.Name, ErrUnmappedSender, m.Sender)
		}
		if _, dup := t.byID[m.ID]; dup {
			return nil, fmt.Errorf("candb: message %s: %w 0x%03X", m.Name, ErrDuplicateID, m.ID)
		}
		ctor := CtorName(m.Name)
		if renamed, ok := rename[ctor]; ok {
			ctor = renamed
		}
		ev := csp.Event{Chan: ch, Args: []csp.Value{csp.Sym(ctor)}}
		if other, dup := t.Message(ev); dup {
			return nil, fmt.Errorf("candb: messages %s and %s: %w %s", other.Name, m.Name, ErrDuplicateEvent, ev)
		}
		t.byID[m.ID] = -1
		t.entries = append(t.entries, entry{ev: ev, msg: m})
	}
	slices.SortFunc(t.entries, func(a, b entry) int { return csp.Compare(a.ev, b.ev) })
	for i, e := range t.entries {
		t.byID[e.msg.ID] = i
	}
	return t, nil
}

// Event returns the event a frame with identifier id projects onto.
func (t *Table) Event(id uint32) (csp.Event, bool) {
	i, ok := t.byID[id]
	if !ok {
		return csp.Event{}, false
	}
	return t.entries[i].ev, true
}

// Message returns the message whose frames project onto ev.
func (t *Table) Message(ev csp.Event) (*Message, bool) {
	for _, e := range t.entries {
		if e.ev.Equal(ev) {
			return e.msg, true
		}
	}
	return nil, false
}

// Events returns every event of the table, sorted by csp.Compare.
func (t *Table) Events() []csp.Event {
	out := make([]csp.Event, len(t.entries))
	for i, e := range t.entries {
		out[i] = e.ev
	}
	return out
}
