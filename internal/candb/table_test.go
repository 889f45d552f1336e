package candb

import (
	"errors"
	"testing"

	"repro/internal/csp"
)

// TestNewTableRejects builds databases by hand, since Parse already
// refuses duplicate identifiers and bad DLCs, and checks that each
// defect is named.
func TestNewTableRejects(t *testing.T) {
	senders := map[string]string{"VMG": "send", "ECU": "rec"}
	msg := func(id uint32, name string, dlc int, sender string) *Message {
		return &Message{ID: id, Name: name, DLC: dlc, Sender: sender}
	}
	for _, c := range []struct {
		name   string
		msgs   []*Message
		rename map[string]string
		want   error
	}{
		{"duplicate identifier", []*Message{msg(0x101, "SwInventoryReq", 8, "VMG"), msg(0x101, "ApplyUpdateReq", 8, "VMG")}, nil, ErrDuplicateID},
		{"unmapped sender", []*Message{msg(0x101, "SwInventoryReq", 8, "GW")}, nil, ErrUnmappedSender},
		{"DLC 9", []*Message{msg(0x101, "SwInventoryReq", 9, "VMG")}, nil, ErrBadDLC},
		{"negative DLC", []*Message{msg(0x101, "SwInventoryReq", -1, "VMG")}, nil, ErrBadDLC},
		{"two messages renamed onto one constructor",
			[]*Message{msg(0x101, "SwInventoryReq", 8, "VMG"), msg(0x103, "ApplyUpdateReq", 8, "VMG")},
			map[string]string{"swInventoryReq": "req", "applyUpdateReq": "req"}, ErrDuplicateEvent},
	} {
		_, err := NewTable(&Database{Messages: c.msgs}, c.rename, senders)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// One constructor on two channels is two events, not a collision.
	if _, err := NewTable(&Database{Messages: []*Message{
		msg(0x101, "Ping", 8, "VMG"), msg(0x102, "Ping2", 8, "ECU"),
	}}, map[string]string{"ping2": "ping"}, senders); err != nil {
		t.Errorf("same constructor on two channels: %v", err)
	}
}

// TestTableBothDirections checks the identifier -> event and event ->
// message directions and the alphabet order.
func TestTableBothDirections(t *testing.T) {
	db, err := Parse(`BU_: VMG ECU
BO_ 258 SwInventoryRpt: 8 ECU
BO_ 257 SwInventoryReq: 4 VMG
`)
	if err != nil {
		t.Fatal(err)
	}
	table, err := NewTable(db, map[string]string{"swInventoryReq": "reqSw"}, map[string]string{"VMG": "send", "ECU": "rec"})
	if err != nil {
		t.Fatal(err)
	}
	req := csp.Ev("send", csp.Sym("reqSw"))
	if ev, ok := table.Event(257); !ok || !ev.Equal(req) {
		t.Errorf("Event(257) = %s, %v; want send.reqSw", ev, ok)
	}
	if _, ok := table.Event(0x7FF); ok {
		t.Error("Event(0x7FF) found in a database without it")
	}
	if m, ok := table.Message(req); !ok || m.ID != 257 || m.DLC != 4 {
		t.Errorf("Message(send.reqSw) = %+v, %v; want id 257, DLC 4", m, ok)
	}
	// The rendering alone does not match: events compare by Equal.
	if _, ok := table.Message(csp.Ev("send", csp.NewDotted(csp.Sym("reqSw")))); ok {
		t.Error("a dotted value that renders as reqSw matched the symbol constructor")
	}
	got := csp.Trace(table.Events()).String()
	if want := "<rec.swInventoryRpt, send.reqSw>"; got != want {
		t.Errorf("Events() = %s, want %s", got, want)
	}
}
