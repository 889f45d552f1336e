package candb

import (
	"errors"
	"testing"

	"repro/internal/canbus"
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

// TestProjectUnknownFrame checks that a projection keeps the event of
// every frame the table knows and names the first frame it does not
// know by index, time and identifier.
func TestProjectUnknownFrame(t *testing.T) {
	db, err := Parse(`BU_: VMG ECU
BO_ 257 SwInventoryReq: 4 VMG
BO_ 258 SwInventoryRpt: 8 ECU
`)
	if err != nil {
		t.Fatal(err)
	}
	table, err := NewTable(db, nil, map[string]string{"VMG": "send", "ECU": "rec"})
	if err != nil {
		t.Fatal(err)
	}
	req, rpt := csp.Ev("send", csp.Sym("swInventoryReq")), csp.Ev("rec", csp.Sym("swInventoryRpt"))
	frame := func(at canbus.Time, id uint32) canbus.TimedFrame {
		return canbus.TimedFrame{At: at, Frame: canbus.Frame{ID: id}}
	}

	trace, err := table.Project([]canbus.TimedFrame{frame(10, 257), frame(20, 258)})
	if err != nil || !trace.Equal(csp.Trace{req, rpt}) {
		t.Errorf("known frames: Project = %s, %v, want %s", trace, err, csp.Trace{req, rpt})
	}

	trace, err = table.Project([]canbus.TimedFrame{
		frame(10, 257), frame(20, 0x7FF), frame(30, 258), frame(40, 0x103),
	})
	var unknown *UnknownFrameError
	if !errors.As(err, &unknown) {
		t.Fatalf("err = %v, want *UnknownFrameError", err)
	}
	if *unknown != (UnknownFrameError{Index: 1, At: 20, ID: 0x7FF}) {
		t.Errorf("unknown frame = %+v, want index 1 at t=20us, ID 0x7FF", *unknown)
	}
	if !trace.Equal(csp.Trace{req, rpt}) {
		t.Errorf("trace alongside the error = %s, want every known frame's event %s", trace, csp.Trace{req, rpt})
	}
}
