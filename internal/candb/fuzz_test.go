package candb

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse asserts the DBC frontend is total and that everything
// downstream of a successful parse — CSPm generation, signal decoding
// and the frame ↔ event table — is panic-free too, since those run on
// whatever a parse accepts. With every sender mapped, building the
// table either fails with a named error or round-trips every
// identifier through its event.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.dbc"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no seed files in testdata")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("")
	f.Add("BO_ 1 M: 8\n SG_ S : 0|64@1+ (1,0) [0|0] \"\" X")
	f.Add("BO_ 99999999999999999999 M: 8 N")
	// Short-payload frames: the declared layout reaches past the DLC, so
	// decoding from a DLC-sized buffer exercises the truncation guards in
	// both byte orders.
	f.Add("BO_ 1 M: 1 N\n SG_ S : 0|16@1+ (1,0) [0|0] \"\" X")
	f.Add("BO_ 1 M: 1 N\n SG_ S : 7|16@0- (1,0) [0|0] \"\" X")
	f.Add("BO_ 1 M: 8 N\n SG_ S : -9|8@1+ (1,0) [0|0] \"\" X")
	f.Fuzz(func(t *testing.T, src string) {
		db, err := Parse(src)
		if err != nil {
			return
		}
		if db == nil {
			t.Fatal("Parse returned nil database without error")
		}
		_ = GenerateCSPm(db, CSPmOptions{})
		var zero [8]byte
		for _, m := range db.Messages {
			short := make([]byte, m.DLC)
			for i := range m.Signals {
				_ = m.Signals[i].Decode(zero[:])
				// A payload truncated to the declared DLC must decode
				// without panicking even when the signal layout overruns it.
				_ = m.Signals[i].Decode(short)
			}
		}
		senders := map[string]string{}
		for _, m := range db.Messages {
			senders[m.Sender] = m.Sender
		}
		table, err := NewTable(db, nil, senders)
		if err != nil {
			if !errors.Is(err, ErrDuplicateEvent) && !errors.Is(err, ErrDuplicateID) &&
				!errors.Is(err, ErrBadDLC) && !errors.Is(err, ErrUnmappedSender) {
				t.Fatalf("NewTable: unnamed error %v", err)
			}
			return
		}
		for _, m := range db.Messages {
			ev, ok := table.Event(m.ID)
			if !ok {
				t.Fatalf("identifier %d missing from the table", m.ID)
			}
			back, ok := table.Message(ev)
			if !ok || back.ID != m.ID {
				t.Fatalf("Message(Event(%d)) = %v, %v", m.ID, back, ok)
			}
		}
	})
}
