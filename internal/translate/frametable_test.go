package translate_test

import (
	"fmt"
	"testing"

	"repro/internal/candb"
	"repro/internal/capl"
	"repro/internal/caplgen"
	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/lts"
	"repro/internal/ota"
	"repro/internal/translate"
)

// TestFrameTableMatchesExtraction pins candb's frame ↔ event table to
// what the extractor emits, on the caplgen soak's 200 programs and the
// OTA ECU/VMG pair under the learner's and the bus monitor's mappings:
// the table's constructors are exactly the model's Msgs constructors,
// every visible label of the explored model (timers hidden) is a table
// event, and every `message <id> <var>` declaration maps <id> to the
// constructor translate emits for <var>.
func TestFrameTableMatchesExtraction(t *testing.T) {
	if testing.Short() {
		t.Skip("200-program extraction skipped in -short mode")
	}
	labels := 0
	for _, spec := range caplgen.Programs(caplgen.DefaultConfig()) {
		name := fmt.Sprintf("caplgen program %d", spec.Index)
		db, err := candb.Parse(spec.DBC())
		if err != nil {
			t.Fatal(err)
		}
		table, err := candb.NewTable(db, nil, map[string]string{"DRV": "stim", "NODE": "resp"})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prog, err := capl.Parse(spec.NodeSource())
		if err != nil {
			t.Fatal(err)
		}
		opts := translate.Options{NodeName: "NODE", InChannel: "stim", OutChannel: "resp", IncludeTimers: true}
		tr, err := translate.Translate(prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		model, err := cspm.Load(tr.Text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		labels += checkFrameTable(t, name, table, model, "NODE")
		checkDeclarations(t, name, table, prog, opts)
	}

	db, err := ota.Database()
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ota.Build()
	if err != nil {
		t.Fatal(err)
	}
	observed, err := ota.BuildObserved(ota.ObservedConfigFor(ota.NaiveGateway, ota.ChannelBudgets{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, proc string
		model      *cspm.Model
		senderChan map[string]string
	}{
		{"OTA learner mapping", "SYSTEM", sys.Model, map[string]string{"VMG": "send", "ECU": "rec"}},
		{"OTA observed mapping", ota.ObservedProcess, observed.Model, map[string]string{"VMG": ota.ObservedToECU, "ECU": ota.ObservedToVMG}},
	} {
		table, err := candb.NewTable(db, ota.MessageRename, c.senderChan)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		labels += checkFrameTable(t, c.name, table, c.model, c.proc)
		for _, node := range []struct{ name, src, in, out string }{
			{"ECU", ota.ECUSource, "send", "rec"},
			{"VMG", ota.VMGSource, "rec", "send"},
		} {
			prog, err := capl.Parse(node.src)
			if err != nil {
				t.Fatal(err)
			}
			checkDeclarations(t, c.name+" "+node.name, table, prog, translate.Options{
				NodeName: node.name, InChannel: node.in, OutChannel: node.out, MessageRename: ota.MessageRename,
			})
		}
	}
	t.Logf("%d model labels checked", labels)
	if labels == 0 {
		t.Fatal("no model label was checked")
	}
}

// checkFrameTable compares the table with the model's Msgs datatype and
// with the visible labels of proc explored with timers hidden, and
// returns how many labels it checked.
func checkFrameTable(t *testing.T, name string, table *candb.Table, model *cspm.Model, proc string) int {
	t.Helper()
	var ctors []csp.Value
	for _, d := range model.Script.Decls {
		if dt, ok := d.(cspm.DatatypeDecl); ok && dt.Name == "Msgs" {
			for _, c := range dt.Ctors {
				ctors = append(ctors, csp.Sym(c.Name))
			}
		}
	}
	var tableCtors []csp.Value
	for _, ev := range table.Events() {
		tableCtors = append(tableCtors, ev.Args[0])
	}
	for _, c := range tableCtors {
		if !containsValue(ctors, c) {
			t.Errorf("%s: table constructor %s is not a Msgs constructor", name, c)
		}
	}
	for _, c := range ctors {
		if !containsValue(tableCtors, c) {
			t.Errorf("%s: Msgs constructor %s has no table message", name, c)
		}
	}

	hidden := csp.Hide(csp.Call(proc), csp.EventsOf(translate.SetTimerChan, translate.CancelTimerChan, translate.TimeoutChan))
	l, err := lts.Explore(csp.NewSemantics(model.Env, model.Ctx), hidden, lts.Options{MaxStates: 50_000})
	if err != nil {
		t.Fatalf("%s: explore %s: %v", name, proc, err)
	}
	n := 0
	for _, ev := range l.Events {
		if !ev.IsVisible() {
			continue
		}
		n++
		if _, ok := table.Message(ev); !ok {
			t.Errorf("%s: model label %s is not a table event", name, ev)
		}
	}
	return n
}

// checkDeclarations checks that each identifier prog declares maps to
// the constructor translate emits for its variable, both through the
// variable and through `on message 0x…` resolution.
func checkDeclarations(t *testing.T, name string, table *candb.Table, prog *capl.Program, opts translate.Options) {
	t.Helper()
	byVar, byID, err := translate.MessageCtors(prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, d := range prog.MessageDecls() {
		if d.MsgID < 0 {
			continue
		}
		ev, ok := table.Event(uint32(d.MsgID))
		if !ok {
			t.Errorf("%s: message 0x%X %s: identifier not in the table", name, d.MsgID, d.Name)
			continue
		}
		if !ev.Args[0].Equal(csp.Sym(byVar[d.Name])) || !ev.Args[0].Equal(csp.Sym(byID[d.MsgID])) {
			t.Errorf("%s: message 0x%X %s: table gives %s, translate emits %s (by id %s)",
				name, d.MsgID, d.Name, ev, byVar[d.Name], byID[d.MsgID])
		}
	}
}

func containsValue(vs []csp.Value, v csp.Value) bool {
	for _, w := range vs {
		if w.Equal(v) {
			return true
		}
	}
	return false
}
