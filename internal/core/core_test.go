package core_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/canbus"
	"repro/internal/candb"
	"repro/internal/canoe"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/ota"
	"repro/internal/translate"
)

func caseStudyPipeline() *core.Pipeline {
	return &core.Pipeline{
		Nodes: []core.NodeSpec{
			{Name: "ECU", Source: ota.ECUSource, In: "send", Out: "rec", Rename: ota.MessageRename},
			{Name: "VMG", Source: ota.VMGSource, In: "rec", Out: "send", Rename: ota.MessageRename},
		},
		Spec: `
SP02 = send.reqSw -> rec.rptSw -> SP02
SYSTEM = VMG [| {| send, rec |} |] ECU
DIAG = SYSTEM \ {send.reqApp, rec.rptUpd}
assert SP02 [T= DIAG
assert SYSTEM :[deadlock free]
`,
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	report, err := caseStudyPipeline().Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllHold() {
		for _, f := range report.Failed() {
			t.Errorf("failed: %s", f)
		}
	}
	if len(report.Results) != 2 {
		t.Errorf("results = %d, want 2", len(report.Results))
	}
	if !strings.Contains(report.NodeModels["ECU"], "send.reqSw -> rec!rptSw -> ECU") {
		t.Errorf("ECU model unexpected:\n%s", report.NodeModels["ECU"])
	}
	if strings.Contains(report.NodeModels["VMG"], "datatype") {
		t.Error("second node's model should omit declarations")
	}
}

func TestPipelineDetectsFlaw(t *testing.T) {
	p := caseStudyPipeline()
	p.Nodes[0].Source = ota.FlawedECUSource
	report, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.AllHold() {
		t.Fatal("flawed ECU passed all assertions")
	}
	failed := report.Failed()
	if len(failed) == 0 || !strings.Contains(failed[0].Assert.Text, "SP02") {
		t.Errorf("failed asserts = %v", failed)
	}
}

func TestPipelineValidation(t *testing.T) {
	p := &core.Pipeline{}
	if _, err := p.Run(); err == nil {
		t.Error("empty pipeline accepted")
	}
	p = caseStudyPipeline()
	p.Nodes[0].Source = "not capl at all {"
	if _, err := p.Run(); err == nil {
		t.Error("unparsable CAPL accepted")
	}
}

// otaDatabase parses the case study's CAN database (Table II).
func otaDatabase(t *testing.T) *candb.Database {
	t.Helper()
	db, err := ota.Database()
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCrossValidationSimulationMatchesModel(t *testing.T) {
	p := caseStudyPipeline()
	report, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	system := csp.Call("SYSTEM")
	observed, err := p.CrossValidate(report.Model, system, otaDatabase(t), 5*canbus.Millisecond)
	if err != nil {
		t.Fatalf("cross-validation failed: %v", err)
	}
	if len(observed) < 4 {
		t.Errorf("simulation produced only %d events: %s", len(observed), observed)
	}
	// The observed exchange must start with the inventory request.
	if !observed[0].Equal(csp.Ev("send", csp.Sym("reqSw"))) {
		t.Errorf("first observed event = %s, want send.reqSw", observed[0])
	}
}

func TestCrossValidationUnknownFrame(t *testing.T) {
	p := caseStudyPipeline()
	report, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	db := otaDatabase(t)
	db.Messages = slices.DeleteFunc(db.Messages, func(m *candb.Message) bool { return m.ID == 0x102 })
	_, err = p.CrossValidate(report.Model, csp.Call("SYSTEM"), db, 5*canbus.Millisecond)
	var unknown *candb.UnknownFrameError
	if !errors.As(err, &unknown) || unknown.ID != 0x102 {
		t.Errorf("err = %v, want UnknownFrameError for 0x102", err)
	}
}

// TestCrossValidationRunawayTimer checks that a node whose zero-period
// timer rearms itself at a fixed timestamp ends the cross-validation
// with canoe.ErrEventBudget instead of hanging it.
func TestCrossValidationRunawayTimer(t *testing.T) {
	p := caseStudyPipeline()
	report, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	p.Nodes[1].Source = "variables { msTimer spin; }\non start { setTimer(spin, 0); }\non timer spin { setTimer(spin, 0); }\n"
	db := otaDatabase(t)
	done := make(chan error, 1)
	go func() {
		_, err := p.CrossValidate(report.Model, csp.Call("SYSTEM"), db, 5*canbus.Millisecond)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, canoe.ErrEventBudget) {
			t.Errorf("err = %v, want canoe.ErrEventBudget", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("CrossValidate still running after a minute")
	}
}

// TestSpecErrorPointsIntoSpec checks that a syntax error in Spec is
// reported at its line in Spec, not in the combined source.
func TestSpecErrorPointsIntoSpec(t *testing.T) {
	p := caseStudyPipeline()
	p.Spec = "SP02 = send.reqSw -> rec.rptSw -> SP02\nSYSTEM = VMG [| {| send, rec |} |] ECU\n= SYSTEM\n"
	_, err := p.Build()
	if err == nil || !strings.HasPrefix(err.Error(), "core: parse spec: cspm:3:1:") {
		t.Errorf("err = %v, want a core: parse spec error at cspm:3:1", err)
	}
}

// pingSrc sends ping on start and again on every pong; pongSrc answers
// every ping with pong.
const (
	pingSrc = "variables { message 0x1 ping; message 0x2 pong; }\non start { output(ping); }\non message pong { output(ping); }\n"
	pongSrc = "variables { message 0x1 ping; message 0x2 pong; }\non message ping { output(pong); }\n"
)

// TestNetworkTwoTimerProcesses checks that two nodes asking for the
// TIMER(t) process share one definition of it.
func TestNetworkTwoTimerProcesses(t *testing.T) {
	p := &core.Pipeline{
		Nodes: []core.NodeSpec{
			{Name: "A", In: "ba", Out: "ab", TimerProcess: true, Source: "variables { message 0x1 ping; message 0x2 pong; msTimer tick; }\n" +
				"on start { setTimer(tick, 10); }\non timer tick { output(ping); }\non message pong { setTimer(tick, 10); }\n"},
			{Name: "B", In: "ab", Out: "ba", TimerProcess: true, Source: "variables { message 0x1 ping; message 0x2 pong; msTimer guard; }\n" +
				"on message ping { cancelTimer(guard); output(pong); }\non timer guard { }\n"},
		},
		Spec: "NET = A [| {| ab, ba |} |] B\n" +
			"SYSTEM = NET [| {| setTimer, cancelTimer, timeout |} |] (TIMER(tick) ||| TIMER(guard))\n" +
			"assert SYSTEM :[divergence free]\n",
	}
	report, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllHold() {
		t.Errorf("failed: %v", report.Failed())
	}
	if n := strings.Count(report.CombinedSource, "TIMER(t) ="); n != 1 {
		t.Errorf("TIMER(t) defined %d times, want once:\n%s", n, report.CombinedSource)
	}
}

// TestNetworkThirdChannel checks that a channel only a later node
// uses is declared with the rest of the network's alphabet.
func TestNetworkThirdChannel(t *testing.T) {
	p := &core.Pipeline{
		Nodes: []core.NodeSpec{
			{Name: "A", Source: pingSrc, In: "ba", Out: "ab"},
			{Name: "B", Source: pongSrc, In: "ab", Out: "ba"},
			{Name: "C", Source: "variables { message 0x2 pong; message 0x3 log; }\non message pong { output(log); }\n", In: "ba", Out: "cx"},
		},
		Spec: "SYSTEM = (A [| {| ab, ba |} |] B) [| {| ba |} |] C\nassert SYSTEM :[deadlock free]\n",
	}
	report, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !report.AllHold() {
		t.Errorf("failed: %v", report.Failed())
	}
	if !strings.Contains(report.NodeModels["A"], "channel ba, ab, cx : Msgs") {
		t.Errorf("network channels not declared together:\n%s", report.NodeModels["A"])
	}
}

// TestNetworkBadRenameNamesNode checks that a bad rename is refused as
// ErrBadName naming the node and the rename that carries it.
func TestNetworkBadRenameNamesNode(t *testing.T) {
	p := &core.Pipeline{
		Nodes: []core.NodeSpec{
			{Name: "A", Source: pingSrc, In: "ba", Out: "ab"},
			{Name: "B", Source: pongSrc, In: "ab", Out: "ba", Rename: map[string]string{"pong": "if"}},
		},
		Spec: "SYSTEM = A [| {| ab, ba |} |] B\n",
	}
	_, err := p.Build()
	if !errors.Is(err, translate.ErrBadName) {
		t.Fatalf("err = %v, want ErrBadName", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "node B") || !strings.Contains(msg, "rename of message pong") {
		t.Errorf("err = %v, want it to name node B and the rename of message pong", err)
	}
}

// TestNetworkDuplicateNodeRefused checks that two nodes with one name
// are refused up front as ErrDuplicateNode naming the node, not when
// the combined model defines the process twice.
func TestNetworkDuplicateNodeRefused(t *testing.T) {
	p := &core.Pipeline{
		Nodes: []core.NodeSpec{
			{Name: "A", Source: pingSrc, In: "ba", Out: "ab"},
			{Name: "A", Source: pongSrc, In: "ab", Out: "ba"},
		},
		Spec: "SYSTEM = A\n",
	}
	_, err := p.Build()
	if !errors.Is(err, translate.ErrDuplicateNode) {
		t.Fatalf("err = %v, want ErrDuplicateNode", err)
	}
	if !strings.Contains(err.Error(), `"A"`) {
		t.Errorf("err = %v, want it to name node A", err)
	}
}

// TestNetworkConstructorNamedLikeChannelRefused checks that a message
// constructor with a channel's name — node B's message ab on the
// network's channel ab — is refused, naming both, as FDR refuses it.
func TestNetworkConstructorNamedLikeChannelRefused(t *testing.T) {
	p := &core.Pipeline{
		Nodes: []core.NodeSpec{
			{Name: "A", Source: pingSrc, In: "ba", Out: "ab"},
			{Name: "B", Source: "variables { message 0x1 ping; message 0x3 ab; }\non message ping { output(ab); }\n", In: "ab", Out: "ba"},
		},
		Spec: "SYSTEM = A [| {| ab, ba |} |] B\n",
	}
	_, err := p.Build()
	if err == nil || !strings.Contains(err.Error(), `constructor "ab"`) || !strings.Contains(err.Error(), `channel "ab"`) {
		t.Fatalf("err = %v, want the constructor ab refused as channel ab's name", err)
	}
}
