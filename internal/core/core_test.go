package core_test

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/canbus"
	"repro/internal/candb"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/ota"
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
	if err == nil || !strings.Contains(err.Error(), "no event mapping") {
		t.Errorf("err = %v, want unmapped frame error", err)
	}
}
