package experiments

import (
	"fmt"
	"strings"

	"repro/internal/canbus"
	"repro/internal/core"
	"repro/internal/csp"
	"repro/internal/fdr"
	"repro/internal/ota"
)

// Figure1Result traces the whole Figure 1 workflow (IDE -> model
// extractor -> CSP models -> FDR -> counterexamples) end-to-end on the
// case study, including the simulation cross-validation leg.
type Figure1Result struct {
	// Stage artefacts.
	ECUSourceLines int
	VMGSourceLines int
	ECUModel       string
	VMGModel       string
	CombinedLines  int
	// Assertion outcomes in script order.
	Asserts []fdr.AssertResult
	// CrossValidated reports that the simulated CANoe measurement trace
	// is a trace of the extracted model.
	CrossValidated bool
	SimulatedTrace csp.Trace
}

// Figure1 runs the workflow.
func Figure1() (*Figure1Result, error) {
	pipeline := &core.Pipeline{
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
assert SYSTEM :[divergence free]
`,
	}
	report, err := pipeline.Run()
	if err != nil {
		return nil, err
	}
	res := &Figure1Result{
		ECUSourceLines: strings.Count(ota.ECUSource, "\n"),
		VMGSourceLines: strings.Count(ota.VMGSource, "\n"),
		ECUModel:       report.NodeModels["ECU"],
		VMGModel:       report.NodeModels["VMG"],
		CombinedLines:  strings.Count(report.CombinedSource, "\n"),
		Asserts:        report.Results,
	}
	db, err := ota.Database()
	if err != nil {
		return res, err
	}
	observed, err := pipeline.CrossValidate(report.Model, csp.Call("SYSTEM"), db, 5*canbus.Millisecond)
	if err != nil {
		return res, err
	}
	res.CrossValidated = true
	res.SimulatedTrace = observed
	return res, nil
}

// Render summarises the workflow run.
func (r *Figure1Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 1 — workflow and toolchain (end-to-end)\n")
	fmt.Fprintf(&sb, "  CAPL sources: ECU %d lines, VMG %d lines\n", r.ECUSourceLines, r.VMGSourceLines)
	fmt.Fprintf(&sb, "  extracted models + specs: %d lines of CSPm\n", r.CombinedLines)
	for _, a := range r.Asserts {
		fmt.Fprintf(&sb, "  %s\n", a)
	}
	fmt.Fprintf(&sb, "  simulation cross-validation: %s (%d bus events)\n",
		check(r.CrossValidated), len(r.SimulatedTrace))
	return sb.String()
}

// Figure2Result captures the case-study scope check (VMG + ECU
// composition) across the three implementation variants.
type Figure2Result struct {
	Rows []Figure2Row
}

// Figure2Row is one variant's outcome.
type Figure2Row struct {
	Variant        string
	SP02Holds      bool
	Counterexample csp.Trace
	DeadlockFree   bool
	ImplStates     int
	ProductStates  int
}

// Figure2 exercises the Figure 2 system scope: the composed VMG/ECU
// model checked against SP02 and deadlock freedom, for the correct,
// flawed and request-swallowing ECUs.
func Figure2() (*Figure2Result, error) {
	out := &Figure2Result{}
	variants := []struct {
		name  string
		build func() (*ota.System, error)
	}{
		{"correct ECU", ota.Build},
		{"flawed ECU (wrong response)", ota.BuildFlawed},
		{"silent ECU (drops requests)", ota.BuildDeadlocked},
	}
	for _, v := range variants {
		sys, err := v.build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		sp02, err := ota.CheckAssertion(sys, ota.AssertR02, 0)
		if err != nil {
			return nil, err
		}
		dl, err := ota.CheckAssertion(sys, ota.AssertDeadlock, 0)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Figure2Row{
			Variant:        v.name,
			SP02Holds:      sp02.Holds,
			Counterexample: sp02.Counterexample,
			DeadlockFree:   dl.Holds,
			ImplStates:     sp02.ImplStates,
			ProductStates:  sp02.ProductStates,
		})
	}
	return out, nil
}

// Table renders the figure's outcomes as a table.
func (r *Figure2Result) Table() *Table {
	t := &Table{
		Title:  "Figure 2 — case-study system (SYSTEM = VMG [|{|send,rec|}|] ECU)",
		Header: []string{"Implementation", "SP02 [T= DIAG", "deadlock free", "impl states", "product states"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Variant,
			holdsOrTrace(row.SP02Holds, row.Counterexample),
			check(row.DeadlockFree),
			fmt.Sprintf("%d", row.ImplStates),
			fmt.Sprintf("%d", row.ProductStates),
		})
	}
	return t
}

// Figure3 regenerates the Figure 3 artefact: the ECU implementation
// model (CSPm script) automatically extracted from the CAPL application
// code of the simulated CAN network node.
func Figure3() (string, error) {
	sys, err := ota.Build()
	if err != nil {
		return "", err
	}
	return sys.ECUText, nil
}
