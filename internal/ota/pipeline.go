package ota

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cspm"
)

// System is the fully assembled case-study model: the extracted ECU and
// VMG implementation models, the specification processes, the composed
// SYSTEM, and the Table III assertions — evaluated and ready to check.
type System struct {
	// Model is the evaluated combined script.
	Model *cspm.Model
	// Source is the complete combined CSPm source.
	Source string
	// ECUText and VMGText are the per-node extracted models (ECUText is
	// the Figure 3 artefact).
	ECUText string
	VMGText string
	// Warnings aggregates translator abstraction warnings.
	Warnings []string
}

// specSection holds the specification models and assertions appended to
// the extracted implementation models. Assertion order is significant:
// requirements.go indexes into it.
const specSection = `
-- Specification models (security properties for Table III).
RUNALL = send?x1 -> RUNALL [] rec?x2 -> RUNALL
SP01 = send.reqSw -> RUNALL
SP02 = send.reqSw -> rec.rptSw -> SP02
SP034 = send.reqApp -> rec.rptUpd -> SP034

-- Composed system model (Figure 2 scope).
SYSTEM = VMG [| {| send, rec |} |] ECU
DIAG = SYSTEM \ {send.reqApp, rec.rptUpd}
UPDATE = SYSTEM \ {send.reqSw, rec.rptSw}

assert SP01 [T= SYSTEM
assert SP02 [T= DIAG
assert SP034 [T= UPDATE
assert SYSTEM :[deadlock free]
assert SYSTEM :[divergence free]
`

// Assertion indices within the combined script.
const (
	AssertR01 = iota
	AssertR02
	AssertR034
	AssertDeadlock
	AssertDivergence
	numAsserts
)

// Build assembles the correct case-study system from the canonical CAPL
// sources.
func Build() (*System, error) {
	return BuildFromCAPL(ECUSource, VMGSource)
}

// BuildFlawed assembles the system with the flawed ECU that answers
// inventory requests with the wrong message type.
func BuildFlawed() (*System, error) {
	return BuildFromCAPL(FlawedECUSource, VMGSource)
}

// BuildDeadlocked assembles the system with the ECU that swallows
// inventory requests.
func BuildDeadlocked() (*System, error) {
	return BuildFromCAPL(DeadlockECUSource, VMGSource)
}

// BuildFromCAPL runs the full Figure 1 pipeline: parse both CAPL node
// programs, extract their CSPm implementation models, compose them with
// the specification models, and evaluate the result.
func BuildFromCAPL(ecuSrc, vmgSrc string) (*System, error) {
	return assemble(specSection, numAsserts, ecuNode(ecuSrc), vmgNode(vmgSrc))
}

// ecuNode and vmgNode place a CAPL program on the case study's ECU or
// VMG side of the send/rec exchange.
func ecuNode(src string) core.NodeSpec {
	return core.NodeSpec{Name: "ECU", Source: src, In: "send", Out: "rec", Rename: MessageRename}
}

func vmgNode(src string) core.NodeSpec {
	return core.NodeSpec{Name: "VMG", Source: src, In: "rec", Out: "send", Rename: MessageRename}
}

// assemble is every builder's Figure 1 path: core.Pipeline extracts
// the nodes and composes them with the spec section, whose leading
// newline core's part separator already supplies. The evaluated script
// must carry exactly asserts assertions.
func assemble(spec string, asserts int, nodes ...core.NodeSpec) (*System, error) {
	p := core.Pipeline{Nodes: nodes, Spec: strings.TrimPrefix(spec, "\n")}
	report, err := p.Build()
	if err != nil {
		return nil, err
	}
	if n := len(report.Model.Asserts); n != asserts {
		return nil, fmt.Errorf("ota: combined model has %d assertions, want %d", n, asserts)
	}
	return &System{
		Model:    report.Model,
		Source:   report.CombinedSource,
		ECUText:  report.NodeModels["ECU"],
		VMGText:  report.NodeModels["VMG"],
		Warnings: report.Warnings,
	}, nil
}
