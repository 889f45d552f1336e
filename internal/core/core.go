// Package core is the library's top-level façade: the paper's concept
// of operations (Figure 1) as a reusable pipeline. A Pipeline takes the
// CAPL sources of one or more ECU network nodes plus a CSPm
// specification section (security-property processes, system
// composition and assertions), extracts an implementation model from
// each node, composes everything into one CSPm script, evaluates it and
// runs the assertions through the FDR-style checker.
//
// It also cross-validates: the same CAPL sources can be executed on the
// simulated CAN bus (the CANoe stand-in) and the observed frame trace
// checked for membership in the extracted CSP model's trace set.
package core

import (
	"fmt"
	"maps"
	"strings"

	"repro/internal/canbus"
	"repro/internal/candb"
	"repro/internal/canoe"
	"repro/internal/capl"
	"repro/internal/csp"
	"repro/internal/cspm"
	"repro/internal/fdr"
	"repro/internal/refine"
	"repro/internal/translate"
)

// NodeSpec describes one ECU node entering the pipeline.
type NodeSpec struct {
	// Name is the CSPm process name for the node (e.g. "ECU").
	Name string
	// Source is the node's CAPL program.
	Source string
	// In and Out are the CSPm channels for received and emitted
	// messages, from this node's perspective.
	In, Out string
	// Rename maps CAPL message variable names to CSPm constructors.
	Rename map[string]string
	// TimerProcess also emits the TIMER(t) lifecycle process the node's
	// timer events compose with.
	TimerProcess bool
}

// Pipeline is a configured end-to-end verification run.
type Pipeline struct {
	// Nodes lists the implementation models to extract. All nodes share
	// one message datatype; the first node's translation carries the
	// declarations.
	Nodes []NodeSpec
	// Spec is CSPm source appended after the extracted models:
	// specification processes, the composed SYSTEM, and assert lines.
	Spec string
	// MaxStates bounds each LTS exploration (0 = default).
	MaxStates int
}

// Report is the outcome of a pipeline run.
type Report struct {
	// NodeModels holds the per-node extracted CSPm text, by node name.
	NodeModels map[string]string
	// CombinedSource is the full evaluated script.
	CombinedSource string
	// Model is the evaluated script.
	Model *cspm.Model
	// Results holds one entry per assertion, in script order.
	Results []fdr.AssertResult
	// Warnings aggregates translator abstraction warnings.
	Warnings []string
}

// AllHold reports whether every assertion passed.
func (r *Report) AllHold() bool {
	for _, res := range r.Results {
		if !res.Result.Holds {
			return false
		}
	}
	return true
}

// Failed returns the assertions that did not hold.
func (r *Report) Failed() []fdr.AssertResult {
	var out []fdr.AssertResult
	for _, res := range r.Results {
		if !res.Result.Holds {
			out = append(out, res)
		}
	}
	return out
}

// Run executes the pipeline: Build, then check every assertion.
func (p *Pipeline) Run() (*Report, error) {
	report, err := p.Build()
	if err != nil {
		return nil, err
	}
	results, err := fdr.RunAll(report.Model, p.MaxStates)
	if err != nil {
		return nil, fmt.Errorf("core: run assertions: %w", err)
	}
	report.Results = results
	return report, nil
}

// Build parses every node, extracts its model, composes the models
// with Spec and evaluates the combined script. It runs no checks.
func (p *Pipeline) Build() (*Report, error) {
	if len(p.Nodes) == 0 {
		return nil, fmt.Errorf("core: pipeline needs at least one node")
	}
	report := &Report{NodeModels: map[string]string{}}

	// First pass: parse every node and collect the shared message and
	// timer universes.
	progs := make([]*capl.Program, len(p.Nodes))
	msgSet := map[string]bool{}
	var allMsgs []string
	timerSet := map[string]bool{}
	var allTimers []string
	for i, spec := range p.Nodes {
		prog, err := capl.Parse(spec.Source)
		if err != nil {
			return nil, fmt.Errorf("core: parse node %s: %w", spec.Name, err)
		}
		progs[i] = prog
		for _, d := range prog.MessageDecls() {
			name := d.Name
			if renamed, ok := spec.Rename[d.Name]; ok {
				name = renamed
			}
			if !msgSet[name] {
				msgSet[name] = true
				allMsgs = append(allMsgs, name)
			}
		}
		for _, v := range prog.Variables {
			if v.Type.Base == capl.TypeMsTimer || v.Type.Base == capl.TypeTimer {
				if !timerSet[v.Name] {
					timerSet[v.Name] = true
					allTimers = append(allTimers, v.Name)
				}
			}
		}
	}

	// Second pass: translate each node; only the first emits
	// declarations.
	var parts []string
	for i, spec := range p.Nodes {
		opts := translate.Options{
			NodeName:             spec.Name,
			InChannel:            spec.In,
			OutChannel:           spec.Out,
			MsgDatatype:          "Msgs",
			MessageRename:        spec.Rename,
			ExtraMessages:        allMsgs,
			ExtraTimers:          allTimers,
			IncludeTimers:        true,
			OmitDecls:            i > 0,
			GenerateTimerProcess: spec.TimerProcess,
		}
		res, err := translate.Translate(progs[i], opts)
		if err != nil {
			return nil, fmt.Errorf("core: extract model for %s: %w", spec.Name, err)
		}
		report.NodeModels[spec.Name] = res.Text
		for _, d := range res.Diags {
			w := d.Msg
			if d.Line > 0 {
				w = fmt.Sprintf("line %d: %s", d.Line, d.Msg)
			}
			report.Warnings = append(report.Warnings, w)
		}
		parts = append(parts, res.Text)
	}
	parts = append(parts, p.Spec)
	report.CombinedSource = strings.Join(parts, "\n")

	model, err := cspm.Load(report.CombinedSource)
	if err != nil {
		return nil, fmt.Errorf("core: evaluate combined model: %w", err)
	}
	report.Model = model
	return report, nil
}

// CrossValidate executes the pipeline's node programs on the simulated
// CAN bus for the given duration, maps the observed frame trace into
// model events through the CAN database, and checks that the observed
// trace is a trace of the given process (usually the composed SYSTEM).
// A node's frames appear on its Out channel, and message names map to
// constructors through the union of the nodes' Rename maps. This
// closes the loop between simulation (CANoe) and verification (FDR) in
// Figure 1.
func (p *Pipeline) CrossValidate(model *cspm.Model, system csp.Process,
	db *candb.Database, duration canbus.Time) (csp.Trace, error) {

	rename, senderChan := map[string]string{}, map[string]string{}
	for _, spec := range p.Nodes {
		maps.Copy(rename, spec.Rename)
		senderChan[spec.Name] = spec.Out
	}
	table, err := candb.NewTable(db, rename, senderChan)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sim := canoe.NewSimulation(canbus.Config{})
	for _, spec := range p.Nodes {
		if _, err := sim.AddNode(spec.Name, spec.Source); err != nil {
			return nil, fmt.Errorf("core: simulate: %w", err)
		}
	}
	if err := sim.Start(); err != nil {
		return nil, fmt.Errorf("core: simulate: %w", err)
	}
	if err := sim.Run(duration); err != nil {
		return nil, fmt.Errorf("core: simulate: %w", err)
	}
	observed := make(csp.Trace, 0, len(sim.Trace()))
	for _, tf := range sim.Trace() {
		ev, ok := table.Event(tf.Frame.ID)
		if !ok {
			return nil, fmt.Errorf("core: frame id %#x observed on the bus has no event mapping", tf.Frame.ID)
		}
		observed = append(observed, ev)
	}
	res, err := refine.NewChecker(model.Env, model.Ctx).AcceptsTrace(system, observed)
	if err != nil {
		return nil, fmt.Errorf("core: trace membership: %w", err)
	}
	if !res.Accepted {
		return observed, fmt.Errorf("core: simulated trace %s is not a trace of the extracted model", observed)
	}
	return observed, nil
}
