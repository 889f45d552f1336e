// Package core is the library's top-level façade: the paper's concept
// of operations (Figure 1) as a reusable pipeline. A Pipeline takes the
// CAPL sources of one or more ECU network nodes plus a CSPm
// specification section (security-property processes, system
// composition and assertions), extracts the network's models in one
// translate.TranslateNetwork call (one model per node over the
// network's shared alphabet), composes them with the specification into
// one CSPm script, evaluates it and runs the assertions through the
// FDR-style checker.
//
// It also cross-validates: the same CAPL sources can be executed on the
// simulated CAN bus (the CANoe stand-in) and the observed frame trace
// checked for membership in the extracted CSP model's trace set.
package core

import (
	"context"
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
	// messages, from this node's perspective. The network declares the
	// union of every node's channels.
	In, Out string
	// Rename maps CAPL message variable names to CSPm constructors.
	Rename map[string]string
	// TimerProcess asks for the TIMER(t) lifecycle process the timer
	// events compose with. The network defines it once, in the first
	// node that asks for it.
	TimerProcess bool
}

// Pipeline is a configured end-to-end verification run.
type Pipeline struct {
	// Nodes lists the implementation models to extract. They share one
	// alphabet, the network universe: every node's message constructors
	// (after renaming), timers and channels, declared once at the head
	// of the first node's model.
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

// Build parses Spec and every node, extracts the network's models
// over their shared alphabet, composes them with Spec and evaluates the
// combined script. It runs no checks. The extracted models are
// evaluated as the translator's syntax trees; only Spec is parsed, so
// its errors carry Spec's own line numbers.
func (p *Pipeline) Build() (*Report, error) {
	if len(p.Nodes) == 0 {
		return nil, fmt.Errorf("core: pipeline needs at least one node")
	}
	spec, err := cspm.Parse(p.Spec)
	if err != nil {
		return nil, fmt.Errorf("core: parse spec: %w", err)
	}
	nodes := make([]translate.Node, len(p.Nodes))
	for i, n := range p.Nodes {
		prog, err := capl.Parse(n.Source)
		if err != nil {
			return nil, fmt.Errorf("core: parse node %s: %w", n.Name, err)
		}
		nodes[i] = translate.Node{Prog: prog, Name: n.Name, In: n.In, Out: n.Out, Rename: n.Rename, TimerProcess: n.TimerProcess}
	}
	combined, results, err := translate.TranslateNetwork(nodes)
	if err != nil {
		return nil, fmt.Errorf("core: extract network: %w", err)
	}
	report := &Report{NodeModels: map[string]string{}}
	parts := make([]string, 0, len(results)+1)
	for i, res := range results {
		report.NodeModels[p.Nodes[i].Name] = res.Text
		for _, d := range res.Diags {
			w := d.Msg
			if d.Line > 0 {
				w = fmt.Sprintf("line %d: %s", d.Line, d.Msg)
			}
			report.Warnings = append(report.Warnings, w)
		}
		parts = append(parts, res.Text)
	}
	report.CombinedSource = strings.Join(append(parts, p.Spec), "\n")
	combined.Decls = append(combined.Decls, spec.Decls...)
	combined.Asserts = spec.Asserts

	model, err := cspm.Evaluate(combined)
	if err != nil {
		return nil, fmt.Errorf("core: evaluate combined model: %w", err)
	}
	report.Model = model
	return report, nil
}

// crossValidateMaxEvents bounds CrossValidate's simulation, so a
// runaway node (a zero-period timer rearming itself at a fixed
// timestamp) ends in canoe.ErrEventBudget instead of a hang.
const crossValidateMaxEvents = 1_000_000

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
	if _, err := sim.RunBounded(context.TODO(), duration, crossValidateMaxEvents); err != nil {
		return nil, fmt.Errorf("core: simulate: %w", err)
	}
	observed, err := table.Project(sim.Trace())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
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
