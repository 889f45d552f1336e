package experiments

import (
	"fmt"
	"strings"

	"repro/internal/attack"
	"repro/internal/csp"
	"repro/internal/lts"
	"repro/internal/ota"
	"repro/internal/refine"
)

// SecureVariantRow is one row of the shared-key (R05) experiment.
type SecureVariantRow struct {
	Variant        ota.SecureVariant
	AuthHolds      bool
	AuthTrace      csp.Trace
	InjHolds       bool
	InjTrace       csp.Trace
	IntruderStates int
}

// SecureVariants runs the R05 experiment: the three protections against
// the Dolev-Yao bus intruder, checked against injection (AUTH) and
// replay (AUTHINJ).
func SecureVariants() ([]SecureVariantRow, error) {
	var out []SecureVariantRow
	for _, v := range []ota.SecureVariant{ota.Naive, ota.MACOnly, ota.MACNonce} {
		m, err := ota.BuildSecure(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v, err)
		}
		c := refine.NewChecker(m.Env, m.Ctx)
		auth, err := c.RefinesTraces(m.AuthSpec, m.System)
		if err != nil {
			return nil, err
		}
		inj, err := c.RefinesTraces(m.InjSpec, m.System)
		if err != nil {
			return nil, err
		}
		out = append(out, SecureVariantRow{
			Variant:        v,
			AuthHolds:      auth.Holds,
			AuthTrace:      auth.Counterexample,
			InjHolds:       inj.Holds,
			InjTrace:       inj.Counterexample,
			IntruderStates: m.IntruderStates,
		})
	}
	return out, nil
}

// SecureVariantsTable renders the experiment.
func SecureVariantsTable(rows []SecureVariantRow) *Table {
	t := &Table{
		Title:  "R05 — shared-key protections vs a Dolev-Yao CAN intruder",
		Header: []string{"protection", "injection (AUTH)", "replay (AUTHINJ)", "intruder states"},
		Notes: []string{
			"AUTH: no update applied unless one was requested",
			"AUTHINJ: requests and applied updates strictly alternate",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Variant.String(),
			holdsOrTrace(r.AuthHolds, r.AuthTrace),
			holdsOrTrace(r.InjHolds, r.InjTrace),
			fmt.Sprintf("%d", r.IntruderStates),
		})
	}
	return t
}

// AttackTreeResult verifies the attack-tree-to-CSP equivalence of
// section IV-E on the running automotive example.
type AttackTreeResult struct {
	TreeLabel       string
	SequenceCount   int
	CSPTraceCount   int
	Equivalent      bool
	SampleSequences []string
}

// AttackTree runs the attack-tree experiment.
func AttackTree() (*AttackTreeResult, error) {
	tree := attack.Seq{Children: []attack.Tree{
		attack.Or{Children: []attack.Tree{
			attack.Leaf{Action: "accessOBD"},
			attack.Seq{Children: []attack.Tree{
				attack.Leaf{Action: "compromiseTCU"},
				attack.Leaf{Action: "pivotToCAN"},
			}},
		}},
		attack.Par{Children: []attack.Tree{
			attack.Leaf{Action: "reprogramECU"},
			attack.Leaf{Action: "suppressAlarm"},
		}},
	}}
	sequences := attack.Sequences(tree)

	ctx := csp.NewContext()
	if err := attack.DeclareActions(ctx, "action", tree); err != nil {
		return nil, err
	}
	sem := csp.NewSemantics(csp.NewEnv(), ctx)
	l, err := lts.Explore(sem, attack.ToCSP(tree, "action"), lts.Options{})
	if err != nil {
		return nil, err
	}
	// The tree's process is finite and acyclic, so a DFS over its LTS
	// visits every path; a path that ticks is a completed attack.
	completed := map[string]bool{}
	var path []string
	var walk func(s int)
	walk = func(s int) {
		for _, e := range l.Edges[s] {
			switch e.Ev {
			case lts.TauID:
				walk(e.To)
			case lts.TickID:
				completed[strings.Join(path, ",")] = true
			default:
				path = append(path, l.EventByID(e.Ev).Args[0].String())
				walk(e.To)
				path = path[:len(path)-1]
			}
		}
	}
	walk(l.Init)
	equivalent := len(completed) == len(sequences)
	for _, s := range sequences {
		if !completed[strings.Join(s, ",")] {
			equivalent = false
		}
	}
	res := &AttackTreeResult{
		TreeLabel:     tree.Label(),
		SequenceCount: len(sequences),
		CSPTraceCount: len(completed),
		Equivalent:    equivalent,
	}
	for i, s := range sequences {
		if i >= 4 {
			break
		}
		res.SampleSequences = append(res.SampleSequences, strings.Join(s, " -> "))
	}
	return res, nil
}

// Render summarises the attack-tree experiment.
func (r *AttackTreeResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Attack trees — SP-graph semantics vs CSP translation (section IV-E)\n")
	fmt.Fprintf(&sb, "  tree: %s\n", r.TreeLabel)
	fmt.Fprintf(&sb, "  sequence-set size %d, CSP completed traces %d, equivalent: %s\n",
		r.SequenceCount, r.CSPTraceCount, check(r.Equivalent))
	for _, s := range r.SampleSequences {
		fmt.Fprintf(&sb, "  attack: %s\n", s)
	}
	return sb.String()
}

// NSPKResult captures the Needham-Schroeder experiment (the paper's
// section II-B motivation).
type NSPKResult struct {
	OriginalHolds  bool
	AttackTrace    csp.Trace
	FixedHolds     bool
	IntruderStates int
}

// NeedhamSchroeder runs the NSPK/NSL experiment.
func NeedhamSchroeder() (*NSPKResult, error) {
	orig, err := attack.BuildNSPK(attack.NSPKConfig{})
	if err != nil {
		return nil, err
	}
	c := refine.NewChecker(orig.Env, orig.Ctx)
	origRes, err := c.RefinesTraces(orig.AuthSpec, orig.System)
	if err != nil {
		return nil, err
	}
	fixed, err := attack.BuildNSPK(attack.NSPKConfig{Fixed: true})
	if err != nil {
		return nil, err
	}
	cf := refine.NewChecker(fixed.Env, fixed.Ctx)
	fixedRes, err := cf.RefinesTraces(fixed.AuthSpec, fixed.System)
	if err != nil {
		return nil, err
	}
	return &NSPKResult{
		OriginalHolds:  origRes.Holds,
		AttackTrace:    origRes.Counterexample,
		FixedHolds:     fixedRes.Holds,
		IntruderStates: orig.IntruderStates,
	}, nil
}

// Render summarises the NSPK experiment.
func (r *NSPKResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Needham-Schroeder — Lowe's attack reproduced (section II-B)\n")
	fmt.Fprintf(&sb, "  NSPK authentication: %s\n", holdsOrTrace(r.OriginalHolds, r.AttackTrace))
	fmt.Fprintf(&sb, "  NSL (Lowe's fix):    %s\n", map[bool]string{true: "holds", false: "VIOLATED"}[r.FixedHolds])
	fmt.Fprintf(&sb, "  intruder knowledge states: %d\n", r.IntruderStates)
	return sb.String()
}
