package lts

import (
	"fmt"
	"strings"
)

// DOTOptions configures graph export.
type DOTOptions struct {
	// Name is the digraph name (default "lts").
	Name string
	// MaxStates truncates very large graphs (0 = no limit). Truncated
	// output carries a comment noting the cut.
	MaxStates int
	// HighlightTrace marks the states along the given event sequence
	// from the initial state (e.g. a counterexample) in red.
	HighlightTrace []string
}

// ToDOT renders the transition system in Graphviz DOT format — the
// stand-in for FDR's process-graph visualisation.
func (l *LTS) ToDOT(opts DOTOptions) string {
	name := opts.Name
	if name == "" {
		name = "lts"
	}
	limit := l.NumStates()
	truncated := false
	if opts.MaxStates > 0 && opts.MaxStates < limit {
		limit = opts.MaxStates
		truncated = true
	}

	highlight := map[int]bool{}
	if len(opts.HighlightTrace) > 0 {
		cur := l.Init
		highlight[cur] = true
		for _, evName := range opts.HighlightTrace {
			next := -1
			for _, e := range l.Edges[cur] {
				if e.Ev == TauID {
					continue
				}
				if l.EventByID(e.Ev).String() == evName {
					next = e.To
					break
				}
			}
			if next < 0 {
				break
			}
			cur = next
			highlight[cur] = true
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", name)
	sb.WriteString("  rankdir=LR;\n")
	sb.WriteString("  node [shape=circle, fontsize=10];\n")
	fmt.Fprintf(&sb, "  init [shape=point];\n  init -> s%d;\n", l.Init)
	for id := 0; id < limit; id++ {
		attrs := fmt.Sprintf("label=\"%d\"", id)
		if l.IsOmega(id) {
			attrs += ", shape=doublecircle"
		}
		if highlight[id] {
			attrs += ", color=red, penwidth=2"
		}
		fmt.Fprintf(&sb, "  s%d [%s];\n", id, attrs)
	}
	for from := 0; from < limit; from++ {
		for _, e := range l.Edges[from] {
			if e.To >= limit {
				continue
			}
			label := "τ"
			style := ", style=dashed"
			if e.Ev != TauID {
				label = escapeDOT(l.EventByID(e.Ev).String())
				style = ""
			}
			fmt.Fprintf(&sb, "  s%d -> s%d [label=%q%s];\n", from, e.To, label, style)
		}
	}
	if truncated {
		fmt.Fprintf(&sb, "  // truncated to %d of %d states\n", limit, l.NumStates())
	}
	sb.WriteString("}\n")
	return sb.String()
}

func escapeDOT(s string) string {
	return strings.ReplaceAll(s, `"`, `\"`)
}
