package lts

import (
	"slices"
	"sort"
)

// NormNode is one state of a normalised (deterministic) LTS: a
// tau-closed set of states of the original system.
type NormNode struct {
	// States is the sorted member set (indices into the original LTS).
	States []int
	// Succ maps a visible label ID (tick included) to the successor node.
	Succ map[int]int
	// MinAcceptances holds the minimal acceptance sets of the node: the
	// minimised collection of initial-event sets of the stable member
	// states. Used for stable-failures refinement. Each acceptance is a
	// sorted list of label IDs.
	MinAcceptances [][]int
}

// Normalized is the result of FDR-style normalisation: a deterministic
// transition structure over subsets of the original states, annotated
// with minimal acceptances.
type Normalized struct {
	L     *LTS
	Init  int
	Nodes []NormNode
}

// subsetDigest hashes a sorted state subset with FNV-64a over the raw
// int values (little-endian, 8 bytes each). The subset interner buckets
// by this digest and verifies membership by comparing the actual
// slices, so a 64-bit collision costs one extra comparison, never a
// wrong node identity. This replaces the old comma-joined decimal
// string keys, which allocated and re-rendered every subset probe.
func subsetDigest(states []int) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range states {
		v := uint64(x)
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	return h
}

// Normalize performs tau-closure plus subset construction on the LTS,
// producing the deterministic structure refinement checking runs
// against.
func Normalize(l *LTS) *Normalized {
	n := &Normalized{L: l}
	index := map[uint64][]int{} // digest -> candidate node IDs
	intern := func(states []int) int {
		d := subsetDigest(states)
		for _, id := range index[d] {
			if slices.Equal(n.Nodes[id].States, states) {
				return id
			}
		}
		id := len(n.Nodes)
		index[d] = append(index[d], id)
		n.Nodes = append(n.Nodes, NormNode{States: states, Succ: map[int]int{}})
		return id
	}
	init := intern(l.TauClosure([]int{l.Init}))
	n.Init = init
	for id := 0; id < len(n.Nodes); id++ {
		node := &n.Nodes[id]
		// Gather successors per visible label.
		succs := map[int][]int{}
		for _, s := range node.States {
			for _, e := range l.Edges[s] {
				if e.Ev == TauID {
					continue
				}
				succs[e.Ev] = append(succs[e.Ev], e.To)
			}
		}
		labels := make([]int, 0, len(succs))
		for ev := range succs {
			labels = append(labels, ev)
		}
		sort.Ints(labels)
		for _, ev := range labels {
			target := intern(l.TauClosure(succs[ev]))
			// Re-take the pointer: intern may have grown n.Nodes.
			n.Nodes[id].Succ[ev] = target
		}
		node = &n.Nodes[id]
		node.MinAcceptances = minAcceptances(l, node.States)
	}
	return n
}

// Accepts reports whether the node can perform the label.
func (n *Normalized) Accepts(node, label int) (int, bool) {
	to, ok := n.Nodes[node].Succ[label]
	return to, ok
}

// NumNodes returns the number of normalised nodes.
func (n *Normalized) NumNodes() int { return len(n.Nodes) }

// RefusalPossible reports whether the node has a minimal acceptance that
// is a subset of the given offered set, i.e. whether the specification
// allows an implementation state offering exactly `offered` (a sorted
// label list) to refuse everything else.
func (n *Normalized) RefusalPossible(node int, offered []int) bool {
	offSet := make(map[int]bool, len(offered))
	for _, o := range offered {
		offSet[o] = true
	}
	for _, acc := range n.Nodes[node].MinAcceptances {
		ok := true
		for _, a := range acc {
			if !offSet[a] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func minAcceptances(l *LTS, states []int) [][]int {
	var accs [][]int
	for _, s := range states {
		if !l.IsStable(s) {
			continue
		}
		accs = append(accs, l.Initials(s))
	}
	// Minimise: drop any acceptance that is a strict superset of another,
	// and deduplicate. Sorted shortest-first (ties broken by element
	// order) so subsets are kept before their supersets arrive.
	sort.Slice(accs, func(i, j int) bool {
		if len(accs[i]) != len(accs[j]) {
			return len(accs[i]) < len(accs[j])
		}
		for k := range accs[i] {
			if accs[i][k] != accs[j][k] {
				return accs[i][k] < accs[j][k]
			}
		}
		return false
	})
	var out [][]int
	for _, a := range accs {
		redundant := false
		for _, kept := range out {
			if isSubset(kept, a) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, a)
		}
	}
	return out
}

func isSubset(a, b []int) bool {
	set := make(map[int]bool, len(b))
	for _, x := range b {
		set[x] = true
	}
	for _, x := range a {
		if !set[x] {
			return false
		}
	}
	return true
}
