package attack

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/csp"
	"repro/internal/csp/cspref"
)

// sampleTree is the running example: gain access via OBD port or via
// telematics compromise, then (reprogram ECU AND suppress alarms, in any
// order).
func sampleTree() Tree {
	return Seq{Children: []Tree{
		Or{Children: []Tree{
			Leaf{Action: "accessOBD"},
			Seq{Children: []Tree{
				Leaf{Action: "compromiseTCU"},
				Leaf{Action: "pivotToCAN"},
			}},
		}},
		Par{Children: []Tree{
			Leaf{Action: "reprogramECU"},
			Leaf{Action: "suppressAlarm"},
		}},
	}}
}

func TestSequencesSemantics(t *testing.T) {
	seqs := Sequences(sampleTree())
	// 1 OBD-prefix or 1 TCU-prefix, each followed by 2 interleavings of
	// the parallel pair = 4 sequences.
	if len(seqs) != 4 {
		t.Fatalf("sequence count = %d, want 4: %v", len(seqs), seqs)
	}
	want := map[string]bool{
		"accessOBD,reprogramECU,suppressAlarm":                true,
		"accessOBD,suppressAlarm,reprogramECU":                true,
		"compromiseTCU,pivotToCAN,reprogramECU,suppressAlarm": true,
		"compromiseTCU,pivotToCAN,suppressAlarm,reprogramECU": true,
	}
	for _, s := range seqs {
		if !want[strings.Join(s, ",")] {
			t.Errorf("unexpected sequence %v", s)
		}
	}
}

func TestActions(t *testing.T) {
	got := Actions(sampleTree())
	want := []string{"accessOBD", "compromiseTCU", "pivotToCAN", "reprogramECU", "suppressAlarm"}
	if len(got) != len(want) {
		t.Fatalf("actions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("action %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// completedTraces explores the CSP translation and returns the action
// sequences of its maximal (terminating) traces.
func completedTraces(t *testing.T, tree Tree) map[string]bool {
	t.Helper()
	ctx := csp.NewContext()
	if err := DeclareActions(ctx, "action", tree); err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(csp.NewEnv(), ctx)
	proc := ToCSP(tree, "action")
	maxLen := len(Actions(tree)) + 1
	ts, err := cspref.Traces(sem, proc, maxLen)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, tr := range ts.Slice() {
		if len(tr) == 0 || !tr[len(tr)-1].IsTick() {
			continue
		}
		parts := make([]string, 0, len(tr)-1)
		for _, ev := range tr[:len(tr)-1] {
			parts = append(parts, ev.Args[0].String())
		}
		out[strings.Join(parts, ",")] = true
	}
	return out
}

func TestToCSPMatchesSequenceSemantics(t *testing.T) {
	tree := sampleTree()
	got := completedTraces(t, tree)
	want := Sequences(tree)
	if len(got) != len(want) {
		t.Fatalf("CSP completed traces = %d, sequence semantics = %d\n%v", len(got), len(want), got)
	}
	for _, s := range want {
		if !got[strings.Join(s, ",")] {
			t.Errorf("CSP translation missing sequence %v", s)
		}
	}
}

// TestToCSPEquivalenceProperty property-tests the Cheah et al.
// equivalence on randomly generated attack trees.
func TestToCSPEquivalenceProperty(t *testing.T) {
	actions := []string{"a", "b", "c", "d"}
	// genTree builds a bounded random tree from a seed.
	var genTree func(seed int64, depth int, next *int) Tree
	genTree = func(seed int64, depth int, next *int) Tree {
		pick := seed % 4
		seed /= 4
		if depth == 0 || pick == 0 || *next >= len(actions) {
			a := actions[*next%len(actions)]
			*next++
			return Leaf{Action: a}
		}
		l := genTree(seed/2, depth-1, next)
		r := genTree(seed/3+1, depth-1, next)
		switch pick {
		case 1:
			return Seq{Children: []Tree{l, r}}
		case 2:
			return Par{Children: []Tree{l, r}}
		default:
			return Or{Children: []Tree{l, r}}
		}
	}
	prop := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		next := 0
		tree := genTree(seed, 2, &next)
		got := completedTraces(t, tree)
		want := Sequences(tree)
		if len(got) != len(want) {
			return false
		}
		for _, s := range want {
			if !got[strings.Join(s, ",")] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTreeLabels(t *testing.T) {
	if got := sampleTree().Label(); !strings.Contains(got, "accessOBD") {
		t.Errorf("label = %q", got)
	}
}

func TestIntruderLearnsAndReplays(t *testing.T) {
	ctx := csp.NewContext()
	packet := csp.EnumType("Pkt", "secret", "public")
	ctx.MustChannel("hear", packet)
	ctx.MustChannel("say", packet)
	env := csp.NewEnv()
	proc, err := BuildIntruder(BusConfig{
		Hear:     []string{"hear"},
		Say:      "say",
		Universe: packet,
		Forgeable: func(v csp.Value, _ csp.SetValue) bool {
			return v.Equal(csp.Sym("public"))
		},
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	sem := csp.NewSemantics(env, ctx)
	ts, err := cspref.Traces(sem, proc, 2)
	if err != nil {
		t.Fatal(err)
	}
	heardSecret := csp.Ev("hear", csp.Sym("secret"))
	saidSecret := csp.Ev("say", csp.Sym("secret"))
	saidPublic := csp.Ev("say", csp.Sym("public"))
	if !ts.Contains(csp.Trace{saidPublic}) {
		t.Error("intruder cannot forge the public packet")
	}
	if ts.Contains(csp.Trace{saidSecret}) {
		t.Error("intruder forged the secret packet without hearing it")
	}
	// After hearing the secret (a victim broadcast), replay works.
	if !ts.Contains(csp.Trace{heardSecret, saidSecret}) {
		t.Error("intruder cannot replay an overheard secret")
	}
}

func TestIntruderKnowledgeStates(t *testing.T) {
	packet := csp.EnumType("Pkt", "s1", "s2", "pub")
	cfg := BusConfig{
		Hear:     []string{"hear"},
		Say:      "say",
		Universe: packet,
		Forgeable: func(v csp.Value, _ csp.SetValue) bool {
			return v.Equal(csp.Sym("pub"))
		},
	}
	n, err := NumKnowledgeStates(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Subsets of {s1, s2}: 4 states.
	if n != 4 {
		t.Errorf("knowledge states = %d, want 4", n)
	}
}

func TestIntruderAlphabet(t *testing.T) {
	cfg := BusConfig{Hear: []string{"hear"}, Say: "say"}
	set := cfg.Alphabet()
	if !set.Contains(csp.Ev("hear", csp.Sym("x"))) || !set.Contains(csp.Ev("say", csp.Sym("x"))) {
		t.Error("alphabet missing hear/say channels")
	}
}

func TestIntruderStateLimit(t *testing.T) {
	syms := make([]csp.Sym, 16)
	for i := range syms {
		syms[i] = csp.Sym(strings.Repeat("x", i+1))
	}
	packet := csp.EnumType("Pkt", syms...)
	cfg := BusConfig{Hear: []string{"hear"}, Say: "say", Universe: packet, MaxStates: 100}
	if _, err := NumKnowledgeStates(cfg); err == nil {
		t.Error("expected knowledge-state explosion to be reported")
	}
}

func TestIntruderConfigValidation(t *testing.T) {
	if _, err := BuildIntruder(BusConfig{}, csp.NewEnv()); err == nil {
		t.Error("empty config accepted")
	}
}
