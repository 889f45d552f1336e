package caplgen

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/capl"
	"repro/internal/cspm"
	"repro/internal/translate"
)

// FuzzTranslateRoundTrip extracts the model of a generated program
// under the option variants picked by bits and checks that the printed
// text parses back to the translator's syntax tree. It then composes
// the program with one or two more generated programs into the
// network picked by net (checkNetwork).
func FuzzTranslateRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, bits, net uint8) {
		spec := generate(rand.New(rand.NewSource(seed)), 0, seed)
		prog, err := capl.Parse(spec.NodeSource())
		if err != nil {
			t.Fatalf("generated program does not parse: %v", err)
		}
		tr, err := translate.Translate(prog, translate.Options{
			NodeName:             "NODE",
			InChannel:            "stim",
			OutChannel:           "resp",
			OmitDecls:            bits&1 != 0,
			IncludeTimers:        bits&2 == 0,
			GenerateTimerProcess: bits&4 != 0,
			TockTime:             bits&8 != 0,
		})
		if err != nil {
			t.Fatalf("translate: %v", err)
		}
		back, err := cspm.Parse(tr.Text)
		if err != nil {
			t.Fatalf("printed model does not parse: %v\n%s", err, tr.Text)
		}
		if !cspm.EqualScript(back, tr.Script) {
			t.Fatalf("printed model parses to a different syntax tree:\n%s", tr.Text)
		}
		checkNetwork(t, seed, net)
	})
}

// checkNetwork extracts a network of generated programs, the first
// from seed and the next ones from the seeds after it. net&1 adds a
// third node on a channel of its own, and bit i+1 of net asks node i
// for the TIMER(t) process. The combined text must parse back to the
// network's script, and the script must evaluate. A two-node network
// must print each node as translate.Translate does when the other
// node's messages and timers are typed in as ExtraMessages and
// ExtraTimers and the second node omits the declarations, the way the
// benchmark's pipeline workload extracts its node pairs.
func checkNetwork(t *testing.T, seed int64, net uint8) {
	chans := [][2]string{{"stim", "resp"}, {"resp", "stim"}, {"resp", "log"}}
	n := 2 + int(net&1)
	specs := make([]*Spec, n)
	nodes := make([]translate.Node, n)
	for i := range nodes {
		specs[i] = generate(rand.New(rand.NewSource(seed+int64(i))), i, seed+int64(i))
		prog, err := capl.Parse(specs[i].NodeSource())
		if err != nil {
			t.Fatalf("generated program %d does not parse: %v", i, err)
		}
		nodes[i] = translate.Node{Prog: prog, Name: "N" + string(rune('0'+i)), In: chans[i][0], Out: chans[i][1],
			TimerProcess: net&(2<<i) != 0}
	}
	script, results, err := translate.TranslateNetwork(nodes)
	if err != nil {
		t.Fatalf("translate network: %v", err)
	}
	texts := make([]string, n)
	for i, r := range results {
		texts[i] = r.Text
	}
	combined := strings.Join(texts, "\n")
	back, err := cspm.Parse(combined)
	if err != nil {
		t.Fatalf("printed network does not parse: %v\n%s", err, combined)
	}
	if !cspm.EqualScript(back, script) {
		t.Fatalf("printed network parses to a different syntax tree:\n%s", combined)
	}
	if _, err := cspm.Evaluate(script); err != nil {
		t.Fatalf("network does not evaluate: %v\n%s", err, combined)
	}
	if n != 2 {
		return
	}
	for i, node := range nodes {
		other := specs[1-i]
		opts := translate.DefaultOptions(node.Name)
		opts.InChannel, opts.OutChannel, opts.OmitDecls = node.In, node.Out, i == 1
		opts.GenerateTimerProcess = node.TimerProcess && (i == 0 || !nodes[0].TimerProcess)
		for s := 0; s < other.NStim; s++ {
			opts.ExtraMessages = append(opts.ExtraMessages, stimName(s))
		}
		for r := 0; r < other.NResp; r++ {
			opts.ExtraMessages = append(opts.ExtraMessages, respName(r))
		}
		if other.Timer != nil {
			opts.ExtraTimers = []string{other.Timer.Name}
		}
		res, err := translate.Translate(node.Prog, opts)
		if err != nil {
			t.Fatalf("translate node %s alone: %v", node.Name, err)
		}
		if res.Text != results[i].Text {
			t.Fatalf("node %s differs from its translation alone:\nnetwork:\n%s\nalone:\n%s", node.Name, results[i].Text, res.Text)
		}
	}
}
