package caplgen

import (
	"math/rand"
	"testing"

	"repro/internal/capl"
	"repro/internal/cspm"
	"repro/internal/translate"
)

// FuzzTranslateRoundTrip extracts the model of a generated program
// under the option variants picked by bits and checks that the printed
// text parses back to the translator's syntax tree.
func FuzzTranslateRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, bits uint8) {
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
	})
}
