package translate_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/capl"
	"repro/internal/cspm"
	"repro/internal/ota"
	"repro/internal/translate"
)

// TestPrintedModelParsesBack is the round-trip oracle over the CAPL
// corpus: for every .can under testdata/ and examples/ and every OTA
// source, under each option variant, the printed text parses to the
// same syntax tree the translator built.
func TestPrintedModelParsesBack(t *testing.T) {
	sources := map[string]string{
		"ota.ECUSource": ota.ECUSource, "ota.VMGSource": ota.VMGSource,
		"ota.FlawedECUSource": ota.FlawedECUSource, "ota.DeadlockECUSource": ota.DeadlockECUSource,
		"ota.VMGTimerSource": ota.VMGTimerSource, "ota.HardenedECUSource": ota.HardenedECUSource,
		"ota.HardenedVMGSource": ota.HardenedVMGSource,
	}
	for _, glob := range []string{"../../testdata/*.can", "../../examples/*/*.can"} {
		files, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sources[f] = string(b)
		}
	}
	// flawed_gateway.can outputs an undeclared message, so extraction
	// refuses it and there is no model to print.
	refused := map[string]bool{"../../examples/caplcheck/flawed_gateway.can": true}
	variants := []struct {
		name string
		set  func(*translate.Options)
	}{
		{"default", func(*translate.Options) {}},
		{"OmitDecls", func(o *translate.Options) { o.OmitDecls = true }},
		{"no timers", func(o *translate.Options) { o.IncludeTimers = false }},
		{"GenerateTimerProcess", func(o *translate.Options) { o.GenerateTimerProcess = true }},
		{"TockTime", func(o *translate.Options) { o.TockTime = true }},
		{"TockTime timer process", func(o *translate.Options) { o.TockTime, o.GenerateTimerProcess = true, true }},
	}
	checked := 0
	for name, src := range sources {
		prog, err := capl.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range variants {
			opts := translate.DefaultOptions("ECU")
			opts.MessageRename = ota.MessageRename
			v.set(&opts)
			res, err := translate.Translate(prog, opts)
			if refused[name] {
				if err == nil {
					t.Errorf("%s %s: translated, want a refusal", name, v.name)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %s: %v", name, v.name, err)
			}
			back, err := cspm.Parse(res.Text)
			if err != nil {
				t.Fatalf("%s %s: printed model does not parse: %v\n%s", name, v.name, err, res.Text)
			}
			if !cspm.EqualScript(back, res.Script) {
				t.Errorf("%s %s: printed model parses to a different syntax tree:\n%s", name, v.name, res.Text)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no model was checked")
	}
}
