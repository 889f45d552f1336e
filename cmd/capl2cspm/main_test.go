package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/caplint"
	"repro/internal/translate"
)

func TestRunExtractsModel(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "ecu.csp")
	err := run([]string{
		"-node", "ECU",
		"-rename", "swInventoryReq=reqSw,swInventoryRpt=rptSw,applyUpdateReq=reqApp,updateResultRpt=rptUpd",
		"-o", outPath,
		"../../testdata/ecu.can",
	}, os.Stdout)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"datatype Msgs = reqSw | rptSw | reqApp | rptUpd",
		"send.reqSw -> rec!rptSw -> ECU",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunUsage(t *testing.T) {
	if err := run(nil, os.Stdout); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"/nonexistent.can"}, os.Stdout); err == nil {
		t.Error("unreadable file accepted")
	}
}

func TestParseRenames(t *testing.T) {
	got, err := parseRenames("a=b,c=d")
	if err != nil || got["a"] != "b" || got["c"] != "d" || len(got) != 2 {
		t.Errorf("renames = %v, %v", got, err)
	}
	if got, err := parseRenames(""); err != nil || len(got) != 0 {
		t.Errorf("empty list = %v, %v", got, err)
	}
	for _, bad := range []string{"bad", "=x", "a=", ""} {
		_, err := parseRenames("a=b," + bad + ",c=d")
		if err == nil || !strings.Contains(err.Error(), `malformed pair "`+bad+`"`) {
			t.Errorf("pair %q: err = %v, want it named as malformed", bad, err)
		}
	}
}

func TestRunRejectsMalformedRename(t *testing.T) {
	err := run([]string{"-rename", "swInventoryReq=reqSw,bogus,=x", "../../testdata/ecu.can"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `malformed pair "bogus"`) {
		t.Errorf("err = %v, want the malformed pair named", err)
	}
}

func TestRunStrictRefusesFlawedInput(t *testing.T) {
	err := run([]string{
		"-node", "Gateway",
		"-strict",
		"-dbc", "../../testdata/ota.dbc",
		"../../examples/caplcheck/flawed_gateway.can",
	}, io.Discard)
	if err == nil {
		t.Fatal("strict extraction accepted seeded defects")
	}
	var lintErr *translate.LintError
	if !errors.As(err, &lintErr) {
		t.Fatalf("err = %T (%v), want *translate.LintError", err, err)
	}
	codes := map[string]bool{}
	for _, d := range lintErr.Diags {
		codes[d.Code] = true
	}
	for _, want := range []string{caplint.CodeUnknownFunc, caplint.CodeBadOutputArg, caplint.CodeDBSignalWidth} {
		if !codes[want] {
			t.Errorf("strict refusal missing code %s: %v", want, codes)
		}
	}
}

func TestRunStrictIsByteIdenticalOnCleanInput(t *testing.T) {
	var plain, strict strings.Builder
	if err := run([]string{"-node", "VMG", "../../testdata/ecu.can"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-node", "VMG", "-strict", "-dbc", "../../testdata/ota.dbc",
		"../../testdata/ecu.can"}, &strict); err != nil {
		t.Fatal(err)
	}
	if plain.String() != strict.String() {
		t.Errorf("strict output differs from plain output on clean input:\n--- plain ---\n%s\n--- strict ---\n%s",
			plain.String(), strict.String())
	}
}
