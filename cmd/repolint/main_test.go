package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree lays out a miniature module with one violation per pass and
// chdirs into it for the duration of the test.
func writeTree(t *testing.T) {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"cmd/tool/main.go": `package main
import "repro/internal/csp"
func build(ctx *csp.Context) { ctx.MustChannel("send") }
`,
		"internal/conformance/gen.go": `package conformance
import "math/rand"
func pick(n int) int { return rand.Intn(n) }
`,
		"internal/ota/ok.go": `package ota
import "math/rand"
func pick(n int) int { return rand.Intn(n) } // out of seededrand's scope
`,
		"internal/statestore/dump.go": `package statestore
import "os"
func dump(path string) {
	f, _ := os.Create(path)
	f.Close()
}
`,
		"internal/conformance/testdata/skip.go": `package broken !!`,
	}
	for path, src := range files {
		full := filepath.Join(root, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

func TestRunFindsSeededViolations(t *testing.T) {
	writeTree(t)
	var out strings.Builder
	found, err := run([]string{"./..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatalf("no findings:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{
		"MustChannel call is not guarded",
		"(mustrecover)",
		"rand.Intn draws from the implicitly seeded global source",
		"(seededrand)",
		"error from f.Close() on a writable file is silently discarded",
		"(closecheck)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "internal/ota") {
		t.Errorf("seededrand ran outside its scope:\n%s", got)
	}
	if strings.Contains(got, "testdata") {
		t.Errorf("testdata was not skipped:\n%s", got)
	}
}

func TestRunFilter(t *testing.T) {
	writeTree(t)
	var out strings.Builder
	found, err := run([]string{"-run", "seededrand", "./..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !found || strings.Contains(out.String(), "mustrecover") {
		t.Errorf("-run filter not applied (found=%v):\n%s", found, out.String())
	}
	if _, err := run([]string{"-run", "nosuch", "."}, &out); err == nil {
		t.Error("unknown analyzer name accepted")
	}
}

func TestRunList(t *testing.T) {
	var out strings.Builder
	found, err := run([]string{"-list"}, &out)
	if err != nil || found {
		t.Fatalf("list: found=%v err=%v", found, err)
	}
	for _, want := range []string{"mustrecover:", "seededrand:", "closecheck:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCleanRepo(t *testing.T) {
	// The repo itself must stay clean: this is the same invocation
	// scripts/check.sh runs in CI.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	var out strings.Builder
	found, err := run([]string{"./..."}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Errorf("repo has analyzer findings:\n%s", out.String())
	}
}
