package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// runOn parses src as one package file and runs a single analyzer over
// it for the given package directory.
func runOn(t *testing.T, a *Analyzer, pkgDir, src string, asTest bool) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	name := "src.go"
	if asTest {
		name = "src_test.go"
	}
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	if asTest {
		return RunPackage(fset, pkgDir, nil, []*ast.File{f}, []*Analyzer{a})
	}
	return RunPackage(fset, pkgDir, []*ast.File{f}, nil, []*Analyzer{a})
}

func TestMustRecoverUnguarded(t *testing.T) {
	src := `package main
import "repro/internal/csp"
func build(ctx *csp.Context) {
	ctx.MustChannel("send")
}`
	diags := runOn(t, MustRecover, "cmd/otacheck", src, false)
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "MustChannel") {
		t.Fatalf("diags = %v, want one MustChannel finding", diags)
	}
}

func TestMustRecoverGuarded(t *testing.T) {
	src := `package main
import "repro/internal/csp"
func build(ctx *csp.Context) (err error) {
	defer csp.RecoverBuild(&err)
	ctx.MustChannel("send")
	f := func() { ctx.MustDefine("P", nil, nil) } // inherits the boundary
	f()
	return nil
}
func plain(ctx *csp.Context) (err error) {
	defer func() { _ = recover() }()
	ctx.MustChannel("send")
	return nil
}`
	if diags := runOn(t, MustRecover, "cmd/otacheck", src, false); len(diags) != 0 {
		t.Fatalf("guarded code flagged: %v", diags)
	}
}

func TestMustRecoverFuncLitOwnGuard(t *testing.T) {
	src := `package main
import "repro/internal/csp"
func build(ctx *csp.Context) {
	go func() {
		ctx.MustChannel("send") // unguarded: goroutine escapes the caller's defers
	}()
}`
	diags := runOn(t, MustRecover, "cmd/x", src, false)
	if len(diags) != 1 {
		t.Fatalf("diags = %v, want one finding", diags)
	}
}

func TestMustRecoverScope(t *testing.T) {
	src := `package conformance
import "repro/internal/csp"
func build(ctx *csp.Context) { ctx.MustChannel("send") }`
	if diags := runOn(t, MustRecover, "internal/conformance", src, false); len(diags) != 0 {
		t.Fatalf("pass ran outside cmd/: %v", diags)
	}
	if !MustRecover.AppliesTo("cmd/otacheck") || MustRecover.AppliesTo("internal/ota") {
		t.Error("AppliesTo scoping wrong")
	}
}

func TestSeededRandGlobalUse(t *testing.T) {
	src := `package conformance
import "math/rand"
func pick(n int) int { return rand.Intn(n) }
func seedIt() { rand.Seed(42) }`
	diags := runOn(t, SeededRand, "internal/conformance", src, false)
	if len(diags) != 2 {
		t.Fatalf("diags = %v, want Intn and Seed findings", diags)
	}
}

func TestSeededRandExplicitSourceAllowed(t *testing.T) {
	src := `package faultcampaign
import "math/rand"
func pick(seed int64, n int) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(n)
}`
	if diags := runOn(t, SeededRand, "internal/faultcampaign", src, false); len(diags) != 0 {
		t.Fatalf("seeded source flagged: %v", diags)
	}
}

func TestSeededRandAliasedImport(t *testing.T) {
	src := `package conformance
import mrand "math/rand"
func pick(n int) int { return mrand.Intn(n) }`
	diags := runOn(t, SeededRand, "internal/conformance", src, false)
	if len(diags) != 1 {
		t.Fatalf("aliased import not tracked: %v", diags)
	}
}

func TestSeededRandCoversTests(t *testing.T) {
	src := `package conformance
import "math/rand"
func helper(n int) int { return rand.Intn(n) }`
	diags := runOn(t, SeededRand, "internal/conformance", src, true)
	if len(diags) != 1 {
		t.Fatalf("test file not analyzed: %v", diags)
	}
	if diags := runOn(t, SeededRand, "internal/csp", src, false); len(diags) != 0 {
		t.Fatalf("pass ran outside its scope: %v", diags)
	}
}

func TestSeededRandOtherPackageNamedRand(t *testing.T) {
	src := `package conformance
import "repro/internal/notrand"
func pick(n int) int { return rand.Intn(n) }` // rand is not math/rand here
	if diags := runOn(t, SeededRand, "internal/conformance", src, false); len(diags) != 0 {
		t.Fatalf("non-math/rand identifier flagged: %v", diags)
	}
}

func TestUnrecoveredGoCoversCampaignPools(t *testing.T) {
	// The shared campaign pool and the L* equivalence pool that runs on
	// it are worker-pool packages: a bare goroutine there is flagged.
	src := `package campaign
func spawn(work func()) {
	go func() { work() }()
}`
	for _, dir := range []string{"internal/campaign", "internal/learn"} {
		if diags := runOn(t, UnrecoveredGo, dir, src, false); len(diags) != 1 {
			t.Errorf("%s: diags = %v, want one unrecovered-goroutine finding", dir, diags)
		}
	}
}
