package analyzers

import (
	"go/ast"
	"strings"
)

// UnrecoveredGo enforces panic isolation in the long-lived server and
// worker-pool packages: a panic inside a bare `go func(){...}()` crashes
// the whole process — there is no enclosing request handler to recover
// it — so every goroutine launched in those packages must install its
// own deferred recover() (or delegate to a Recover* helper) as its first
// line of defence. Batch CLIs may legitimately crash on a bug; a daemon
// absorbing untrusted traffic may not.
var UnrecoveredGo = &Analyzer{
	Name: "unrecoveredgo",
	Doc: "goroutines in server and worker-pool packages must start with a " +
		"deferred recover() boundary: a panic in a bare `go func(){...}()` " +
		"has no request-scoped handler above it and kills the process, so " +
		"each launched goroutine must contain its own isolation.",
	AppliesTo: func(pkgDir string) bool {
		switch pkgDir {
		case "internal/serve", "internal/serve/client",
			"internal/lts", "internal/campaign", "internal/faultcampaign",
			"internal/conformance", "internal/learn",
			"cmd/fdrserve", "cmd/serveload":
			return true
		}
		return false
	},
	Run: runUnrecoveredGo,
}

func runUnrecoveredGo(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				// `go method()` launches named code; the convention is
				// enforced where the body is written, and helpers invoked
				// this way are expected to carry their own boundary.
				return true
			}
			if !hasRecoverBoundary(lit.Body) {
				p.Reportf(g.Pos(),
					"goroutine function literal lacks a deferred recover() boundary")
			}
			return true
		})
	}
}

// hasRecoverBoundary reports whether the goroutine body installs panic
// isolation among its top-level defers: a deferred literal calling
// recover(), a deferred Recover* helper, or a deferred method whose
// name signals recovery handling.
func hasRecoverBoundary(body *ast.BlockStmt) bool {
	if hasRecoverDefer(body) {
		return true
	}
	for _, s := range body.List {
		d, ok := s.(*ast.DeferStmt)
		if !ok {
			continue
		}
		if strings.Contains(strings.ToLower(calleeName(d.Call.Fun)), "recover") {
			return true
		}
	}
	return false
}
