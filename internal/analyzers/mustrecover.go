package analyzers

import (
	"go/ast"
	"strings"
)

// MustRecover enforces the repo's panic-boundary convention in command
// binaries: the Must* construction helpers (csp.MustDefine,
// csp.MustChannel, ...) panic with a typed error that is only converted
// back into an ordinary error by a deferred Recover* helper
// (csp.RecoverBuild). A cmd/ function that calls Must* without such a
// boundary anywhere on the synchronous call path turns a model-build
// failure into a bare stack trace for the user, so every Must* call
// site there must be guarded.
var MustRecover = &Analyzer{
	Name: "mustrecover",
	Doc: "Must* construction helpers panic with a typed error; in cmd/ " +
		"binaries every function calling one must install a deferred " +
		"Recover* boundary (e.g. `defer csp.RecoverBuild(&err)`) so a " +
		"failed model build exits as an error, not a stack trace.",
	AppliesTo: func(pkgDir string) bool {
		return pkgDir == "cmd" || strings.HasPrefix(pkgDir, "cmd/")
	},
	Run: runMustRecover,
}

func runMustRecover(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMustScope(p, fn.Body, hasRecoverDefer(fn.Body))
		}
	}
}

// checkMustScope walks one function body. A nested function literal is
// a new scope that inherits the guard: a panic raised inside it still
// unwinds through the enclosing (synchronous) caller's defers.
func checkMustScope(p *Pass, body *ast.BlockStmt, guarded bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			checkMustScope(p, x.Body, guarded || hasRecoverDefer(x.Body))
			return false
		case *ast.CallExpr:
			name := calleeName(x.Fun)
			if strings.HasPrefix(name, "Must") && !guarded {
				p.Reportf(x.Pos(),
					"%s call is not guarded by a deferred Recover* boundary in this function", name)
			}
		}
		return true
	})
}

// hasRecoverDefer reports whether the body directly installs a recovery
// boundary: either `defer <pkg>.Recover*(...)` or a deferred function
// literal that calls recover().
func hasRecoverDefer(body *ast.BlockStmt) bool {
	for _, s := range body.List {
		d, ok := s.(*ast.DeferStmt)
		if !ok {
			continue
		}
		if strings.HasPrefix(calleeName(d.Call.Fun), "Recover") {
			return true
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok && callsRecover(lit.Body) {
			return true
		}
	}
	return false
}

func callsRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "recover" {
				found = true
			}
		}
		return !found
	})
	return found
}

// calleeName extracts the bare function or method name of a call
// target: `Must`, `csp.MustChannel` and `ctx.MustDefine` all resolve to
// their final identifier.
func calleeName(fun ast.Expr) string {
	switch x := fun.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}
