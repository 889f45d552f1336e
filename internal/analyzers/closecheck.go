package analyzers

import (
	"go/ast"
	"strconv"
)

// CloseCheck enforces durable-write hygiene in the persistence paths:
// for a writable *os.File (os.Create / os.OpenFile / os.CreateTemp),
// the error from Close or Sync is the only notification the kernel
// gives that buffered bytes did not reach the disk. Checkpoints and
// durable job records are exactly the files the resume paths trust
// after a SIGKILL, so silently discarding that error turns a
// failed write into a corrupt recovery. A bare `f.Close()` statement or
// `defer f.Close()` drops the error; `_ = f.Close()` is the explicit
// opt-out for cleanup paths where the write error has already been
// reported.
var CloseCheck = &Analyzer{
	Name: "closecheck",
	Doc: "Close/Sync errors on writable *os.File values must be checked in " +
		"persistence packages: they are the only signal that a checkpoint " +
		"or job record did not reach the disk. Discard " +
		"explicitly with `_ = f.Close()` only on cleanup paths whose write " +
		"error is already reported.",
	AppliesTo: func(pkgDir string) bool {
		switch pkgDir {
		case "internal/statestore", "internal/lts", "internal/serve",
			"internal/obs", "cmd/fdrserve":
			return true
		}
		return false
	},
	Run: runCloseCheck,
}

// writableOpenFuncs are the os package functions returning a *os.File
// opened for writing. os.Open is read-only and deliberately absent: a
// dropped Close error on a read handle loses nothing durable.
var writableOpenFuncs = map[string]bool{
	"Create": true, "CreateTemp": true, "OpenFile": true,
}

func runCloseCheck(p *Pass) {
	for _, f := range p.Files {
		osName, ok := osPkgName(f)
		if !ok {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkCloseInBody(p, fn.Body, osName)
		}
	}
}

// checkCloseInBody runs the pass over one function body. The walk spans
// nested function literals too, so a file opened in the function and
// closed inside a closure (the cleanup-func idiom) is still tracked.
func checkCloseInBody(p *Pass, body *ast.BlockStmt, osName string) {
	files := writableFileIdents(body, osName)
	if len(files) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if name, meth, ok := closeOrSyncOn(s.X, files); ok {
				p.Reportf(s.Pos(),
					"error from %s.%s() on a writable file is silently discarded; check it, or make the discard explicit with `_ = %s.%s()`",
					name, meth, name, meth)
			}
		case *ast.DeferStmt:
			if name, meth, ok := closeOrSyncOn(s.Call, files); ok {
				p.Reportf(s.Pos(),
					"deferred %s.%s() drops the write error; check Close explicitly on the success path and use `defer func() { _ = %s.%s() }()` for cleanup",
					name, meth, name, meth)
			}
		}
		return true
	})
}

// writableFileIdents collects the names assigned from a writable os
// open call anywhere in the body (including inside nested literals).
// The pass is purely syntactic — no go/types — so tracking is by name
// within one top-level function; re-binding the name to something else
// later in the body is not modelled, which is acceptable for the short
// open-write-close functions the persistence packages contain.
func writableFileIdents(body *ast.BlockStmt, osName string) map[string]bool {
	files := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isWritableOpen(call, osName) {
				continue
			}
			// Either f, err := os.Create(...) (one call, two results) or a
			// parallel assignment; the file is the LHS slot matching the call.
			li := 0
			if len(as.Lhs) == len(as.Rhs) {
				li = i
			}
			if li >= len(as.Lhs) {
				continue
			}
			if id, ok := as.Lhs[li].(*ast.Ident); ok && id.Name != "_" {
				files[id.Name] = true
			}
		}
		return true
	})
	return files
}

// isWritableOpen reports whether call is os.Create / os.CreateTemp /
// os.OpenFile under the file's local name for the os import.
func isWritableOpen(call *ast.CallExpr, osName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == osName && writableOpenFuncs[sel.Sel.Name]
}

// closeOrSyncOn reports whether expr is `f.Close()` or `f.Sync()` for a
// tracked file ident f, returning the ident and method names.
func closeOrSyncOn(expr ast.Expr, files map[string]bool) (name, meth string, ok bool) {
	call, isCall := expr.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || (sel.Sel.Name != "Close" && sel.Sel.Name != "Sync") {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent || !files[id.Name] {
		return "", "", false
	}
	return id.Name, sel.Sel.Name, true
}

// osPkgName returns the local name under which the file imports the os
// package, and whether it imports it at all.
func osPkgName(f *ast.File) (string, bool) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != "os" {
			continue
		}
		if imp.Name == nil {
			return "os", true
		}
		if imp.Name.Name == "_" || imp.Name.Name == "." {
			return "", false
		}
		return imp.Name.Name, true
	}
	return "", false
}
