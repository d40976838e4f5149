// Command seqlint enforces engine invariants across this repository's
// own Go sources — the go/analysis-style companion to the Sequence
// Datalog analyzer in internal/analyze, but aimed at the Go code. It
// is built on the standard library alone (go/parser + go/ast) so it
// runs in hermetic environments without golang.org/x/tools; packaging
// the same checks as a `go vet -vettool` plugin is gated on that
// dependency being available.
//
// Checks:
//
//   - tombstone-view: a probe under an instance.View with Dead set
//     returns tombstoned (deleted) positions too. The only legal place
//     to set it outside package instance is the DRed overdeletion path
//     (stepView in internal/eval/run.go), which needs the pre-deletion
//     view of a relation; anywhere else the dead rows silently corrupt
//     results. A Dead key in a View composite literal and an assignment
//     to a .Dead field are both flagged.
//   - write-barrier: mutating a relation fetched with Instance.
//     Relation (inst.Relation("T").Add(...)) bypasses the Ensure
//     write barrier, panicking on frozen (snapshot-shared) relations
//     or, worse, mutating a shared snapshot. Writes must go through
//     Instance.Add / Instance.Delete / Ensure.
//   - package-knob: an exported package-level var of type bool (declared
//     bool, or initialised with a true/false literal) in a non-test file
//     under internal/ or cmd/ is a process-wide switch: it selects a
//     second code path every test and benchmark then has to cover, any
//     importer can flip it under a running engine, and tests that do
//     cannot run in parallel. Use an option on the call or a constant.
//   - analyze-redefines: well-formedness (§2.2) is defined once, by
//     ast.Program.Check; internal/analyze only turns its violations
//     into diagnostics. A function there that ranges over a program's
//     Strata or Rules and builds a map[string]int arity table or a
//     []map[string]bool per-stratum head set is a second definition in
//     the making — the two shapes safety.go once mirrored — and drifts
//     from the first in wording and position.
//
// Usage:
//
//	seqlint [dir]    lint all Go files under dir (default ".")
//
// Findings print as "file:line:col: message"; the exit status is 1
// when any finding is reported.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	findings, err := lintTree(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqlint:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// lintTree parses every Go file under root (skipping testdata and
// hidden directories) and returns the findings, sorted by position.
func lintTree(root string) ([]string, error) {
	var findings []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (len(name) > 1 && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		findings = append(findings, lintFile(fset, file, filepath.ToSlash(rel))...)
		return nil
	})
	return findings, err
}

// tombstoneViewAllowed reports whether a file may set View.Dead:
// package instance (definition, internal use, and its tests) and the
// DRed overdeletion path in eval.
func tombstoneViewAllowed(relPath string) bool {
	return strings.HasPrefix(relPath, "internal/instance/") ||
		relPath == "internal/eval/run.go"
}

// writeBarrierAllowed reports whether a file may mutate relations
// directly: only package instance itself, where the write barrier is
// implemented and direct writes are the subject under test.
func writeBarrierAllowed(relPath string) bool {
	return strings.HasPrefix(relPath, "internal/instance/")
}

// packageKnobChecked reports whether a file's package-level vars are
// subject to the package-knob rule: shipped code, not tests.
func packageKnobChecked(relPath string) bool {
	return (strings.HasPrefix(relPath, "internal/") || strings.HasPrefix(relPath, "cmd/")) &&
		!strings.HasSuffix(relPath, "_test.go")
}

// mutators are the Relation methods that change tuple storage, the
// derivation stamps (Rebirth) included.
var mutators = map[string]bool{
	"Add": true, "AddHashed": true, "Delete": true, "DeleteHashed": true,
	"Put": true, "Compact": true, "Rebirth": true,
}

// lintFile walks one parsed file and reports invariant violations.
func lintFile(fset *token.FileSet, file *ast.File, relPath string) []string {
	var findings []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d:%d: %s", relPath, p.Line, p.Column, fmt.Sprintf(format, args...)))
	}
	if packageKnobChecked(relPath) {
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					isBool := isIdent(vs.Type, "bool") ||
						i < len(vs.Values) && (isIdent(vs.Values[i], "true") || isIdent(vs.Values[i], "false"))
					if isBool && name.IsExported() {
						report(name.Pos(), "exported package-level bool %s is a process-wide switch selecting a second code path; use an option on the call or a constant", name.Name)
					}
				}
			}
		}
	}
	if strings.HasPrefix(relPath, "internal/analyze/") && !strings.HasSuffix(relPath, "_test.go") {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if table := redefinesWellFormedness(fn.Body); table != "" {
					report(fn.Name.Pos(), "%s walks the program's rules and builds a %s: arity and stratum-order checks are defined once, in ast.Program.Check; report its violations instead of recomputing them", fn.Name.Name, table)
				}
			}
		}
	}
	deadOK := tombstoneViewAllowed(relPath)
	const deadMsg = "View.Dead admits tombstoned positions and is reserved for the DRed overdeletion path (internal/eval/run.go); probe under a live view"
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok && !deadOK && isIdent(n.Type, "View") && isIdent(kv.Key, "Dead") {
					report(kv.Key.Pos(), deadMsg)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && !deadOK && sel.Sel.Name == "Dead" {
					report(sel.Sel.Pos(), deadMsg)
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if ok && mutators[sel.Sel.Name] && !writeBarrierAllowed(relPath) && isRelationFetch(sel.X) {
				report(sel.Sel.Pos(), "direct %s on Instance.Relation(...) bypasses the Ensure write barrier; route the write through Instance.Add/Delete or Ensure", sel.Sel.Name)
			}
		}
		return true
	})
	return findings
}

// redefinesWellFormedness returns the type of the table a function
// body builds (by literal or make) when the body also ranges over
// something's Strata or Rules, "" otherwise: map[string]int is an
// arity table, []map[string]bool the heads of each stratum and later.
func redefinesWellFormedness(body *ast.BlockStmt) string {
	ranges, table := false, ""
	note := func(typ ast.Expr) {
		if typ == nil {
			return
		}
		if s := types.ExprString(typ); s == "map[string]int" || s == "[]map[string]bool" {
			table = s
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			x := n.X
			if ix, ok := x.(*ast.IndexExpr); ok {
				x = ix.X
			}
			if sel, ok := x.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Strata" || sel.Sel.Name == "Rules") {
				ranges = true
			}
		case *ast.CompositeLit:
			note(n.Type)
		case *ast.CallExpr:
			if isIdent(n.Fun, "make") && len(n.Args) > 0 {
				note(n.Args[0])
			}
		}
		return true
	})
	if !ranges {
		return ""
	}
	return table
}

// isIdent reports whether x is the identifier name, bare or
// package-qualified (View, instance.View).
func isIdent(x ast.Expr, name string) bool {
	if sel, ok := x.(*ast.SelectorExpr); ok {
		x = sel.Sel
	}
	id, ok := x.(*ast.Ident)
	return ok && id.Name == name
}

// isRelationFetch matches an expression of the shape
// <anything>.Relation(...) — a relation handle fetched straight from
// an instance, with no write barrier in between.
func isRelationFetch(x ast.Expr) bool {
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Relation"
}
