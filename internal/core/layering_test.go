package core

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCoreImportsOnlyAST pins the package graph: the classification
// reads programs and nothing else, so internal/analyze can name a
// program's class and internal/rewrite can plan against the lattice
// without either closing a cycle through the evaluator.
func TestCoreImportsOnlyAST(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(path, "seqlog/") && path != "seqlog/internal/ast" {
				t.Errorf("%s imports %s; internal/core may import only seqlog/internal/ast", f, path)
			}
		}
	}
}
