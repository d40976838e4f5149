package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqlog/internal/analyze"
	"seqlog/internal/ast"
	"seqlog/internal/eval"
	"seqlog/internal/parser"
)

// TestSameDefectSameWords: an ill-formed program is described in the
// same words, at the same position, by every gate a user can meet —
// parser.ParseProgram's error (the library's Parse), eval.Compile's
// first error diagnostic (seqlog -program, seqlogd load) and the first
// line of seqlog -vet. Before ast.Program.Check was the one definition
// of §2.2, the unsafe and arity rows read "auto-stratification failed:
// 1:1: stratum 1 rule 1 is unsafe: …" on one side and "1:1:
// unbound-head-var: head variable $y …" on the other.
func TestSameDefectSameWords(t *testing.T) {
	cases := []struct {
		name, src, code string
		// compileCode is set where eval.Compile words the defect
		// differently: it always reads strata as written (what seqlogd's
		// load pins in transcript.golden), so a program with no
		// stratification at all reaches it as one stratum negating itself.
		compileCode string
	}{
		{name: "unsafe head var", src: "T($x, $y) :- R($x).\n", code: "unbound-head-var"},
		{name: "negation-only var", src: "S($x) :- R($x), !Q($x, $y).\n", code: "unbound-neg-var"},
		{name: "equation-only var", src: "S($x) :- R($x), $y = $z.a.\n", code: "unbound-var"},
		{name: "arity clash", src: "P(a, b).\nQ($x) :- P($x).\n", code: "arity-mismatch"},
		{name: "unstratified explicit strata", src: "Odd($x) :- Next($x), !Even($x).\n---\nEven($x) :- Next($x), !Odd($x).\n", code: "unstratified-negation"},
		{name: "negation cycle", src: "P($x) :- R($x), !Q($x).\nQ($x) :- R($x), !P($x).\n", code: "negation-cycle", compileCode: "unstratified-negation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			file := filepath.Join(t.TempDir(), "bad.sdl")
			if err := os.WriteFile(file, []byte(tc.src), 0o644); err != nil {
				t.Fatal(err)
			}

			_, parseErr := parser.ParseProgram(tc.src)
			var pe *ast.PosError
			if !errors.As(parseErr, &pe) {
				t.Fatalf("ParseProgram error = %v, want a *ast.PosError", parseErr)
			}

			var out bytes.Buffer
			status, err := runVet(&out, file, "", "")
			if err != nil || status != 1 {
				t.Fatalf("runVet = %d, %v; want status 1", status, err)
			}
			vetLine, _, _ := strings.Cut(out.String(), "\n")
			if want := file + ":" + pe.Pos.String() + ": " + tc.code + ": " + pe.Msg; vetLine != want {
				t.Errorf("-vet's first line and ParseProgram's error differ\n  vet:   %s\n  parse: %s", vetLine, want)
			}

			prog, _, _, err := loadProgram(file, "", "")
			if err != nil {
				t.Fatal(err)
			}
			_, compileErr := eval.Compile(prog)
			var de *analyze.DiagError
			if !errors.As(compileErr, &de) {
				t.Fatalf("Compile error = %v, want a *analyze.DiagError", compileErr)
			}
			first := analyze.Errors(de.Diags)[0]
			if first.Pos != pe.Pos {
				t.Errorf("Compile points at %s, ParseProgram at %s", first.Pos, pe.Pos)
			}
			if tc.compileCode != "" {
				if first.Code != tc.compileCode {
					t.Errorf("Compile's first error is %s, want %s", first.Code, tc.compileCode)
				}
				return
			}
			// What `seqlog -program bad.sdl` prints after "seqlog: " is what
			// -vet prints after the file name.
			cliLine, _, _ := strings.Cut(compileErr.Error(), "\n")
			if cliLine != strings.TrimPrefix(vetLine, file+":") {
				t.Errorf("seqlog -program and -vet differ\n  -program: %s\n  -vet:     %s", cliLine, vetLine)
			}
		})
	}
}
