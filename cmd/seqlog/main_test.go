package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
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
	cases := []struct{ name, src, code string }{
		{name: "unsafe head var", src: "T($x, $y) :- R($x).\n", code: "unbound-head-var"},
		{name: "negation-only var", src: "S($x) :- R($x), !Q($x, $y).\n", code: "unbound-neg-var"},
		{name: "equation-only var", src: "S($x) :- R($x), $y = $z.a.\n", code: "unbound-var"},
		{name: "arity clash", src: "P(a, b).\nQ($x) :- P($x).\n", code: "arity-mismatch"},
		{name: "unstratified explicit strata", src: "Odd($x) :- Next($x), !Even($x).\n---\nEven($x) :- Next($x), !Odd($x).\n", code: "unstratified-negation"},
		{name: "negation cycle", src: "P($x) :- R($x), !Q($x).\nQ($x) :- R($x), !P($x).\n", code: "negation-cycle"},
		{name: "head in two strata", src: "H($x) :- A($x).\n---\nH($x) :- B($x).\n", code: "stratum-order"},
		{name: "read before defined", src: "P($x) :- H($x).\n---\nH($x) :- A($x).\n", code: "stratum-order"},
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
			if err := runVet(&out, file, "", ""); err != exit(1) {
				t.Fatalf("runVet = %v; want exit status 1", err)
			}
			vetLine, _, _ := strings.Cut(out.String(), "\n")
			if want := file + ":" + pe.Pos.String() + ": " + tc.code + ": " + pe.Msg; vetLine != want {
				t.Errorf("-vet's first line and ParseProgram's error differ\n  vet:   %s\n  parse: %s", vetLine, want)
			}

			prog, _, err := loadProgram(file, "", "")
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
			// What `seqlog -program bad.sdl` prints after "seqlog: " is what
			// -vet prints after the file name.
			cliLine, _, _ := strings.Cut(compileErr.Error(), "\n")
			if cliLine != strings.TrimPrefix(vetLine, file+":") {
				t.Errorf("seqlog -program and -vet differ\n  -program: %s\n  -vet:     %s", cliLine, vetLine)
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/cli.golden from the current commands' output")

// TestCLIGolden drives every usage line of the package doc's frag, ra
// and unify groups, one error case and one usage case each, and the
// evaluator's flag path, in process, and compares stdout, stderr and
// the exit status with testdata/cli.golden. The golden was recorded
// from the three separate binaries these subcommands replaced (and
// from the evaluator before run existed); only the command name on
// their stderr lines was rewritten, and the edge lines of
// `frag -lattice -dot` were put in class order, because the old binary
// printed them in a map's order, differently on every run. Regenerate
// with `go test ./cmd/seqlog -run TestCLIGolden -update` only when an
// output is meant to change.
func TestCLIGolden(t *testing.T) {
	rows := [][]string{
		{"frag", "-lattice"},
		{"frag", "-lattice", "-dot"},
		{"frag", "-subsumes", "EI,NR"},
		{"frag", "-features", "testdata/onlyas.sdl"},
		{"frag", "-rewrite", "AIR", "-output", "S", "-features", "testdata/onlyas.sdl"},
		{"frag", "-subsumes", "EI,XZ"},
		{"ra", "-program", "testdata/join.sdl", "-output", "S"},
		{"ra", "-program", "testdata/join.sdl", "-output", "S", "-data", "testdata/join-facts.sdl"},
		{"ra", "-program", "testdata/join.sdl", "-output", "S", "-normal"},
		{"ra", "-program", "testdata/onlyas.sdl", "-output", "S", "-normal"},
		{"ra", "-program", "testdata/tc.sdl", "-output", "T"},
		{"ra"},
		{"unify", "$x.<@y.$z>.@w = $u.$v.$u"},
		{"unify", "-empty", "$x.$y = a.b"},
		{"unify", "-dot", "$x.a = a.$x"},
		{"unify", "$x.a"},
		{"unify"},
		{"-program", "testdata/tc.sdl", "-data", "testdata/tc-facts.sdl", "-output", "T"},
		{"-program", "testdata/tc.sdl", "-data", "testdata/tc-facts.sdl"},
		// One defect, the same words at both gates: nobody wrote strata.
		{"-vet", "-program", "testdata/negcycle.sdl"},
		{"-program", "testdata/negcycle.sdl"},
		// A relation defined in two written strata: refused, naming both.
		{"-vet", "-program", "testdata/stratum-order.sdl"},
		// What examples/README.md runs in place of two example mains.
		{"-query", "nfa-accept", "-data", "../../examples/nfa/facts.sdl"},
		{"-query", "process-mining", "-data", "../../examples/processmining/facts.sdl"},
	}
	var blocks []string
	for _, args := range rows {
		title := "$ seqlog"
		for _, a := range args {
			if strings.ContainsAny(a, " $") {
				a = "'" + a + "'"
			}
			title += " " + a
		}
		var stdout, stderr strings.Builder
		status := run(args, &stdout, &stderr)
		blocks = append(blocks, fmt.Sprintf("%s\n--- stdout\n%s--- stderr\n%s--- exit %d\n", title, &stdout, &stderr, status))
	}
	const file = "testdata/cli.golden"
	if *update {
		if err := os.WriteFile(file, []byte(strings.Join(blocks, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	// The golden is the blocks in table order; name the first that is not there.
	rest := string(want)
	for _, b := range blocks {
		if !strings.HasPrefix(rest, b) {
			t.Fatalf("%s does not continue with this block:\n%s", file, b)
		}
		rest = rest[len(b):]
	}
	if rest != "" {
		t.Fatalf("%s holds more than the table produces:\n%s", file, rest)
	}
}

// TestNegativeMaxFactsIsUsageError: a negative -max-facts is refused
// when the flags are parsed, with exit status 2 and the wording seqlogd
// shares (eval.Limits.SetMaxFacts) — let through, it fails every
// evaluation with "more than -1 derived facts".
func TestNegativeMaxFactsIsUsageError(t *testing.T) {
	var stdout, stderr strings.Builder
	status := run([]string{"-program", "testdata/tc.sdl", "-data", "testdata/tc-facts.sdl", "-max-facts", "-1"}, &stdout, &stderr)
	want := `invalid value "-1" for flag -max-facts: ` + new(eval.Limits).SetMaxFacts("-1").Error() + "\n"
	if status != 2 || stdout.Len() != 0 || !strings.HasPrefix(stderr.String(), want) {
		t.Errorf("status %d, stdout %q, stderr %q; want status 2, no output and stderr starting %q", status, &stdout, &stderr, want)
	}
	if status := run([]string{"-program", "testdata/tc.sdl", "-max-facts", "0"}, &stdout, &stderr); status != 0 {
		t.Errorf("-max-facts 0 (the default) exits %d", status)
	}
}
