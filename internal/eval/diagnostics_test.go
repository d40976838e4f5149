package eval

import (
	"errors"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqlog/internal/analyze"
	"seqlog/internal/ast"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
)

// TestCompileRejectsWithStructuredDiagnostics: an unsafe program must
// be rejected by Compile with a *analyze.DiagError whose diagnostics
// carry real source positions — not an opaque string.
func TestCompileRejectsWithStructuredDiagnostics(t *testing.T) {
	prog, _, err := parser.ParseProgramForAnalysis("S($y.a) :- R($x).\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Compile(prog)
	if err == nil {
		t.Fatal("Compile accepted an unsafe program")
	}
	var de *analyze.DiagError
	if !errors.As(err, &de) {
		t.Fatalf("Compile error is %T, want *analyze.DiagError: %v", err, err)
	}
	errs := analyze.Errors(de.Diags)
	if len(errs) != 1 {
		t.Fatalf("got %d error diagnostics, want 1: %v", len(errs), de.Diags)
	}
	d := errs[0]
	if d.Code != "unbound-head-var" {
		t.Errorf("code = %q, want unbound-head-var", d.Code)
	}
	if d.Pos.Line != 1 || d.Pos.Col != 1 {
		t.Errorf("pos = %d:%d, want 1:1", d.Pos.Line, d.Pos.Col)
	}
	if !strings.Contains(err.Error(), "unbound-head-var") {
		t.Errorf("err.Error() = %q, want it to mention the code", err)
	}
}

// TestCompileRejectsUnstratifiedExplicitStrata: explicit strata that
// negate a later stratum are rejected with unstratified-negation.
func TestCompileRejectsUnstratifiedExplicitStrata(t *testing.T) {
	prog, _, err := parser.ParseProgramForAnalysis(
		"Odd($x) :- Next($x), !Even($x).\n---\nEven($x) :- Next($x).\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Strata) != 2 {
		t.Fatalf("expected the two written strata, got %d", len(prog.Strata))
	}
	_, err = Compile(prog)
	var de *analyze.DiagError
	if !errors.As(err, &de) {
		t.Fatalf("Compile error is %T, want *analyze.DiagError: %v", err, err)
	}
	if errs := analyze.Errors(de.Diags); len(errs) != 1 || errs[0].Code != "unstratified-negation" {
		t.Fatalf("diagnostics = %v, want one unstratified-negation", de.Diags)
	}
}

// TestPreparedCarriesWarnings: a program that compiles fine but trips
// lints surfaces them through Prepared.Diagnostics, and the warnings
// do not disturb evaluation.
func TestPreparedCarriesWarnings(t *testing.T) {
	prog, _, err := parser.ParseProgramForAnalysis(
		"Pair($x, $y) :- Left($x), Right($y).\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prep, err := Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	codes := map[string]int{}
	for _, d := range prep.Diagnostics() {
		if d.Severity == analyze.Error {
			t.Errorf("Diagnostics() carries an error: %s", d)
		}
		codes[d.Code]++
	}
	// The cross product shares no variables, so whichever side the
	// delta arrives on, the other is a full scan — exactly what the
	// perf pass is for — and the fragment info is always reported.
	if codes["full-scan-delta"] == 0 {
		t.Errorf("cross product drew no full-scan-delta warning; got %v", codes)
	}
	if codes["fragment"] != 1 {
		t.Errorf("fragment info count = %d, want 1; got %v", codes["fragment"], codes)
	}

	out, err := prep.Eval(parser.MustParseInstance("Left(a). Left(b). Right(c)."), Limits{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if got := out.Relation("Pair").Len(); got != 2 {
		t.Errorf("|Pair| = %d, want 2", got)
	}
}

// TestUnaryTCNotFlagged: the unary encoding of transitive closure used
// to draw full-scan-delta — under a delta on E the recursive T atom
// has no bound column and no ground prefix. With suffix indexes the
// planner serves that join through a ground-suffix probe on @y, so the
// lint must stay quiet (it mirrors the planner's real access paths).
func TestUnaryTCNotFlagged(t *testing.T) {
	prog, _, err := parser.ParseProgramForAnalysis(
		"T(@x.@z) :- T(@x.@y), E(@y.@z).\nT(@x.@y) :- E(@x.@y).\n")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prep, err := Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	for _, d := range prep.Diagnostics() {
		if d.Code == "full-scan-delta" {
			t.Errorf("unary TC drew full-scan-delta despite the suffix probe: %s", d)
		}
	}
}

// TestPreparedDiagnosticsIsACopy: mutating the returned slice must not
// corrupt the Prepared's own record.
func TestPreparedDiagnosticsIsACopy(t *testing.T) {
	prog, _, err := parser.ParseProgramForAnalysis("S($x) :- R($x).\n")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	first := prep.Diagnostics()
	if len(first) == 0 {
		t.Fatal("expected at least the fragment info diagnostic")
	}
	first[0].Code = "clobbered"
	if again := prep.Diagnostics(); again[0].Code == "clobbered" {
		t.Error("Diagnostics() aliases internal state")
	}
}

// TestPerfLintAgreesWithPlanner: the performance lint and the planner
// are the same code (ast.Rule.DeltaVariants, ast.JoinOrder,
// ast.Pred.Access on the probe form), so they must agree rule by rule:
// a predicate of arity > 0 is reported full-scan-delta under ΔR (Δ!R)
// iff the rule's ΔR (Δ!R) variant line of Prepared.Explain marks it
// [scan]. Checked on every built-in query and every analyzer fixture
// that compiles.
func TestPerfLintAgreesWithPlanner(t *testing.T) {
	programs := map[string]ast.Program{}
	for _, q := range queries.All() {
		programs[q.Name] = q.Program
	}
	fixtures, err := filepath.Glob("../analyze/testdata/*.sdl")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no analyzer fixtures: %v", err)
	}
	for _, f := range fixtures {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if prog, _, err := parser.ParseProgramForAnalysis(string(src)); err == nil {
			programs[filepath.Base(f)] = prog
		}
	}
	scans := 0
	for name, prog := range programs {
		prep, err := Compile(prog)
		if err != nil {
			continue // rejected programs have no plans to compare
		}
		for _, c := range prep.comps {
			for _, pl := range c.plans {
				lint := map[string]bool{}
				for _, d := range analyze.Check(ast.NewProgram(pl.rule), analyze.Options{}) {
					if d.Code != "full-scan-delta" {
						continue
					}
					pred, rest, _ := strings.Cut(d.Message, " is joined by a full scan when maintenance is driven by ")
					deltas, _, _ := strings.Cut(rest, ":")
					for _, delta := range strings.Split(deltas, ", ") {
						lint[pred+" under "+delta] = true
					}
				}
				planner := map[string]bool{}
				for _, v := range pl.variants {
					delta := "Δ" + v.steps[0].pred.Name
					if v.neg {
						delta = "Δ!" + v.steps[0].pred.Name
					}
					line := v.describe() // the text after "ΔR:" or "Δ!R:" in Explain
					for _, i := range v.predSteps[1:] {
						pr := v.steps[i].pred
						if len(pr.Args) > 0 && strings.Contains(line, pr.String()+" [scan]") {
							planner[pr.Name+" under "+delta] = true
						}
					}
				}
				scans += len(planner)
				if !maps.Equal(lint, planner) {
					t.Errorf("%s: %s\n  lint reports %v\n  planner scans %v", name, pl.rule, lint, planner)
				}
			}
		}
	}
	if scans == 0 {
		t.Fatal("no full-scan-delta case among the programs: the comparison is vacuous")
	}
}
