package analyze_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"seqlog/internal/analyze"
	"seqlog/internal/ast"
	"seqlog/internal/eval"
	"seqlog/internal/fuzztest"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
)

// firstError returns the first error-severity diagnostic, in the order
// Check reports them.
func firstError(diags []analyze.Diagnostic) (analyze.Diagnostic, bool) {
	if errs := analyze.Errors(diags); len(errs) > 0 {
		return errs[0], true
	}
	return analyze.Diagnostic{}, false
}

// agree asserts that the validating gate (ast.Program.Validate behind
// parser.ParseProgram) and the analyzer accept the same programs and,
// when both refuse, name the same first defect: same position, same
// words.
func agree(t *testing.T, label string, gateErr error, diags []analyze.Diagnostic) {
	t.Helper()
	d, rejected := firstError(diags)
	if (gateErr != nil) != rejected {
		t.Errorf("%s: gates disagree: Validate says %v, analyzer says %v", label, gateErr, diags)
		return
	}
	if gateErr == nil {
		return
	}
	var pe *ast.PosError
	if !errors.As(gateErr, &pe) {
		t.Errorf("%s: gate error %q is not a *ast.PosError", label, gateErr)
		return
	}
	if pe.Pos != d.Pos || pe.Msg != d.Message {
		t.Errorf("%s: first defect differs\n  Validate: %s: %s\n  analyzer: %s: %s", label, pe.Pos, pe.Msg, d.Pos, d.Message)
	}
}

// agreeOnSource runs the gates over program text the way the binaries
// do: parser.ParseProgram on one side, ParseProgramForAnalysis plus
// Check (seqlog -vet) and plus eval.Compile (seqlog -program, seqlogd
// load) on the other. Nobody tells the analyzer whether the strata were
// written or how to name a class; it reads both off the program, so
// when Compile accepts, its Prepared.Diagnostics are exactly the
// non-error diagnostics -vet prints, fragment report and class included.
func agreeOnSource(t *testing.T, label, src string) {
	t.Helper()
	prog, _, err := parser.ParseProgramForAnalysis(src)
	if err != nil {
		t.Fatalf("%s: %v\n%s", label, err, src)
	}
	_, gateErr := parser.ParseProgram(src)
	vetted := analyze.Check(prog, analyze.Options{})
	agree(t, label, gateErr, vetted)
	var compiled []analyze.Diagnostic
	var de *analyze.DiagError
	prep, err := eval.Compile(prog)
	if errors.As(err, &de) {
		compiled = de.Diags
	} else if err != nil {
		t.Errorf("%s: Compile refused without diagnostics: %v", label, err)
	}
	agree(t, label+" (Compile)", gateErr, compiled)
	if prep == nil {
		return
	}
	var lints []analyze.Diagnostic
	for _, d := range vetted {
		if d.Severity != analyze.Error {
			lints = append(lints, d)
		}
	}
	got := prep.Diagnostics()
	if !slices.EqualFunc(got, lints, func(a, b analyze.Diagnostic) bool { return reflect.DeepEqual(a, b) }) {
		t.Errorf("%s: Prepared.Diagnostics differ from the analyzer's\n  Compile: %v\n  Check:   %v", label, got, lints)
	}
	for _, d := range got {
		if d.Code == "fragment" && !strings.Contains(d.Message, "; expressiveness class: {") {
			t.Errorf("%s: fragment report names no expressiveness class: %s", label, d)
		}
	}
}

// goldenPrograms extracts the program texts of
// ../rewrite/testdata/rewrites.golden (sections that carry a
// "# rules=" header; refusals carry no program).
func goldenPrograms(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "rewrite", "testdata", "rewrites.golden"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, section := range strings.Split("\n"+string(raw), "\n== ")[1:] {
		name, body, _ := strings.Cut(section, "\n")
		if strings.HasPrefix(body, "# rules=") {
			out[name] = body
		}
	}
	if len(out) == 0 {
		t.Fatal("no programs in rewrites.golden")
	}
	return out
}

// mutations returns every single-token mutation of the rule that can
// break well-formedness: each body literal dropped, each positive body
// predicate negated, the first head variable renamed to a fresh one.
func mutations(r ast.Rule) []ast.Rule {
	var out []ast.Rule
	for i, l := range r.Body {
		dropped := r.Clone()
		dropped.Body = append(dropped.Body[:i], dropped.Body[i+1:]...)
		out = append(out, dropped)
		if _, isPred := l.Atom.(ast.Pred); isPred && !l.Neg {
			negated := r.Clone()
			negated.Body[i].Neg = true
			out = append(out, negated)
		}
	}
	for _, a := range r.Head.Args {
		if vs := a.Vars(); len(vs) > 0 {
			fresh := ast.Var{Name: "fresh", Atomic: vs[0].Atomic}
			renamed := r.Clone()
			renamed.Head = r.ApplySubst(ast.Subst{vs[0]: ast.Expr{ast.VarT{V: fresh}}}).Head
			out = append(out, renamed)
			break
		}
	}
	return out
}

// TestGatesAgree is the "one definition of §2.2" check: over the
// analyzer fixtures, every paper query, every rewrite output in
// rewrites.golden and 500 seeded fuzz programs with their single-token
// mutations, Validate() == nil iff the analyzer reports no error, and
// when both refuse they point at the same position with the same
// message; when they accept, Compile and -vet report the same lints
// and the same named class.
func TestGatesAgree(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.sdl"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("fixtures: %v (%d found)", err, len(fixtures))
	}
	for _, f := range fixtures {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		agreeOnSource(t, f, string(src))
	}

	// A negation cycle in a source without "---": nobody wrote the one
	// stratum it is parsed into, so no gate may blame the strata.
	agreeOnSource(t, "negation cycle, no written strata", "T :- !T2.\nT2 :- !T.\n")

	for _, q := range queries.All() {
		agree(t, q.Name, q.Program.Validate(), analyze.Check(q.Program, analyze.Options{}))
		agreeOnSource(t, q.Name+" (source)", q.Program.String())
	}

	for name, src := range goldenPrograms(t) {
		agreeOnSource(t, "rewrites.golden "+name, src)
	}

	seen := map[string]bool{}
	rejected := 0
	for seed := int64(0); seed < 500; seed++ {
		src := fuzztest.GenScenario(rand.New(rand.NewSource(seed))).Src
		if seen[src] {
			continue
		}
		seen[src] = true
		agreeOnSource(t, fmt.Sprintf("seed %d", seed), src)
		lines := strings.Split(strings.TrimSuffix(src, "\n"), "\n")
		for li, line := range lines {
			rules, err := parser.ParseRules(line)
			if err != nil {
				t.Fatalf("seed %d line %d: %v", seed, li+1, err)
			}
			if len(rules) != 1 {
				continue // a "---" separator
			}
			for mi, m := range mutations(rules[0]) {
				mutated := append([]string{}, lines...)
				mutated[li] = m.String()
				msrc := strings.Join(mutated, "\n") + "\n"
				if seen[msrc] {
					continue
				}
				seen[msrc] = true
				if _, err := parser.ParseProgram(msrc); err != nil {
					rejected++
				}
				agreeOnSource(t, fmt.Sprintf("seed %d line %d mutation %d", seed, li+1, mi), msrc)
			}
		}
	}
	// The mutations must actually produce ill-formed programs, or the
	// agreement above is vacuous.
	if rejected < 50 {
		t.Errorf("only %d mutated programs were rejected; the mutation set lost its teeth", rejected)
	}
}
