package rewrite_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqlog/internal/algebra"
	"seqlog/internal/ast"
	"seqlog/internal/queries"
	"seqlog/internal/rewrite"
)

var update = flag.Bool("update", false, "rewrite testdata/rewrites.golden from the current rewrites' output")

// goldenRewrites are the program transformations rewrites.golden pins,
// in the order their sections appear per query. Source is the query
// itself: the baseline the blow-up figures are read against.
var goldenRewrites = []struct {
	name string
	run  func(p ast.Program, output string) (ast.Program, error)
}{
	{"Source", func(p ast.Program, _ string) (ast.Program, error) { return p, nil }},
	{"EliminateArity", func(p ast.Program, _ string) (ast.Program, error) {
		return rewrite.EliminateArity(p, rewrite.DefaultArityMarkers)
	}},
	{"EliminatePositiveEquations", func(p ast.Program, _ string) (ast.Program, error) {
		return rewrite.EliminatePositiveEquations(p)
	}},
	{"EliminateNegatedEquations", func(p ast.Program, _ string) (ast.Program, error) {
		return rewrite.EliminateNegatedEquations(p)
	}},
	{"EliminateIntermediates", rewrite.EliminateIntermediates},
	{"EliminatePackingNonrecursive", rewrite.EliminatePackingNonrecursive},
	{"SimulatePackingDoubled", func(p ast.Program, output string) (ast.Program, error) {
		return rewrite.SimulatePackingDoubled(p, output, rewrite.DefaultDoubleMarkers)
	}},
	{"ToClassical", func(p ast.Program, _ string) (ast.Program, error) { return rewrite.ToClassical(p) }},
	{"PruneUnreachable", func(p ast.Program, output string) (ast.Program, error) {
		return rewrite.PruneUnreachable(p, output), nil
	}},
	{"NormalForm", func(p ast.Program, _ string) (ast.Program, error) { return algebra.NormalForm(p) }},
}

// countTerms counts the terms of an expression, packing included and
// descended into — by plain recursion, independent of ast's walkers.
func countTerms(e ast.Expr) int {
	n := 0
	for _, t := range e {
		n++
		if p, ok := t.(ast.Pack); ok {
			n += countTerms(p.E)
		}
	}
	return n
}

// programSize is the "# rules=N terms=M" figure: the static blow-up a
// rewrite causes (docs/analysis.md tabulates it per paper query).
func programSize(p ast.Program) (rules, terms int) {
	for _, r := range p.Rules() {
		rules++
		for _, a := range r.Head.Args {
			terms += countTerms(a)
		}
		for _, l := range r.Body {
			switch x := l.Atom.(type) {
			case ast.Pred:
				for _, a := range x.Args {
					terms += countTerms(a)
				}
			case ast.Eq:
				terms += countTerms(x.L) + countTerms(x.R)
			}
		}
	}
	return rules, terms
}

// TestRewritesGolden pins the text of every rewrite's output on every
// paper query — or the message it refuses the query with — so that a
// refactoring of the rewrites' plumbing is provably behaviour-neutral:
// same rules, same fresh names, same argument order. Each section is
//
//	== <query> <rewrite>
//	# rules=N terms=M
//	<program text>
//
// or "refused: <message>" in place of the last two. Regenerate with
// `go test ./internal/rewrite -run TestRewritesGolden -update` only when
// a rewrite's output is meant to change.
func TestRewritesGolden(t *testing.T) {
	var b strings.Builder
	for _, q := range queries.All() {
		for _, rw := range goldenRewrites {
			fmt.Fprintf(&b, "== %s %s\n", q.Name, rw.name)
			out, err := rw.run(q.Program, q.Output)
			if err != nil {
				fmt.Fprintf(&b, "refused: %v\n", err)
				continue
			}
			rules, terms := programSize(out)
			fmt.Fprintf(&b, "# rules=%d terms=%d\n%s", rules, terms, out)
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "rewrites.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("rewrite output changed; first differing line:\n%s", firstDiff(got, string(want)))
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	section := ""
	for i := 0; i < len(g) && i < len(w); i++ {
		if strings.HasPrefix(w[i], "== ") {
			section = w[i]
		}
		if g[i] != w[i] {
			return fmt.Sprintf("%s (line %d)\n got: %s\nwant: %s", section, i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}

// positioned counts the rule heads that still point at source text.
func positioned(p ast.Program) int {
	n := 0
	for _, r := range p.Rules() {
		if r.Head.Pos.IsValid() {
			n++
		}
	}
	return n
}

// TestRewritesKeepPositions: a rule that a rewrite carries over — with
// its predicates re-encoded — keeps pointing at the source that
// produced it, so a diagnostic computed on the rewritten program lands
// on a line and not on "-". (The arity encoding, the doubling block
// code and the normal form's substitution used to rebuild predicates
// from scratch and drop Pos.)
func TestRewritesKeepPositions(t *testing.T) {
	for _, q := range queries.All() {
		rules := len(q.Program.Rules())
		if got := positioned(q.Program); got != rules {
			t.Fatalf("%s: only %d of %d source rules carry a position", q.Name, got, rules)
		}
		if out, err := rewrite.EliminateArity(q.Program, rewrite.DefaultArityMarkers); err == nil && positioned(out) != rules {
			t.Errorf("%s: EliminateArity kept %d of %d head positions", q.Name, positioned(out), rules)
		}
		// Doubling adds generated rules (no position) around one
		// transliterated rule per source rule.
		if out, err := rewrite.SimulatePackingDoubled(q.Program, q.Output, rewrite.DefaultDoubleMarkers); err == nil && positioned(out) != rules {
			t.Errorf("%s: SimulatePackingDoubled kept %d of %d head positions", q.Name, positioned(out), rules)
		}
		// The normal form ends each source rule's chain in a rule for the
		// original head.
		if out, err := algebra.NormalForm(q.Program); err == nil && positioned(out) < rules {
			t.Errorf("%s: NormalForm kept %d head positions for %d source rules", q.Name, positioned(out), rules)
		}
	}
}
