package rewrite

import (
	"strings"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/parser"
	"seqlog/internal/value"
)

func TestLemma41EncodingInjective(t *testing.T) {
	// (s1,s2) = (s1',s2') iff encodings equal — exhaustively over small
	// paths INCLUDING paths containing the markers.
	m := DefaultArityMarkers
	alphabet := []string{"a", "0", "1"}
	var paths []value.Path
	paths = append(paths, value.Epsilon)
	for _, x := range alphabet {
		paths = append(paths, value.PathOf(x))
		for _, y := range alphabet {
			paths = append(paths, value.PathOf(x, y))
		}
	}
	type pair struct{ i, j int }
	seen := map[string]pair{}
	for i, s1 := range paths {
		for j, s2 := range paths {
			k := m.EncodeTuplePaths([]value.Path{s1, s2}).String()
			if prev, dup := seen[k]; dup && (prev.i != i || prev.j != j) {
				t.Fatalf("collision: (%v,%v) and (%v,%v)", paths[prev.i], paths[prev.j], s1, s2)
			}
			seen[k] = pair{i, j}
		}
	}
}

func TestEliminateArityExample43(t *testing.T) {
	// Example 4.3: reversal with a binary T, and the paper's expected
	// unary rewriting (with markers a, b as in the paper).
	prog := mustParse(t, `
T($x, eps) :- R($x).
T($x, $y.@u) :- T($x.@u, $y).
S($x) :- T(eps, $x).`)
	m := ArityMarkers{A: value.Intern("a"), B: value.Intern("b")}
	got, err := EliminateArity(prog, m)
	if err != nil {
		t.Fatal(err)
	}
	want := mustParse(t, `
T($x.a.a.$x.b) :- R($x).
T($x.a.$y.@u.a.$x.b.$y.@u) :- T($x.@u.a.$y.a.$x.@u.b.$y).
S($x) :- T(a.$x.a.b.$x).`)
	if got.String() != want.String() {
		t.Fatalf("Example 4.3 rewriting differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got.Features().Has(ast.FeatArity) {
		t.Fatal("arity feature still present")
	}
}

func TestEliminateArityEquivalence(t *testing.T) {
	reverse := mustParse(t, `
T($x, eps) :- R($x).
T($x, $y.@u) :- T($x.@u, $y).
S($x) :- T(eps, $x).`)
	rewritten, err := EliminateArity(reverse, DefaultArityMarkers)
	if err != nil {
		t.Fatal(err)
	}
	// Alphabet includes the markers "0" and "1" on purpose: Lemma 4.1
	// guarantees correctness even when data collides with markers.
	instances := randomFlatInstances(7, 12, []string{"R"}, []string{"a", "b", "0", "1"}, 4, 5)
	assertEquivalent(t, reverse, rewritten, "S", instances...)
}

func TestEliminateArityTernary(t *testing.T) {
	// Ternary IDB relations reduce in two steps.
	prog := mustParse(t, `
T($x, $y, $z) :- R($x.$y.$z).
S($x) :- T($x, $y, $z).
S2($z) :- T($x, $y, $z).`)
	rewritten, err := EliminateArity(prog, DefaultArityMarkers)
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.Features().Has(ast.FeatArity) {
		t.Fatalf("arity still present:\n%s", rewritten)
	}
	instances := randomFlatInstances(11, 10, []string{"R"}, []string{"a", "b", "0"}, 4, 4)
	assertEquivalent(t, prog, rewritten, "S", instances...)
	assertEquivalent(t, prog, rewritten, "S2", instances...)
}

func TestEliminateArityWithNegation(t *testing.T) {
	prog := mustParse(t, `
T($x, $y) :- R($x.$y).
---
S($x) :- R($x.$y), !T($y, $x).`)
	rewritten, err := EliminateArity(prog, DefaultArityMarkers)
	if err != nil {
		t.Fatal(err)
	}
	if rewritten.Features().Has(ast.FeatArity) {
		t.Fatal("arity still present")
	}
	instances := randomFlatInstances(13, 12, []string{"R"}, []string{"a", "b"}, 5, 4)
	assertEquivalent(t, prog, rewritten, "S", instances...)
}

func TestEliminateArityRejectsBinaryEDB(t *testing.T) {
	prog := mustParse(t, `S(@x) :- D(@x, @y).`)
	if _, err := EliminateArity(prog, DefaultArityMarkers); err == nil {
		t.Fatal("binary EDB must be rejected")
	}
	if _, err := EliminateArity(mustParse(t, `S($x) :- R($x).`), ArityMarkers{A: value.Intern("0"), B: value.Intern("0")}); err == nil {
		t.Fatal("identical markers must be rejected")
	}
}

func TestEliminateArityLeavesNullary(t *testing.T) {
	prog := mustParse(t, `
A :- R($x).
S($x) :- R($x), A.`)
	rewritten, err := EliminateArity(prog, DefaultArityMarkers)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rewritten.String(), "A :- R($x).") {
		t.Fatalf("nullary rule altered:\n%s", rewritten)
	}
	instances := randomFlatInstances(17, 6, []string{"R"}, []string{"a"}, 3, 3)
	assertEquivalent(t, prog, rewritten, "S", instances...)
}

func TestEncodeTuplePathsMatchesProgram(t *testing.T) {
	// The relation contents of the rewritten program are exactly the
	// encodings of the original tuples.
	prog := mustParse(t, `
T($x, $y) :- R($x.$y).`)
	rewritten, err := EliminateArity(prog, DefaultArityMarkers)
	if err != nil {
		t.Fatal(err)
	}
	edb := parser.MustParseInstance(`R(a.b).`)
	orig := mustQuery(t, prog, edb, "T")
	enc := mustQuery(t, rewritten, edb, "T")
	if enc.Arity != 1 {
		t.Fatalf("rewritten T has arity %d", enc.Arity)
	}
	if orig.Len() != enc.Len() {
		t.Fatalf("cardinalities differ: %d vs %d", orig.Len(), enc.Len())
	}
	for _, tu := range orig.Tuples() {
		want := DefaultArityMarkers.EncodeTuplePaths(tu)
		found := false
		for _, etu := range enc.Tuples() {
			if etu[0].Equal(want) {
				found = true
			}
		}
		if !found {
			t.Fatalf("encoding of %v missing: %v", tu, enc.Sorted())
		}
	}
}
