package eval

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/value"
)

// compiled is Compile that fails the test on an error.
func compiled(tb testing.TB, p ast.Program) *Prepared {
	tb.Helper()
	prep, err := Compile(p)
	if err != nil {
		tb.Fatalf("Compile: %v\nprogram:\n%s", err, p)
	}
	return prep
}

func mustEval(t *testing.T, prog, edb string) *instance.Instance {
	t.Helper()
	p := parser.MustParseProgram(prog)
	i := parser.MustParseInstance(edb)
	out, err := compiled(t, p).Eval(i, Limits{})
	if err != nil {
		t.Fatalf("Eval: %v\nprogram:\n%s", err, prog)
	}
	return out
}

// pathsOf lists rel's first column in order. A relation nothing was
// derived into is nil: it fails the caller's check, not the package.
func pathsOf(rel *instance.Relation) []string {
	if rel == nil {
		return nil
	}
	var out []string
	for _, t := range rel.Sorted() {
		out = append(out, t[0].String())
	}
	return out
}

func TestOnlyAsEquation(t *testing.T) {
	// Example 3.1, fragment {E}.
	out := mustEval(t,
		`S($x) :- R($x), a.$x = $x.a.`,
		`R(a.a.a). R(a.b.a). R(a). R(eps). R(b).`)
	got := pathsOf(out.Relation("S"))
	want := []string{"eps", "a", "a.a.a"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("S = %v, want %v", got, want)
	}
}

func TestOnlyAsRecursion(t *testing.T) {
	// Example 3.1, fragment {A, I, R}.
	out := mustEval(t, `
T($x, $x) :- R($x).
T($x, $y) :- T($x, $y.a).
S($x) :- T($x, eps).`,
		`R(a.a.a). R(a.b.a). R(a). R(eps). R(b).`)
	got := pathsOf(out.Relation("S"))
	want := []string{"eps", "a", "a.a.a"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("S = %v, want %v", got, want)
	}
}

func TestExample21NFA(t *testing.T) {
	// Example 2.1: strings from R accepted by an NFA over {a,b} that
	// accepts strings with an even number of b's (q0 initial+final).
	prog := `
S(@q.$x, eps) :- R($x), N(@q).
S(@q2.$y, $z.@a) :- S(@q1.@a.$y, $z), D(@q1, @a, @q2).
A($x) :- S(@q, $x), F(@q).`
	edb := `
N(q0). F(q0).
D(q0, a, q0). D(q0, b, q1). D(q1, a, q1). D(q1, b, q0).
R(a.a). R(a.b). R(b.b). R(b.a.b). R(eps). R(b).`
	out := mustEval(t, prog, edb)
	got := pathsOf(out.Relation("A"))
	want := []string{"eps", "a.a", "b.a.b", "b.b"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("A = %v, want %v", got, want)
	}
}

func TestExample22PackingAndNonequalities(t *testing.T) {
	// Example 2.2: at least three different occurrences of a string
	// from S as a substring in strings from R. Note: occurrences are
	// distinguished as packed paths $u.<$s>.$v.
	prog := `
T($u.<$s>.$v) :- R($u.$s.$v), S($s).
A :- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.`
	// "abab" contains "ab" twice, "aba" contains "a" twice: with both
	// strings, 4 occurrences total.
	out := mustEval(t, prog, `R(a.b.a.b). S(a.b). S(b.a).`)
	if r := out.Relation("A"); r == nil || r.Len() != 1 {
		t.Fatalf("A should hold; T = %v", out.Relation("T").Sorted())
	}
	// Only two occurrences: A must not hold.
	out2 := mustEval(t, prog, `R(a.b.a.b). S(a.b).`)
	if r := out2.Relation("A"); r != nil && r.Len() > 0 {
		t.Fatalf("A should not hold with only 2 occurrences; T = %v", out2.Relation("T").Sorted())
	}
}

func TestExample43Reverse(t *testing.T) {
	progArity := `
T($x, eps) :- R($x).
T($x, $y.@u) :- T($x.@u, $y).
S($x) :- T(eps, $x).`
	progNoArity := `
T($x.a.a.$x.b) :- R($x).
T($x.a.$y.@u.a.$x.b.$y.@u) :- T($x.@u.a.$y.a.$x.@u.b.$y).
S($x) :- T(a.$x.a.b.$x).`
	edb := `R(x.y.z). R(a). R(eps). R(p.q).`
	want := []string{"eps", "a", "q.p", "z.y.x"}
	for name, prog := range map[string]string{"arity": progArity, "noarity": progNoArity} {
		out := mustEval(t, prog, edb)
		got := pathsOf(out.Relation("S"))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: S = %v, want %v", name, got, want)
		}
	}
}

func TestExample46MirrorNonequal(t *testing.T) {
	// U($x,$y) recursion peeling @a...@b with @a != @b;
	// S = strings a1..an.bn..b1 with ai != bi.
	prog := `
U($x, $x) :- R($x).
U($x, $y) :- U($x, @a.$y.@b), @a != @b.
S($x) :- U($x, eps).`
	out := mustEval(t, prog, `R(a.b.c.d). R(a.b.b.c). R(a.a). R(eps). R(a.b.b.a).`)
	got := pathsOf(out.Relation("S"))
	want := []string{"eps", "a.b.c.d"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("S = %v, want %v", got, want)
	}
}

func TestSquaringQuery(t *testing.T) {
	// Theorem 5.3: T(eps,$x,$x) :- R($x). etc. computes a^(n^2).
	prog := `
T(eps, $x, $x) :- R($x).
T($y.$x, $x, $z) :- T($y, $x, a.$z).
S($y) :- T($y, $x, eps).`
	out := mustEval(t, prog, `R(a.a.a).`)
	got := pathsOf(out.Relation("S"))
	if len(got) != 1 {
		t.Fatalf("S = %v", got)
	}
	if got[0] != strings.TrimSuffix(strings.Repeat("a.", 9), ".") {
		t.Fatalf("S = %v, want a^9", got)
	}
	// n=0: R(eps) -> S(eps).
	out0 := mustEval(t, prog, `R(eps).`)
	if got := pathsOf(out0.Relation("S")); fmt.Sprint(got) != "[eps]" {
		t.Fatalf("S = %v, want [eps]", got)
	}
}

func TestGraphReachability(t *testing.T) {
	// Section 5.1.1: reachability from a to b over edge paths x.y.
	prog := `
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).
S :- T(a.b).`
	reach := mustEval(t, prog, `R(a.c). R(c.d). R(d.b).`)
	if r := reach.Relation("S"); r == nil || r.Len() != 1 {
		t.Fatal("S should hold (a reaches b)")
	}
	noreach := mustEval(t, prog, `R(a.c). R(d.b).`)
	if r := noreach.Relation("S"); r != nil && r.Len() > 0 {
		t.Fatal("S should not hold")
	}
}

func TestBlackNodesStratifiedNegation(t *testing.T) {
	// Theorem 5.5 program: nodes with only edges to black nodes.
	prog := `
W(@x) :- R(@x.@y), !B(@y).
---
S(@x) :- R(@x.@y), !W(@x).`
	out := mustEval(t, prog, `R(a.b). R(a.c). R(d.b). B(b).`)
	got := pathsOf(out.Relation("S"))
	// a -> {b,c}, c not black, so a excluded; d -> {b} all black.
	if fmt.Sprint(got) != "[d]" {
		t.Fatalf("S = %v, want [d]", got)
	}
}

func TestNegatedEquationGroundCheck(t *testing.T) {
	prog := `S($x) :- R($x), $x != eps.`
	out := mustEval(t, prog, `R(a). R(eps).`)
	if got := pathsOf(out.Relation("S")); fmt.Sprint(got) != "[a]" {
		t.Fatalf("S = %v", got)
	}
}

func TestEquationBindsVariables(t *testing.T) {
	// $y and $z become bound through the equation $x = $y.$z.
	prog := `S($y) :- R($x), $x = $y.$z.`
	out := mustEval(t, prog, `R(a.b).`)
	got := pathsOf(out.Relation("S"))
	want := []string{"eps", "a", "a.b"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("S = %v, want %v", got, want)
	}
	// Chained equations bind in two hops.
	prog2 := `S($z) :- R($x), $x = $y.a, $z = $y.`
	out2 := mustEval(t, prog2, `R(b.a). R(b.b).`)
	if got := pathsOf(out2.Relation("S")); fmt.Sprint(got) != "[b]" {
		t.Fatalf("S = %v", got)
	}
}

func TestNonTerminationGuard(t *testing.T) {
	// Example 2.3.
	prog := parser.MustParseProgram(`
T(a).
T(a.$x) :- T($x).`)
	_, err := compiled(t, prog).Eval(instance.New(), Limits{MaxFacts: 1000})
	if !errors.Is(err, ErrNonTermination) {
		t.Fatalf("err = %v, want ErrNonTermination", err)
	}
	// Path length guard fires too.
	_, err = compiled(t, prog).Eval(instance.New(), Limits{MaxPathLen: 64})
	if !errors.Is(err, ErrNonTermination) {
		t.Fatalf("err = %v, want ErrNonTermination", err)
	}
}

func TestStrataSequence(t *testing.T) {
	// A later stratum reads an earlier one's result, and negation sees
	// the completed relation.
	prog := `
T($x) :- R($x).
T($x.$x) :- R($x).
---
S($x) :- T($x), !R($x).`
	out := mustEval(t, prog, `R(a).`)
	if got := pathsOf(out.Relation("S")); fmt.Sprint(got) != "[a.a]" {
		t.Fatalf("S = %v", got)
	}
}

func TestEmptyEDBRelation(t *testing.T) {
	out := mustEval(t, `S($x) :- R($x).`, ``)
	if r := out.Relation("S"); r != nil && r.Len() > 0 {
		t.Fatal("S must be empty on empty EDB")
	}
	rel, err := compiled(t, parser.MustParseProgram(`S($x) :- R($x).`)).Query(instance.New(), "S", Limits{})
	if err != nil || rel.Len() != 0 {
		t.Fatalf("Query: %v %v", rel, err)
	}
}

func TestHolds(t *testing.T) {
	prep := compiled(t, parser.MustParseProgram(`A :- R($x).`))
	yes, err := prep.Holds(parser.MustParseInstance(`R(a).`), "A", Limits{})
	if err != nil || !yes {
		t.Fatalf("Holds = %v, %v", yes, err)
	}
	no, err := prep.Holds(instance.New(), "A", Limits{})
	if err != nil || no {
		t.Fatalf("Holds = %v, %v", no, err)
	}
}

func TestFactsOnlyProgram(t *testing.T) {
	out := mustEval(t, `T(a.b). T(c).`, ``)
	got := pathsOf(out.Relation("T"))
	if fmt.Sprint(got) != "[a.b c]" {
		t.Fatalf("T = %v", got)
	}
}

func TestInputNotModified(t *testing.T) {
	prog := parser.MustParseProgram(`S($x) :- R($x).`)
	edb := parser.MustParseInstance(`R(a).`)
	if _, err := compiled(t, prog).Eval(edb, Limits{}); err != nil {
		t.Fatal(err)
	}
	if edb.Relation("S") != nil {
		t.Fatal("Eval mutated its input")
	}
}

func TestMutualRecursion(t *testing.T) {
	// Even/odd length via mutual recursion.
	prog := `
E(eps) :- R($x).
O(@a.$x) :- E($x), R($y.@a.$x).
E(@a.$x) :- O($x), R($y.@a.$x).
S($x) :- R($x), E($x).`
	out := mustEval(t, prog, `R(a.b.c.d). R(a.b.c).`)
	if got := pathsOf(out.Relation("S")); fmt.Sprint(got) != "[a.b.c.d]" {
		t.Fatalf("S = %v", got)
	}
}

func TestDeltaCorrectnessLongChain(t *testing.T) {
	// Transitive closure over a long chain exercises semi-naive rounds.
	var facts strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&facts, "R(n%d.n%d).\n", i, i+1)
	}
	prog := `
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).`
	out := mustEval(t, prog, facts.String())
	if got := out.Relation("T").Len(); got != 31*30/2 {
		t.Fatalf("|T| = %d, want %d", got, 31*30/2)
	}
}

func TestPackedHeadConstruction(t *testing.T) {
	prog := `S(<$x>.<$x>) :- R($x).`
	out := mustEval(t, prog, `R(a.b).`)
	want := value.Path{value.Pack(value.PathOf("a", "b")), value.Pack(value.PathOf("a", "b"))}
	if !out.Has("S", instance.Tuple{want}) {
		t.Fatalf("S = %v", out.Relation("S").Sorted())
	}
}

func TestUnstratifiedRejected(t *testing.T) {
	prog := parser.MustParseProgram(`S($x) :- R($x).`)
	bad, err := parser.ParseRules(`W($x) :- R($x), !W($x).`)
	if err != nil {
		t.Fatal(err)
	}
	prog.Strata[0] = append(prog.Strata[0], bad...)
	if _, err := Compile(prog); err == nil {
		t.Fatal("unstratified program accepted by Compile")
	}
}

func TestConcurrentEvalSharedEDB(t *testing.T) {
	// Prepared.Eval shares the EDB copy-on-write: concurrent
	// evaluations of the same instance must not interfere (each derives
	// into its own clones; the shared frozen relations serve reads and
	// lazily built indexes to all of them). Run with -race in CI.
	prog := parser.MustParseProgram(`
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).`)
	p, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	edb := parser.MustParseInstance(`R(a.b). R(b.c). R(c.d). R(d.e).`)
	want, err := p.Eval(edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := p.Eval(edb, Limits{})
			if err != nil {
				panic(err)
			}
			if !out.Equal(want) {
				panic("concurrent Eval diverged: " + instance.Diff(out, want))
			}
		}()
	}
	wg.Wait()
	// The input is untouched: no derived relation leaked into it.
	if edb.Relation("T") != nil {
		t.Fatal("Eval mutated its input")
	}
}
