package core_test

import (
	"math/rand"
	"strings"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/core"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/rewrite"
	"seqlog/internal/value"
)

// The Figure 3 planner, rewrite.ToFragment, is tested here, beside the
// lattice it plans against: it refuses exactly what Theorem 6.1 refuses.

func mustParse(t *testing.T, src string) ast.Program {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return p
}

func randomInstances(seed int64, count int, rels []string, alphabet []string, maxPaths, maxLen int) []*instance.Instance {
	r := rand.New(rand.NewSource(seed))
	var out []*instance.Instance
	for i := 0; i < count; i++ {
		inst := instance.New()
		for _, rel := range rels {
			n := r.Intn(maxPaths + 1)
			for j := 0; j < n; j++ {
				l := r.Intn(maxLen + 1)
				p := make(value.Path, l)
				for k := range p {
					p[k] = value.Intern(alphabet[r.Intn(len(alphabet))])
				}
				inst.AddPath(rel, p)
			}
			inst.Ensure(rel, 1)
		}
		out = append(out, inst)
	}
	return out
}

func checkEquivalent(t *testing.T, p1, p2 ast.Program, output string, instances []*instance.Instance) {
	t.Helper()
	prep1, err1 := eval.Compile(p1)
	prep2, err2 := eval.Compile(p2)
	if err1 != nil || err2 != nil {
		t.Fatalf("compile: %v / %v", err1, err2)
	}
	for i, edb := range instances {
		r1, err1 := prep1.Query(edb, output, eval.Limits{})
		r2, err2 := prep2.Query(edb, output, eval.Limits{})
		if err1 != nil || err2 != nil {
			t.Fatalf("instance %d: %v / %v", i, err1, err2)
		}
		if !r1.Equal(r2) {
			t.Fatalf("instance %d: outputs differ\noriginal: %v\nplanned: %v\nprogram:\n%s",
				i, r1.Sorted(), r2.Sorted(), p2)
		}
	}
}

func TestRewriteToEquationIntoRecursionFragment(t *testing.T) {
	// Example 3.1: the {E} only-a's program into the {A,I,R} fragment.
	prog := mustParse(t, `S($x) :- R($x), a.$x = $x.a.`)
	res, err := rewrite.ToFragment(prog, "S", core.Frag("AIR"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("not exact: %s (%s)", res.Achieved, res.Note)
	}
	if res.Achieved.Has(core.E) {
		t.Fatalf("achieved %s still has E", res.Achieved)
	}
	checkEquivalent(t, prog, res.Program, "S",
		randomInstances(1, 15, []string{"R"}, []string{"a", "b"}, 5, 6))
}

func TestRewriteToIOnly(t *testing.T) {
	// {E} -> {I}: equations fold into auxiliary predicates, then arity
	// is eliminated.
	prog := mustParse(t, `S($x) :- R($x), a.$x = $x.a.`)
	res, err := rewrite.ToFragment(prog, "S", core.Frag("I"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("not exact: %s (%s)", res.Achieved, res.Note)
	}
	if res.Achieved != core.Frag("I") && res.Achieved != core.Frag("") {
		t.Fatalf("achieved %s", res.Achieved)
	}
	checkEquivalent(t, prog, res.Program, "S",
		randomInstances(2, 15, []string{"R"}, []string{"a", "b"}, 5, 6))
}

func TestRewriteToEOnlyFoldsIntermediates(t *testing.T) {
	// {I} (via an auxiliary predicate) -> {E}: Theorem 4.16 folding.
	prog := mustParse(t, `
T(a.$x, $x) :- R($x).
S($x) :- T($x.a, $x).`)
	res, err := rewrite.ToFragment(prog, "S", core.Frag("E"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("not exact: %s (%s)", res.Achieved, res.Note)
	}
	if res.Achieved.Has(core.I) || res.Achieved.Has(core.A) {
		t.Fatalf("achieved %s", res.Achieved)
	}
	checkEquivalent(t, prog, res.Program, "S",
		randomInstances(3, 15, []string{"R"}, []string{"a", "b"}, 5, 6))
}

func TestRewriteToDropArity(t *testing.T) {
	prog := mustParse(t, `
T($x, eps) :- R($x).
T($x, $y.@u) :- T($x.@u, $y).
S($x) :- T(eps, $x).`)
	res, err := rewrite.ToFragment(prog, "S", core.Frag("IR"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || res.Achieved.Has(core.A) {
		t.Fatalf("achieved %s exact=%v", res.Achieved, res.Exact)
	}
	checkEquivalent(t, prog, res.Program, "S",
		randomInstances(4, 12, []string{"R"}, []string{"a", "b", "0", "1"}, 4, 5))
}

func TestRewriteToPackingElimination(t *testing.T) {
	prog := mustParse(t, `
T($u.<$s>.$v) :- R($u.$s.$v), S($s).
A :- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.`)
	res, err := rewrite.ToFragment(prog, "A", core.Frag("AEIN"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatalf("not exact: %s (%s)", res.Achieved, res.Note)
	}
	if res.Achieved.Has(core.P) {
		t.Fatalf("achieved %s still has P", res.Achieved)
	}
	instances := randomInstances(5, 10, []string{"R", "S"}, []string{"a", "b"}, 4, 4)
	prep1, err1 := eval.Compile(prog)
	prep2, err2 := eval.Compile(res.Program)
	if err1 != nil || err2 != nil {
		t.Fatalf("compile: %v / %v", err1, err2)
	}
	for i, edb := range instances {
		b1, err1 := prep1.Holds(edb, "A", eval.Limits{})
		b2, err2 := prep2.Holds(edb, "A", eval.Limits{})
		if err1 != nil || err2 != nil || b1 != b2 {
			t.Fatalf("instance %d: %v/%v %v/%v", i, b1, b2, err1, err2)
		}
	}
}

func TestRewriteToRefusals(t *testing.T) {
	cases := []struct {
		src    string
		output string
		target string
	}{
		// E primitive without I (Theorem 5.7).
		{`S($x) :- R($x), a.$x = $x.a.`, "S", ""},
		{`S($x) :- R($x), a.$x = $x.a.`, "S", "NR"},
		// N primitive.
		{`S($x) :- R($x), !Q($x).`, "S", "EIR"},
		// R primitive (Theorem 5.3).
		{`T($x) :- R($x).
T($x.a) :- T($x).
S($x) :- T($x).`, "S", "EIN"},
		// I primitive with N (Theorem 5.5).
		{`W(@x) :- R(@x.@y), !B(@y).
---
S(@x) :- R(@x.@y), !W(@x).`, "S", "EN"},
	}
	for i, c := range cases {
		prog := mustParse(t, c.src)
		if _, err := rewrite.ToFragment(prog, c.output, core.Frag(c.target)); err == nil {
			t.Errorf("case %d: rewrite into {%s} must be refused", i, c.target)
		} else if !strings.Contains(err.Error(), "condition") {
			t.Errorf("case %d: error lacks explanation: %v", i, err)
		}
	}
}

func TestRewriteToGapDocumented(t *testing.T) {
	// {P,R} -> {R}: Theorem 6.1 says yes ({P,R} ≡ {R}), but the
	// constructive doubling pipeline routes through I; the planner must
	// report inexactness rather than fail, and stay equivalent. The
	// program's single IDB relation is recursive with a packed body
	// pattern (which never matches on flat instances).
	prog := mustParse(t, `
S($x) :- R($x).
S($y) :- S(<$y>.$z).`)
	res, err := rewrite.ToFragment(prog, "S", core.Frag("AR"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatalf("expected a documented gap, got exact result %s", res.Achieved)
	}
	if res.Note == "" {
		t.Fatal("gap must be explained in Note")
	}
	if res.Achieved.Has(core.P) {
		t.Fatal("packing must still be eliminated")
	}
	checkEquivalent(t, prog, res.Program, "S",
		randomInstances(6, 6, []string{"R"}, []string{"a", "b"}, 3, 4))
}

func TestRewriteToNoop(t *testing.T) {
	prog := mustParse(t, `S($x) :- R($x).`)
	res, err := rewrite.ToFragment(prog, "S", core.Frag("EINR"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact || len(res.Steps) != 1 { // prune only
		t.Fatalf("steps = %v", res.Steps)
	}
}

func TestPruneKeepsNegatedDependencies(t *testing.T) {
	prog := mustParse(t, `
B($x) :- R($x.$x).
---
S($x) :- R($x), !B($x).`)
	res, err := rewrite.ToFragment(prog, "S", core.Frag("EINR"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Program.Rules()) != 2 {
		t.Fatalf("pruning dropped a needed rule:\n%s", res.Program)
	}
	checkEquivalent(t, prog, res.Program, "S",
		randomInstances(7, 10, []string{"R"}, []string{"a", "b"}, 4, 4))
}

// TestRewriteToCarriesJoinPlan checks that fragment-aware rewrites
// land on the indexed evaluator: every rewritten program compiles, to
// one base join plan per rule, each step with an access path.
func TestRewriteToCarriesJoinPlan(t *testing.T) {
	prog := mustParse(t, `S($x) :- R($x), a.$x = $x.a.`)
	for _, target := range []core.Fragment{core.Frag("EINR"), core.Frag("AIR"), core.Frag("I")} {
		res, err := rewrite.ToFragment(prog, "S", target)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := eval.Compile(res.Program)
		if err != nil {
			t.Fatalf("target %s: rewritten program does not compile: %v", target, err)
		}
		// Indented lines are a rule's Δ variants and its goal plan.
		plan, base := prep.Explain(), 0
		for _, line := range plan {
			if !strings.HasPrefix(line, " ") {
				base++
			}
			if !strings.Contains(line, "[") {
				t.Fatalf("target %s: join-plan line lacks an access path: %s", target, line)
			}
		}
		if base != len(res.Program.Rules()) {
			t.Fatalf("target %s: %d base join-plan lines for %d rules:\n%s",
				target, base, len(res.Program.Rules()), strings.Join(plan, "\n"))
		}
	}
}

// TestSeparationWitnesses ties every strict edge of Figure 1 to the
// query that separates its two classes and to the theorem that says
// so: the witness is written in a fragment the upper class subsumes,
// ToFragment moves it into the upper class's representative, and
// ToFragment into the lower one is refused in the words of the
// Theorem 6.1 condition that fails. (TestFigure1Lattice pins the edges
// themselves; this pins why each one is strict.)
func TestSeparationWitnesses(t *testing.T) {
	const (
		negation  = "condition 1: negation is primitive"
		recursion = "condition 2: recursion is primitive (Theorem 5.3)"
		equations = "condition 3: E is primitive in the absence of I (Theorem 5.7)"
		intermed  = "condition 5: I is primitive in the presence of N or R (Theorems 5.5, 5.6)"
	)
	witnesses := map[string]struct{ query, reason string }{
		"{} < {E}":              {"only-as-equation", equations},
		"{} < {N}":              {"deep-unequal", negation},
		"{} < {R}":              {"non-terminating", recursion},
		"{E} < {E, N}":          {"deep-unequal", negation},
		"{E} < {E, R}":          {"non-terminating", recursion},
		"{N} < {E, N}":          {"only-as-equation", equations},
		"{N} < {N, R}":          {"non-terminating", recursion},
		"{R} < {E, R}":          {"only-as-equation", equations},
		"{R} < {N, R}":          {"deep-unequal", negation},
		"{E, N} < {E, N, R}":    {"non-terminating", recursion},
		"{E, N} < {I, N}":       {"black-nodes", intermed},
		"{E, R} < {E, N, R}":    {"deep-unequal", negation},
		"{E, R} < {I, R}":       {"only-as-recursion", intermed},
		"{N, R} < {E, N, R}":    {"only-as-equation", equations},
		"{E, N, R} < {I, N, R}": {"black-nodes", intermed},
		"{I, N} < {I, N, R}":    {"squaring", recursion},
		"{I, R} < {I, N, R}":    {"black-nodes", negation},
	}
	l := core.BuildLattice()
	edges := 0
	for up, downs := range l.Edges {
		for _, down := range downs {
			edges++
			lower, upper := l.Classes[down].Representative, l.Classes[up].Representative
			edge := lower.String() + " < " + upper.String()
			w, ok := witnesses[edge]
			if !ok {
				t.Errorf("edge %s has no separation witness", edge)
				continue
			}
			q, err := queries.Get(w.query)
			if err != nil {
				t.Fatal(err)
			}
			if !core.Subsumes(q.Fragment(), upper) {
				t.Errorf("%s: witness %s is written in %s, which %s does not subsume", edge, w.query, q.Fragment(), upper)
			}
			if _, err := rewrite.ToFragment(q.Program, q.Output, upper); err != nil {
				t.Errorf("%s: %s does not rewrite into %s: %v", edge, w.query, upper, err)
			}
			_, err = rewrite.ToFragment(q.Program, q.Output, lower)
			if want := "(" + w.reason + ")"; err == nil || !strings.HasSuffix(err.Error(), want) {
				t.Errorf("%s: rewriting %s into %s: got %v, want a refusal ending %s", edge, w.query, lower, err, want)
			}
		}
	}
	if edges != len(witnesses) {
		t.Errorf("%d witnesses for %d edges", len(witnesses), edges)
	}
}
