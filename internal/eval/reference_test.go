package eval_test

import (
	goparser "go/parser"
	"go/token"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/eval"
	"seqlog/internal/fuzztest"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/workload"
)

// TestSpecImports pins the reference's independence: spec_test.go
// imports only the data model (ast, value, instance), the unifier and
// the standard library, so no fault of the engine's planner, matcher or
// runner can be shared with the model it is checked against.
func TestSpecImports(t *testing.T) {
	f, err := goparser.ParseFile(token.NewFileSet(), "spec_test.go", nil, goparser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"seqlog/internal/ast": true, "seqlog/internal/value": true,
		"seqlog/internal/instance": true, "seqlog/internal/unify": true}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		if first, _, _ := strings.Cut(path, "/"); !allowed[path] && (first == "seqlog" || strings.Contains(first, ".")) {
			t.Errorf("spec_test.go imports %s; the reference may import only ast, value, instance, unify and the standard library", path)
		}
	}
}

// TestEvalMatchesNaiveReference checks that the evaluator — indexed
// joins, delta-hoisted variants, components instead of written strata
// — computes the least model of the reference semantics (specEval): on
// every terminating example query of the paper, on wider inputs with
// many semi-naive rounds, and on the shadow EDB of the differential
// fuzzer's scenarios after every step.
func TestEvalMatchesNaiveReference(t *testing.T) {
	agree := func(t *testing.T, name string, prog ast.Program, edb *instance.Instance) {
		t.Helper()
		want, err := specEval(prog, edb)
		if err != nil {
			t.Fatalf("%s (reference): %v", name, err)
		}
		prep, err := eval.Compile(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := prep.Eval(edb, eval.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: Eval and the reference disagree: %s", name, instance.Diff(got, want))
		}
	}
	query := func(name string) ast.Program {
		q, err := queries.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return q.Program
	}
	t.Run("queries", func(t *testing.T) {
		edbs := eval.AgreementEDBs(t)
		for _, q := range queries.All() {
			if !q.Terminating {
				continue
			}
			edb, ok := edbs[q.Name]
			if !ok {
				t.Fatalf("query %s has no agreement EDB; add one to agreementEDBs", q.Name)
			}
			agree(t, q.Name, q.Program, edb)
		}
	})
	t.Run("wide", func(t *testing.T) {
		agree(t, "reachability", query("reachability"), workload.Graph(9, 24, 64))
		agree(t, "nfa-accept", query("nfa-accept"), workload.NFA(4, 80, 6))
		agree(t, "reverse-arity", query("reverse-arity"), workload.Strings(2, "R", 80, 4, workload.Alphabet(3)))
		agree(t, "mirror-nonequal", query("mirror-nonequal"), workload.Strings(3, "R", 80, 4, workload.Alphabet(3)))
		// Negation over a wide closure: the second stratum reads T,
		// completed by the first, on every pair of nodes.
		neg := parser.MustParseProgram(`
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).
---
U(@x.@y) :- N(@x), N(@y), !T(@x.@y).
V(@x.@y) :- N(@x), N(@y), !T(@y.@x).`)
		edb := workload.Graph(9, 32, 48)
		for _, t := range edb.Relation("R").Tuples() {
			edb.AddPath("N", t[0][:1])
			edb.AddPath("N", t[0][1:])
		}
		agree(t, "stratified negation", neg, edb)
	})
	t.Run("scenarios", func(t *testing.T) {
		for seed := int64(0); seed < 120; seed++ {
			sc := fuzztest.GenScenario(rand.New(rand.NewSource(seed)))
			prog := parser.MustParseProgram(sc.Src)
			prep, err := eval.Compile(prog)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, sc.Src)
			}
			sh := fuzztest.NewShadow()
			for i, st := range sc.Steps {
				sh.Apply(st)
				got, err := prep.Eval(sh.EDB(), eval.Limits{})
				if err != nil {
					t.Fatalf("seed %d step %d: Eval: %v\n%s%s", seed, i, err, sc.Src, sc.History(i))
				}
				want, err := specEval(prog, sh.EDB())
				if err != nil {
					t.Fatalf("seed %d step %d: reference: %v\n%s%s", seed, i, err, sc.Src, sc.History(i))
				}
				if d := instance.Diff(got, want); d != "" {
					t.Fatalf("seed %d step %d: Eval diverges from the reference: %s\n%s%s",
						seed, i, d, sc.Src, sc.History(i))
				}
			}
		}
	})
}

// TestDeriveIntoScannedRelation exercises rules that derive into the
// relation they are scanning: appends during a scan must not be seen by
// the live iteration (snapshot semantics) but must be picked up by the
// next round, in the evaluator and in the reference.
func TestDeriveIntoScannedRelation(t *testing.T) {
	check := func(t *testing.T, run func(ast.Program, *instance.Instance) (*instance.Instance, error)) {
		// Symmetric closure: each derivation scans T while extending it.
		sym := parser.MustParseProgram(`T(@y.@x) :- T(@x.@y).`)
		out, err := run(sym, parser.MustParseInstance("T(a.b). T(c.d)."))
		if err != nil {
			t.Fatal(err)
		}
		want := parser.MustParseInstance("T(a.b). T(b.a). T(c.d). T(d.c).")
		if !out.Equal(want) {
			t.Fatalf("symmetric closure: %s", instance.Diff(out, want))
		}
		// Self-join transitive closure: both body atoms scan the head
		// relation.
		tc := parser.MustParseProgram(`
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), T(@y.@z).`)
		out, err = run(tc, workload.Chain(5))
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Relation("T").Len(); got != 15 {
			t.Fatalf("closure of 5-chain has %d pairs, want 15", got)
		}
	}
	t.Run("eval", func(t *testing.T) {
		check(t, func(prog ast.Program, edb *instance.Instance) (*instance.Instance, error) {
			prep, err := eval.Compile(prog)
			if err != nil {
				return nil, err
			}
			return prep.Eval(edb, eval.Limits{})
		})
	})
	t.Run("naive", func(t *testing.T) { check(t, specEval) })
}
