package seqlog

import (
	"errors"
	"runtime"
	"slices"
	"testing"

	"seqlog/internal/workload"
)

func TestFacadeEndToEnd(t *testing.T) {
	prog := MustParse(`S($x) :- R($x), a.$x = $x.a.`)
	edb := MustParseInstance(`R(a.a). R(a.b). R(eps).`)
	rel, err := Query(prog, edb, "S", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("S = %v", rel.Sorted())
	}
}

func TestFacadeClassification(t *testing.T) {
	if !Subsumes(Frag("E"), Frag("I")) || !Equivalent(Frag("E"), Frag("I")) {
		t.Fatal("E and I must be equivalent")
	}
	if len(Classes()) != 11 {
		t.Fatal("11 classes expected")
	}
	top := false // some class is above every class
	l := BuildLattice()
	for _, c := range l.Classes {
		all := true
		for _, d := range l.Classes {
			all = all && Subsumes(d.Representative, c.Representative)
		}
		top = top || all
	}
	if !top {
		t.Fatal("lattice broken")
	}
}

func TestFacadeRewrite(t *testing.T) {
	prog := MustParse(`S($x) :- R($x), a.$x = $x.a.`)
	res, err := RewriteTo(prog, "S", Frag("AIR"))
	if err != nil || !res.Exact {
		t.Fatalf("RewriteTo: %v %v", res, err)
	}
	edb := MustParseInstance(`R(a.a). R(b).`)
	r1, _ := Query(prog, edb, "S", Limits{})
	r2, err := Query(res.Program, edb, "S", Limits{})
	if err != nil || !r1.Equal(r2) {
		t.Fatalf("rewrite changed semantics: %v vs %v (%v)", r1.Sorted(), r2.Sorted(), err)
	}
}

// TestFacadeParallelEvaluation exercises the fan-out through the public
// surface: evaluation on one and on eight GOMAXPROCS agrees on a
// recursive query, and the deterministic PlanResult (Steps, Achieved,
// the rewritten program's text) of a fragment rewrite is bit-identical
// across repeated runs interleaved with parallel evaluations.
func TestFacadeParallelEvaluation(t *testing.T) {
	prog := MustParse(`
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).`)
	edb := workload.Graph(9, 30, 120)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seq, err := Eval(prog, edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	var first PlanResult
	for i := 0; i < 10; i++ {
		par, err := Eval(prog, edb, Limits{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !par.Equal(seq) {
			t.Fatalf("run %d: parallel evaluation diverged from sequential", i)
		}
		res, err := RewriteTo(prog, "T", Frag("AEINPR"))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if i == 0 {
			first = res
			continue
		}
		if res.Achieved != first.Achieved || !slices.Equal(res.Steps, first.Steps) {
			t.Fatalf("run %d: PlanResult stats drifted: %+v vs %+v", i, res, first)
		}
		if got, want := res.Program.String(), first.Program.String(); got != want {
			t.Fatalf("run %d: rewritten program drifted:\n%s\nvs\n%s", i, got, want)
		}
	}
}

func TestFacadeAlgebra(t *testing.T) {
	prog := MustParse(`S($x) :- R(a.$x.b).`)
	e, err := CompileAlgebra(prog, "S")
	if err != nil {
		t.Fatal(err)
	}
	edb := MustParseInstance(`R(a.x.y.b). R(b.a).`)
	rel, err := EvalAlgebra(e, edb)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := Query(prog, edb, "S", Limits{})
	if !rel.Equal(want) {
		t.Fatalf("algebra %v vs datalog %v", rel.Sorted(), want.Sorted())
	}
	back, err := AlgebraToDatalog(e, "Out")
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := Query(back, edb, "Out", Limits{})
	if err != nil || !rel2.Equal(want) {
		t.Fatalf("roundtrip: %v (%v)", rel2.Sorted(), err)
	}
}

func TestFacadeNonTermination(t *testing.T) {
	q, err := GetPaperQuery("non-terminating")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Eval(q.Program, NewInstance(), Limits{MaxFacts: 100})
	if !errors.Is(err, ErrNonTermination) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadePaperQueries(t *testing.T) {
	all := PaperQueries()
	if len(all) < 15 {
		t.Fatalf("only %d paper queries", len(all))
	}
	q, err := GetPaperQuery("squaring")
	if err != nil {
		t.Fatal(err)
	}
	edb := NewInstance()
	edb.AddPath("R", PathOf("a", "a", "a"))
	rel, err := Query(q.Program, edb, q.Output, Limits{})
	if err != nil || rel.Len() != 1 || len(rel.Tuples()[0][0]) != 9 {
		t.Fatalf("squaring: %v %v", rel.Sorted(), err)
	}
}

func TestFacadeUnify(t *testing.T) {
	prog := MustParse(`X($x.a, a.$x) :- R($x).`)
	head := prog.Rules()[0].Head
	res := Unify(Equation{L: head.Args[0], R: head.Args[1]}, UnifyOptions{})
	if res.Complete {
		t.Fatal("$x.a = a.$x must be incomplete")
	}
	if len(res.Solutions) == 0 {
		t.Fatal("expected at least the {$x->a} solution")
	}
}

func TestFacadeEngine(t *testing.T) {
	prep, err := Compile(MustParse(`
T(@x.@y) :- E(@x.@y).
T(@x.@z) :- T(@x.@y), E(@y.@z).`))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, MustParseInstance(`E(a.b).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Assert(MustParseInstance(`E(b.c). E(c.d).`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Asserted != 2 || stats.Incremental != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	rel, err := e.Query("T")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 6 {
		t.Fatalf("|T| = %d, want 6", rel.Len())
	}
	if snap.Relation("T").Len() != 1 {
		t.Fatalf("snapshot moved: |T| = %d, want 1", snap.Relation("T").Len())
	}
	// The engine's materialization must match one-shot Eval.
	want, err := Eval(prep.Program(), MustParseInstance(`E(a.b). E(b.c). E(c.d).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	final, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !final.Equal(want) {
		t.Fatal("engine materialization differs from Eval")
	}
	// Retraction withdraws the edge and its downward closure (DRed):
	// dropping b->c removes T(b.c), T(a.c), T(b.d), T(a.d).
	rstats, err := e.Retract(MustParseInstance(`E(b.c).`))
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Retracted != 1 || rstats.Overdeleted != 4 || rstats.Rederived != 0 || rstats.Derived != -4 {
		t.Fatalf("retract stats = %+v", rstats)
	}
	want, err = Eval(prep.Program(), MustParseInstance(`E(a.b). E(c.d).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	final, err = e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !final.Equal(want) {
		t.Fatal("engine materialization after Retract differs from Eval")
	}
}
