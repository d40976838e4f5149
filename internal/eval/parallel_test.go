package eval

import (
	"errors"
	"strings"
	"testing"

	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/workload"
)

// TestParallelDeterminism pins the merge-order guarantee: evaluating
// the same program at workers=8 is not merely set-equal to workers=1 —
// repeated parallel runs produce byte-identical renderings (insertion
// order is a pure function of program and input, independent of
// scheduling). 50 repetitions give the race detector scheduling
// variety to bite on.
func TestParallelDeterminism(t *testing.T) {
	q, err := queries.Get("reachability")
	if err != nil {
		t.Fatal(err)
	}
	edb := workload.Graph(9, 30, 120)
	baseline, err := Eval(q.Program, edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	want := ""
	for i := 0; i < 50; i++ {
		out, err := Eval(q.Program, edb, Limits{Parallelism: 8})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !out.Equal(baseline) {
			t.Fatalf("run %d: parallel fixpoint differs from sequential: %s", i, instance.Diff(out, baseline))
		}
		if s := out.String(); want == "" {
			want = s
		} else if s != want {
			t.Fatalf("run %d: parallel result not deterministic across runs", i)
		}
	}
}

// TestParallelJoinPlansStable checks that parallelism is invisible to
// planning: the join plans Explain reports are a property of the
// program alone, so rounds partitioned across workers execute the very
// same access paths as the sequential evaluator.
func TestParallelJoinPlansStable(t *testing.T) {
	q, err := queries.Get("reachability")
	if err != nil {
		t.Fatal(err)
	}
	first, err := Explain(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := Explain(q.Program)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(again, "\n") != strings.Join(first, "\n") {
			t.Fatalf("join plans changed between compilations:\n%s\nvs\n%s", first, again)
		}
	}
}

// TestParallelStratifiedNegation exercises the freeze contract across
// strata: negated predicates resolve against relations completed by an
// earlier stratum, which stay frozen during the later stratum's
// fan-out.
func TestParallelStratifiedNegation(t *testing.T) {
	prog := parser.MustParseProgram(`
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).
---
U(@x.@y) :- N(@x), N(@y), !T(@x.@y).`)
	edb := workload.Chain(6)
	for _, t := range edb.Relation("R").Tuples() {
		edb.AddPath("N", t[0][:1])
		edb.AddPath("N", t[0][1:])
	}
	sequential, err := Eval(prog, edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Eval(prog, edb, Limits{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !parallel.Equal(sequential) {
		t.Fatalf("stratified negation: %s", instance.Diff(parallel, sequential))
	}
	if parallel.Relation("U") == nil || parallel.Relation("U").Len() == 0 {
		t.Fatal("negation stratum derived nothing")
	}
}

// TestParallelLimitsTrip checks that the termination guards fire under
// parallel evaluation too: MaxFacts inside a round (worker budget) and
// at the barrier, and MaxIterations across rounds.
func TestParallelLimitsTrip(t *testing.T) {
	grow := parser.MustParseProgram(`
S(a).
S($x.a) :- S($x).`)
	if _, err := Eval(grow, instance.New(), Limits{MaxFacts: 100, Parallelism: 4}); !errors.Is(err, ErrNonTermination) {
		t.Fatalf("MaxFacts: got %v", err)
	}
	if _, err := Eval(grow, instance.New(), Limits{MaxIterations: 10, Parallelism: 4}); !errors.Is(err, ErrNonTermination) {
		t.Fatalf("MaxIterations: got %v", err)
	}
	if _, err := Eval(grow, instance.New(), Limits{MaxPathLen: 8, Parallelism: 4}); !errors.Is(err, ErrNonTermination) {
		t.Fatalf("MaxPathLen: got %v", err)
	}
}
