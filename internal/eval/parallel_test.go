package eval

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/workload"
)

// setProcs sets GOMAXPROCS, which is how many ways a from-scratch
// fixpoint splits its rounds, for the rest of the test. Tests that call
// it must not run in parallel with others.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelDeterminism pins the merge-order guarantee: evaluating
// the same program on 4 workers is not merely set-equal to the
// sequential pass — repeated runs produce byte-identical renderings
// (insertion order is a pure function of program, input and worker
// count, independent of scheduling). 50 repetitions give the race
// detector scheduling variety to bite on.
func TestParallelDeterminism(t *testing.T) {
	q, err := queries.Get("reachability")
	if err != nil {
		t.Fatal(err)
	}
	edb := workload.Graph(9, 30, 120)
	setProcs(t, 1)
	baseline, err := Eval(q.Program, edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	want := ""
	for i := 0; i < 50; i++ {
		out, err := Eval(q.Program, edb, Limits{})
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
// program alone — compiling reads no GOMAXPROCS — so rounds partitioned
// across workers execute the very same access paths as the sequential
// evaluator.
func TestParallelJoinPlansStable(t *testing.T) {
	q, err := queries.Get("reachability")
	if err != nil {
		t.Fatal(err)
	}
	explain := func() string {
		prep, err := Compile(q.Program)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(prep.Explain(), "\n")
	}
	setProcs(t, 1)
	first := explain()
	runtime.GOMAXPROCS(4)
	if again := explain(); again != first {
		t.Fatalf("join plans depend on GOMAXPROCS:\n%s\nvs\n%s", first, again)
	}
}

// TestParallelStratifiedNegation exercises the fan-out across strata:
// negated predicates resolve against relations completed by an earlier
// stratum, which no worker writes during the later stratum's rounds.
func TestParallelStratifiedNegation(t *testing.T) {
	prog := parser.MustParseProgram(`
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).
---
U(@x.@y) :- N(@x), N(@y), !T(@x.@y).
V(@x.@y) :- N(@x), N(@y), !T(@y.@x).`)
	edb := workload.Graph(9, 80, 120)
	for _, t := range edb.Relation("R").Tuples() {
		edb.AddPath("N", t[0][:1])
		edb.AddPath("N", t[0][1:])
	}
	setProcs(t, 1)
	sequential, err := Eval(prog, edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	parallel, err := Eval(prog, edb, Limits{})
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
// at the barrier, and MaxIterations across rounds. Every round doubles
// S, so the rounds that trip are wide enough to fan out.
func TestParallelLimitsTrip(t *testing.T) {
	grow := parser.MustParseProgram(`
S(a).
S($x.a) :- S($x).
S($x.b) :- S($x).`)
	setProcs(t, 4)
	if _, err := Eval(grow, instance.New(), Limits{MaxFacts: 200}); !errors.Is(err, ErrNonTermination) {
		t.Fatalf("MaxFacts: got %v", err)
	}
	if _, err := Eval(grow, instance.New(), Limits{MaxIterations: 10}); !errors.Is(err, ErrNonTermination) {
		t.Fatalf("MaxIterations: got %v", err)
	}
	if _, err := Eval(grow, instance.New(), Limits{MaxPathLen: 8}); !errors.Is(err, ErrNonTermination) {
		t.Fatalf("MaxPathLen: got %v", err)
	}
}

// TestMaintenanceNeverFansOut pins the other half of the rule: an
// engine's writes run inline whatever GOMAXPROCS is. A fanned-out round
// would cut the batch's insertion window into slices and count one plan
// execution per slice, so the stats of a 1 000-fact assert and of its
// retract must not depend on the core count. The engine starts empty,
// so its initial fixpoint (which does fan out) derives nothing.
func TestMaintenanceNeverFansOut(t *testing.T) {
	q, err := queries.Get("reachability")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	batch := workload.Graph(9, 60, 1500)
	stats := func(procs int) (AssertStats, RetractStats) {
		setProcs(t, procs)
		e, err := NewEngine(prep, nil, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		as, err := e.Assert(batch)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := e.Retract(batch)
		if err != nil {
			t.Fatal(err)
		}
		// The phase durations are wall time; the counters must agree.
		as.MaintenanceStats, rs.MaintenanceStats = withoutTimes(as.MaintenanceStats), withoutTimes(rs.MaintenanceStats)
		return as, rs
	}
	as1, rs1 := stats(1)
	if as1.Asserted < 1000 || rs1.Retracted != as1.Asserted {
		t.Fatalf("batch of %d facts, %d retracted; want ≥ 1000 both ways", as1.Asserted, rs1.Retracted)
	}
	if as4, rs4 := stats(4); as4 != as1 || rs4 != rs1 {
		t.Fatalf("maintenance depends on GOMAXPROCS:\nassert  1: %+v\nassert  4: %+v\nretract 1: %+v\nretract 4: %+v", as1, as4, rs1, rs4)
	}
}
