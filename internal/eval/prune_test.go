package eval_test

// The overdeletion pruner's proofs (dred.go): founded across writes,
// and cheaper than the overdeletion they replace on the churn that
// motivated them.

import (
	"math/rand"
	"strings"
	"testing"

	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/workload"
)

// TestEngineRetractRebirthKeepsFoundedness pins the cross-write cycle a
// proof that keeps a candidate through a younger support must not
// leave behind. All five edges load at once, so T(a.y) is born second
// and T(a.x) fifth. Retracting a->y makes T(a.y) a candidate whose only
// other derivation runs through the younger T(a.x); the pruner proves
// T(a.x) from a->x and moves it to birth 1, below T(a.y). Retracting
// a->x then leaves T(a.x) and T(a.y) deriving only each other, and both
// must go. Kept without the new birth, T(a.x) would accept the older
// T(a.y) as its support and nothing would regenerate T(a.y); born at 0
// (max of no premises, without the + 1), it would fall outside the
// birth order and accept anything.
func TestEngineRetractRebirthKeepsFoundedness(t *testing.T) {
	q, _ := queries.Get("reachability")
	edb := `R(a.b). R(a.y). R(y.x). R(x.y). R(a.x).`
	eng, err := eval.FromSource(q.Program.String(), parser.MustParseInstance(edb), eval.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, retract := range []string{`R(a.y).`, `R(a.x).`} {
		st, err := eng.Retract(parser.MustParseInstance(retract))
		if err != nil {
			t.Fatal(err)
		}
		edb = strings.Replace(edb, " "+retract, "", 1)
		want, err := specEval(q.Program, parser.MustParseInstance(edb))
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := eng.Snapshot(); !got.Equal(want) {
			t.Fatalf("retract %s (stats %+v): engine ≠ reference: %s", retract, st, instance.Diff(got, want))
		}
	}
}

// TestRetractChurnProofCost replays the first churn cycles of the
// tc-retract-churn benchmark in process (seed 9: reachability on 200
// nodes and 1 000 edge draws, each edge retracted and put back in the
// order seed 10 permutes them) and counts, per retract, the facts
// overdeleted and the goal-plan runs (the pruner's checks, its proofs
// and the reinsert goal pass). The pruner without proofs overdeleted
// 40.4 facts and ran 906.4 goal plans a retract over these cycles.
func TestRetractChurnProofCost(t *testing.T) {
	const cycles, overdeletedBefore, goalRunsBefore = 400, 40.4, 906.4
	if raceBuild {
		t.Skip("the counts are a function of the code alone; the race detector adds ten seconds and nothing else")
	}
	q, _ := queries.Get("reachability")
	g := workload.Graph(9, 200, 1000)
	eng, err := eval.FromSource(q.Program.String(), g, eval.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Relation("R").Tuples()
	overdeleted, runs := 0, 0
	for _, i := range rand.New(rand.NewSource(10)).Perm(len(edges))[:cycles] {
		edge := instance.New()
		edge.Add("R", edges[i])
		before := eng.Stats().Plans.GoalRuns
		st, err := eng.Retract(edge)
		if err != nil {
			t.Fatal(err)
		}
		overdeleted, runs = overdeleted+st.Overdeleted, runs+eng.Stats().Plans.GoalRuns-before
		if _, err := eng.Assert(edge); err != nil {
			t.Fatal(err)
		}
	}
	perOverdeleted, perRuns := float64(overdeleted)/cycles, float64(runs)/cycles
	t.Logf("per retract: %.2f overdeleted, %.1f goal runs", perOverdeleted, perRuns)
	if perOverdeleted > overdeletedBefore/4 || perRuns >= goalRunsBefore {
		t.Errorf("per retract: %.2f overdeleted (want at most a quarter of %.1f), %.1f goal runs (want fewer than %.1f)",
			perOverdeleted, overdeletedBefore, perRuns, goalRunsBefore)
	}
}

// TestNonRecursiveProofRunsOnce: in a component whose rules read none
// of its own heads, the pruner's birth bound constrains no step, so the
// bounded check is its whole proof and no second goal run follows it;
// and since everything the component reads is final, that check has
// already refuted every candidate it overdeletes, so reinsert runs no
// goal pass there. Process-mining's After, Bad and S are three such
// components. Over a window of its logs sliding by admit/expire pairs,
// every overdeletion candidate costs one goal-plan run, in the pruner:
// 54 here. The proof's unbounded run repeated the first, one more per
// overdeleted fact, and so did the goal pass (106 goal runs).
func TestNonRecursiveProofRunsOnce(t *testing.T) {
	const window = 8
	q, _ := queries.Get("process-mining")
	logs := workload.EventLogs(22, "L", 40, 6).Relation("L").Tuples()
	edb := instance.New()
	for _, l := range logs[:window] {
		edb.Add("L", l)
	}
	eng, err := eval.FromSource(q.Program.String(), edb, eval.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	one := func(l instance.Tuple) *instance.Instance {
		d := instance.New()
		d.Add("L", l)
		return d
	}
	candidates, overdeleted, runs := 0, 0, 0
	for i := window; i < len(logs); i++ {
		before := eng.Stats().Plans.GoalRuns
		admit, err := eng.Assert(one(logs[i]))
		if err != nil {
			t.Fatal(err)
		}
		expire, err := eng.Retract(one(logs[i-window]))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []eval.MaintenanceStats{admit.MaintenanceStats, expire.MaintenanceStats} {
			candidates += st.Overdeleted + st.StampPruned
			overdeleted += st.Overdeleted
		}
		runs += eng.Stats().Plans.GoalRuns - before
	}
	t.Logf("%d admit/expire pairs: %d candidates, %d overdeleted, %d goal runs", len(logs)-window, candidates, overdeleted, runs)
	if overdeleted == 0 || runs != candidates {
		t.Errorf("%d goal runs for %d candidates and %d overdeleted, want %d", runs, candidates, overdeleted, candidates)
	}
}
