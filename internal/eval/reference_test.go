package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"seqlog/internal/fuzztest"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/workload"
)

// naiveEval is the reference evaluator the production one is pinned
// against: textbook naive evaluation. Stratum by stratum, as the
// program holds them, it plans each rule afresh with every step's
// access-path annotation cleared, so exec scans every relation, and
// repeats full (non-delta) rounds until no head relation grows. It shares the join order, the run frame, the
// matcher and derive with production, and nothing else: no index, no
// prefix or suffix probe, no delta variant, no window, no parallel
// merge.
func naiveEval(prep *Prepared, edb *instance.Instance, limits Limits) (*instance.Instance, error) {
	limits = limits.orDefault()
	inst := edb.Clone()
	derived := 0
	dr := &driver{inst: inst, limits: limits, derived: &derived}
	for si, stratum := range prep.prog.Strata {
		var plans []*plan
		for _, r := range stratum {
			scan, err := compilePlan(r, r.Vars(), nil, -1)
			if err != nil {
				return nil, err
			}
			for i := range scan.steps {
				s := &scan.steps[i]
				s.BoundCols, s.unboundCols, s.unboundArgs = nil, nil, nil
				s.PrefixCol, s.SuffixCol = -1, -1
			}
			plans = append(plans, scan)
		}
		for round := 0; ; round++ {
			if round >= limits.MaxIterations {
				return nil, fmt.Errorf("stratum %d: %w: %d naive rounds", si+1, ErrNonTermination, round)
			}
			before := derived
			for _, p := range plans {
				if err := dr.exec(workItem{plan: p}, dr.derive); err != nil {
					return nil, fmt.Errorf("stratum %d: %w", si+1, err)
				}
			}
			if derived == before {
				break
			}
		}
	}
	return inst, nil
}

// TestEvalMatchesNaiveReference checks that the production evaluator —
// indexed joins, delta-hoisted variants, rounds split GOMAXPROCS ways
// (go test -cpu 1,4 runs both the sequential and the fanned-out pass)
// — computes the same least model as the naive reference: on every
// terminating example query of the paper, on inputs wide enough for
// their rounds to fan out, and on the shadow EDB of the differential
// fuzzer's scenarios after every step.
func TestEvalMatchesNaiveReference(t *testing.T) {
	agree := func(t *testing.T, name string, edb *instance.Instance) {
		q, err := queries.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := Compile(q.Program)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := naiveEval(prep, edb, Limits{})
		if err != nil {
			t.Fatalf("%s (naive): %v", name, err)
		}
		got, err := prep.Eval(edb, Limits{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: Eval and the naive reference disagree: %s", name, instance.Diff(got, want))
		}
	}
	t.Run("queries", func(t *testing.T) {
		edbs := agreementEDBs(t)
		for _, q := range queries.All() {
			if !q.Terminating {
				continue
			}
			edb, ok := edbs[q.Name]
			if !ok {
				t.Fatalf("query %s has no agreement EDB; add one to agreementEDBs", q.Name)
			}
			agree(t, q.Name, edb)
		}
	})
	t.Run("wide", func(t *testing.T) {
		agree(t, "reachability", workload.Graph(9, 40, 160))
		agree(t, "nfa-accept", workload.NFA(4, 80, 6))
		agree(t, "reverse-arity", workload.Strings(2, "R", 80, 4, workload.Alphabet(3)))
		agree(t, "mirror-nonequal", workload.Strings(3, "R", 80, 4, workload.Alphabet(3)))
	})
	t.Run("scenarios", func(t *testing.T) {
		for seed := int64(0); seed < 120; seed++ {
			sc := fuzztest.GenScenario(rand.New(rand.NewSource(seed)))
			prep, err := Compile(parser.MustParseProgram(sc.Src))
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, sc.Src)
			}
			sh := fuzztest.NewShadow()
			for i, st := range sc.Steps {
				sh.Apply(st)
				got, err := prep.Eval(sh.EDB(), Limits{})
				if err != nil {
					t.Fatalf("seed %d step %d: Eval: %v\n%s%s", seed, i, err, sc.Src, sc.History(i))
				}
				want, err := naiveEval(prep, sh.EDB(), Limits{})
				if err != nil {
					t.Fatalf("seed %d step %d: naive: %v\n%s%s", seed, i, err, sc.Src, sc.History(i))
				}
				if d := instance.Diff(got, want); d != "" {
					t.Fatalf("seed %d step %d: Eval diverges from the naive reference: %s\n%s%s",
						seed, i, d, sc.Src, sc.History(i))
				}
			}
		}
	})
}
