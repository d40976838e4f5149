package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/value"
	"seqlog/internal/workload"
)

// factsInstance rebuilds an EDB from the seed instance plus the facts
// whose present flag is set.
func factsInstance(seeds *instance.Instance, facts []namedFact, present []bool) *instance.Instance {
	out := seeds.Clone()
	for i, f := range facts {
		if present[i] {
			out.Ensure(f.name, len(f.t)).Add(f.t)
		}
	}
	return out
}

// TestEngineRetractMatchesEval is the differential acceptance test of
// DRed maintenance: on every terminating example query of the paper,
// driving an Engine through random interleavings of retract and
// re-assert batches must leave exactly the least model the from-scratch
// evaluator computes on the surviving EDB — at every checkpoint, for
// several batch sizes.
func TestEngineRetractMatchesEval(t *testing.T) {
	edbs := agreementEDBs(t)
	for _, q := range queries.All() {
		if !q.Terminating {
			continue
		}
		edb, ok := edbs[q.Name]
		if !ok {
			t.Fatalf("query %s has no agreement EDB; add one to agreementEDBs", q.Name)
		}
		prep, err := Compile(q.Program)
		if err != nil {
			t.Fatalf("%s: Compile: %v", q.Name, err)
		}
		// seeds = EDB facts of IDB relations (never retractable); facts =
		// everything the engine can retract and re-assert.
		seeds, facts := splitEDB(edb, prep, 0, nil)
		for _, cfg := range []struct {
			batch int
			seed  int64
		}{
			{batch: 1, seed: 11},
			{batch: 3, seed: 12},
			{batch: 2, seed: 13},
			{batch: 1 << 30, seed: 14}, // one big batch
		} {
			rng := rand.New(rand.NewSource(cfg.seed))
			e, err := NewEngine(prep, edb, Limits{})
			if err != nil {
				t.Fatalf("%s %+v: NewEngine: %v", q.Name, cfg, err)
			}
			present := make([]bool, len(facts))
			for i := range present {
				present[i] = true
			}
			check := func(step string) {
				t.Helper()
				want, err := prep.Eval(factsInstance(seeds, facts, present), Limits{})
				if err != nil {
					t.Fatalf("%s %+v %s: Eval: %v", q.Name, cfg, step, err)
				}
				got := mustSnapshot(t, e)
				if !got.Equal(want) {
					t.Fatalf("%s %+v %s: engine differs from Eval: %s",
						q.Name, cfg, step, instance.Diff(got, want))
				}
			}
			// Retract everything in random order, checking after each
			// batch; midway, re-assert a random batch of removed facts.
			order := rng.Perm(len(facts))
			step := 0
			for len(order) > 0 {
				n := cfg.batch
				if n > len(order) {
					n = len(order)
				}
				delta := instance.New()
				for _, idx := range order[:n] {
					delta.Ensure(facts[idx].name, len(facts[idx].t)).Add(facts[idx].t)
					present[idx] = false
				}
				order = order[n:]
				if _, err := e.Retract(delta); err != nil {
					t.Fatalf("%s %+v: Retract: %v", q.Name, cfg, err)
				}
				check(fmt.Sprintf("retract step %d", step))
				// Every other batch, put a few removed facts back.
				if step%2 == 1 {
					back := instance.New()
					for i := range present {
						if !present[i] && rng.Intn(2) == 0 {
							back.Ensure(facts[i].name, len(facts[i].t)).Add(facts[i].t)
							present[i] = true
						}
					}
					if back.Facts() > 0 {
						if _, err := e.Assert(back); err != nil {
							t.Fatalf("%s %+v: re-Assert: %v", q.Name, cfg, err)
						}
						check(fmt.Sprintf("re-assert step %d", step))
					}
				}
				step++
			}
		}
	}
}

// TestEngineRetractRediscoversAlternatives pins the "rederive" in DRed:
// removing one of two derivations must keep the fact, removing the last
// one must drop it, and the stats must show the overdelete/rederive
// split.
func TestEngineRetractRediscoversAlternatives(t *testing.T) {
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	// A diamond: a->b->d and a->c->d, so T(a.d) has two derivations.
	e, err := NewEngine(prep, parser.MustParseInstance(`
R(a.b). R(b.d). R(a.c). R(c.d).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Retract(parser.MustParseInstance(`R(a.b).`))
	if err != nil {
		t.Fatal(err)
	}
	// T(a.b) and the boolean S (the query's third rule is S :- T(a.b))
	// are overdeleted — their derivations used the edge and nothing else
	// derives them. T(a.d) is a candidate too, but the well-founded
	// pruner keeps it outright: its alternative derivation through
	// T(a.c) uses only live, older facts, so it is never deleted and
	// never needs rederiving.
	if stats.Retracted != 1 || stats.Overdeleted != 2 || stats.Rederived != 0 || stats.Derived != -2 {
		t.Fatalf("stats = %+v, want 1 retracted, 2 overdeleted (T(a.b), S), none rederived, net -2", stats)
	}
	rel, err := e.Query("T")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"(a.c)": true, "(a.d)": true, "(b.d)": true, "(c.d)": true}
	if rel.Len() != len(want) {
		t.Fatalf("T = %v", rel.Sorted())
	}
	for _, tu := range rel.Tuples() {
		if !want["("+tu[0].String()+")"] {
			t.Fatalf("unexpected T fact %v", tu)
		}
	}
	// Removing the second path drops T(a.d) for good.
	stats, err = e.Retract(parser.MustParseInstance(`R(a.c).`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Overdeleted != 2 || stats.Rederived != 0 {
		t.Fatalf("stats = %+v, want 2 overdeleted (T(a.c), T(a.d)), none rederived", stats)
	}
	if rel, _ := e.Query("T"); rel.Len() != 2 {
		t.Fatalf("T = %v", rel.Sorted())
	}
}

// TestEngineRetractPrunesInsideTheChase: the pruner's goal check runs
// from inside the overdeletion chase's sink — a plan run inside a plan
// run, over the same relations T and R — and the reinsert phase then
// runs goal checks of its own. One retraction here needs all of it:
// T(a.h) is pruned (its other derivation, T(a.g)+R(g.h), is older than
// the fact), T(a.d) (birth 3) is not: its other derivation goes through
// T(a.c), born after it, and the proof cannot move T(a.c) below it —
// the chain a->c1->c2->c gives T(a.c1), T(a.c2) and T(a.c) the births
// 1, 2 and 3 at best. So T(a.d) is overdeleted and comes back by
// rederivation. A chase and a goal check sharing one run frame would
// continue the chase in the goal plan's steps; the result would not be
// Eval's.
func TestEngineRetractPrunesInsideTheChase(t *testing.T) {
	stats := retractMatchesEval(t, []string{`R(a.b). R(b.d).`, `R(b.h). R(a.g). R(g.h).`, `R(a.c1). R(c1.c2). R(c2.c). R(c.d).`},
		`R(a.b).`, `R(b.d). R(b.h). R(a.g). R(g.h). R(a.c1). R(c1.c2). R(c2.c). R(c.d).`)
	if stats.StampPruned == 0 || stats.Rederived == 0 {
		t.Fatalf("stats = %+v, want T(a.h) pruned inside the chase and T(a.d) rederived", stats)
	}
}

// retractMatchesEval builds an engine for the reachability query over
// the first batch, asserts each later batch, retracts retract and
// checks the result against Eval on the surviving edges. It returns
// the retraction's stats.
func retractMatchesEval(t *testing.T, batches []string, retract, surviving string) RetractStats {
	t.Helper()
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, parser.MustParseInstance(batches[0]), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[1:] {
		if _, err := e.Assert(parser.MustParseInstance(b)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := e.Retract(parser.MustParseInstance(retract))
	if err != nil {
		t.Fatal(err)
	}
	want, err := prep.Eval(parser.MustParseInstance(surviving), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustSnapshot(t, e); !got.Equal(want) {
		t.Fatal(instance.Diff(got, want))
	}
	return stats
}

// TestEngineRetractKnockOnRestoration pins that the reinsert phase's
// fixpoint chases the goal pass's restorations. Retracting a->d
// overdeletes T(a.d) (birth 1), then T(a.c) (birth 3, derived through
// T(a.d) and d->c); the pruner keeps neither, since their other
// supports T(a.c) and T(a.e3) were born after them, and no proof moves
// those below them: T(a.d) is in progress while T(a.c) is proved, and
// the chain a->e1->e2->e3 gives T(a.e3) the birth 3 at best. The goal
// pass checks T(a.d) first and finds nothing, because its only
// surviving derivation runs through the still-deleted T(a.c). It then
// restores T(a.c) through T(a.e3) and e3->c, and only the fixpoint,
// started before the goal pass, brings T(a.d) back through T(a.c) and
// c->d.
func TestEngineRetractKnockOnRestoration(t *testing.T) {
	stats := retractMatchesEval(t, []string{`R(a.d). R(d.c).`, `R(c.d).`, `R(a.e1). R(e1.e2). R(e2.e3). R(e3.c).`},
		`R(a.d).`, `R(d.c). R(c.d). R(a.e1). R(e1.e2). R(e2.e3). R(e3.c).`)
	if stats.Overdeleted != 2 || stats.Rederived < 2 || stats.Derived != 0 {
		t.Fatalf("stats = %+v, want T(a.d) and T(a.c) overdeleted and both restored", stats)
	}
}

// TestEngineRetractRestoredSkipsReaders: a retraction whose overdeleted
// facts all come back changes no relation its readers see, so the
// reader's component is skipped. Retracting a->b overdeletes T(a.b)
// (its other derivation, through T(a.x), is younger) and restores it;
// S, which reads T, is not maintained.
func TestEngineRetractRestoredSkipsReaders(t *testing.T) {
	stats := retractMatchesEval(t, []string{`R(a.b).`, `R(a.x). R(x.b).`}, `R(a.b).`, `R(a.x). R(x.b).`)
	if stats.Overdeleted != 1 || stats.Rederived != 1 || stats.Derived != 0 {
		t.Fatalf("stats = %+v, want T(a.b) overdeleted and restored", stats)
	}
	if stats.Skipped != 1 || stats.Incremental != 1 || stats.Plans.VariantRuns != 4 {
		t.Fatalf("stats = %+v, want S skipped: 1 skipped, 1 incremental, 4 variant runs", stats)
	}
}

// TestEngineRetractUnfoundedCycle pins the well-foundedness of the
// overdeletion pruner. With edges b->c, c->b (a cycle) and a->b (the
// only way in from a), retracting a->b must remove T(a.b) and T(a.c):
// each still has a body match through the other (T(a.b) via
// T(a.c)+R(c.b), T(a.c) via T(a.b)+R(b.c)), so a naive
// check-before-delete would keep both alive on circular justification.
// The pruner's older-position restriction rejects exactly those
// matches, the facts are overdeleted, and rederivation (correctly)
// finds nothing.
func TestEngineRetractUnfoundedCycle(t *testing.T) {
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	edb := parser.MustParseInstance(`R(b.c). R(c.b). R(a.b).`)
	e, err := NewEngine(prep, edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Retract(parser.MustParseInstance(`R(a.b).`)); err != nil {
		t.Fatal(err)
	}
	want, err := prep.Eval(parser.MustParseInstance(`R(b.c). R(c.b).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got := mustSnapshot(t, e)
	if !got.Equal(want) {
		t.Fatalf("unfounded facts survived the cycle: %s", instance.Diff(got, want))
	}
	for _, gone := range []string{"a.b", "a.c"} {
		p, _ := parser.ParsePath(gone)
		if got.Relation("T").Contains(instance.Tuple{p}) {
			t.Fatalf("T(%s) kept alive by circular justification", gone)
		}
	}
}

// TestEngineRetractSettledReader pins the unit of maintenance: the
// dependency component, not the stratum. S reads the recursive T but
// is not part of its recursion, so by the time S is maintained T is
// settled, and the pruner accepts any live T as support, whatever its
// birth. Retracting E(a.b) overdeletes T(a.b) alone; S(a) keeps its
// support T(a.d) even though T(a.d) was born after S(a). Had S shared
// a unit with T, T(a.d) would count as still in flux: S(a) would be
// overdeleted with T(a.b) and then rederived.
func TestEngineRetractSettledReader(t *testing.T) {
	prep, err := Compile(parser.MustParseProgram(`
T(@x.@y) :- E(@x.@y).
S(@x) :- T(@x.@y), M(@y).
T(@x.@z) :- T(@x.@y), E(@y.@z).`))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, parser.MustParseInstance(`E(a.b). E(a.c). E(c.d). M(b). M(d).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Retract(parser.MustParseInstance(`E(a.b).`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Overdeleted != 1 || stats.Rederived != 0 || stats.StampPruned != 1 {
		t.Fatalf("stats = %+v, want T(a.b) overdeleted and S(a) kept by the pruner", stats)
	}
	want, err := prep.Eval(parser.MustParseInstance(`E(a.c). E(c.d). M(b). M(d).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustSnapshot(t, e); !got.Equal(want) {
		t.Fatal(instance.Diff(got, want))
	}
}

// TestEngineRetractNegationEnablesDerivations: deleting a fact a rule
// negates must create the derivations the fact was blocking, and the
// new facts must cascade through later components.
func TestEngineRetractNegationEnablesDerivations(t *testing.T) {
	prog := parser.MustParseProgram(`
W(@x) :- R(@x.@y), !B(@y).
---
S(@x) :- R(@x.@y), !W(@x).`)
	prep, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	edb := `R(a.b). R(d.b). B(b).`
	e, err := NewEngine(prep, parser.MustParseInstance(edb), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// Initially nothing is white (all edges hit the black b), so every
	// edge source is in S.
	if rel, _ := e.Query("S"); rel.Len() != 2 {
		t.Fatalf("S = %v", rel.Sorted())
	}
	// Un-blacken b: W(a) and W(d) become derivable (insertions through
	// stratum 1's negation), which in turn invalidates S(a) and S(d)
	// (overdeletions through stratum 2's negation).
	stats, err := e.Retract(parser.MustParseInstance(`B(b).`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Retracted != 1 || stats.Derived != 0 || stats.Overdeleted != 2 {
		t.Fatalf("stats = %+v, want +2 W facts and -2 S facts (net 0, 2 overdeleted)", stats)
	}
	if rel, _ := e.Query("W"); rel.Len() != 2 {
		t.Fatalf("W = %v", rel.Sorted())
	}
	if rel, _ := e.Query("S"); rel.Len() != 0 {
		t.Fatalf("S = %v", rel.Sorted())
	}
	want, err := prep.Eval(parser.MustParseInstance(`R(a.b). R(d.b).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustSnapshot(t, e); !got.Equal(want) {
		t.Fatal(instance.Diff(got, want))
	}
}

// TestEngineRetractRestoredUnderNegation pins what a negated atom's
// delta reads in the reinsert phase: the net deletions, the positions
// left in the run's list. Retracting A(b) overdeletes C(b) (born before
// its other support C(a), so the pruner cannot keep it) and rederives
// it through C(a), L(a.b): its position leaves the list, and N(b),
// which C(b) blocks, must not appear.
func TestEngineRetractRestoredUnderNegation(t *testing.T) {
	prep, err := Compile(parser.MustParseProgram(`
C($x) :- A($x).
C($y) :- C($x), L($x.$y).
N($x) :- E($x), !C($x).`))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, parser.MustParseInstance(`A(b). A(a). L(a.b). E(b).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Retract(parser.MustParseInstance(`A(b).`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Overdeleted != 1 || stats.Rederived != 1 {
		t.Fatalf("stats = %+v, want C(b) overdeleted and rederived", stats)
	}
	if rel, err := e.Query("N"); err != nil || rel.Len() != 0 {
		t.Fatalf("N = %v, %v; want empty", rel.Sorted(), err)
	}
	want, err := prep.Eval(parser.MustParseInstance(`A(a). L(a.b). E(b).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustSnapshot(t, e); !got.Equal(want) {
		t.Fatal(instance.Diff(got, want))
	}
}

// TestEngineRetractSeedsSurvive: retraction can never remove
// EDB-provided facts of IDB relations through the maintenance cascade,
// and retracting them directly is rejected like any IDB write.
func TestEngineRetractSeedsSurvive(t *testing.T) {
	prep, err := Compile(parser.MustParseProgram(`S($x) :- R($x).`))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, parser.MustParseInstance(`R(a). S(seed). S(a).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// S(a) is both seeded and derived; retracting R(a) must keep it (it
	// is a base fact) and keep S(seed).
	if _, err := e.Retract(parser.MustParseInstance(`R(a).`)); err != nil {
		t.Fatal(err)
	}
	rel, err := e.Query("S")
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("S = %v, want seed and a to survive", rel.Sorted())
	}
	if _, err := e.Retract(parser.MustParseInstance(`S(seed).`)); err == nil || !strings.Contains(err.Error(), "IDB") {
		t.Fatalf("retracting an IDB relation: err = %v", err)
	}
}

// TestEngineRetractValidation pins the Retract boundary: IDB names and
// arity clashes are rejected without breaking the engine, and batches
// of absent facts are silent no-ops that skip every component.
func TestEngineRetractValidation(t *testing.T) {
	prep, err := Compile(parser.MustParseProgram(`S($x) :- R($x).`))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, parser.MustParseInstance(`R(a).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Retract(parser.MustParseInstance(`S(a).`)); err == nil || !strings.Contains(err.Error(), "IDB") {
		t.Fatalf("IDB retract: err = %v", err)
	}
	bad := instance.New()
	bad.Add("R", instance.Tuple{value.PathOf("a"), value.PathOf("b")})
	if _, err := e.Retract(bad); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("arity clash: err = %v", err)
	}
	stats, err := e.Retract(parser.MustParseInstance(`R(zz). Unknown(q).`))
	if err != nil {
		t.Fatalf("absent facts must be dropped silently: %v", err)
	}
	if stats.Retracted != 0 || stats.Skipped != 1 || stats.Incremental != 0 {
		t.Fatalf("stats = %+v, want a full skip", stats)
	}
	// The engine stays healthy throughout.
	if rel, err := e.Query("S"); err != nil || rel.Len() != 1 {
		t.Fatalf("engine unusable after rejected batches: %v", err)
	}
}

// TestEngineRetractAssertRoundTrip: retracting facts and asserting them
// back restores exactly the original materialization, across enough
// cycles to trip the tombstone compaction policy.
func TestEngineRetractAssertRoundTrip(t *testing.T) {
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	edb := workload.Graph(33, 12, 30)
	e, err := NewEngine(prep, edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	want := mustSnapshot(t, e)
	var batch []namedFact
	for _, tu := range edb.Relation("R").Tuples() {
		batch = append(batch, namedFact{"R", tu})
	}
	for cycle := 0; cycle < 4; cycle++ {
		// Retract half the edges (well past the 25% compaction
		// threshold for T), then put them back.
		delta := instance.New()
		for i, f := range batch {
			if i%2 == cycle%2 {
				delta.Ensure(f.name, len(f.t)).Add(f.t)
			}
		}
		if _, err := e.Retract(delta); err != nil {
			t.Fatalf("cycle %d: Retract: %v", cycle, err)
		}
		if _, err := e.Assert(delta); err != nil {
			t.Fatalf("cycle %d: Assert: %v", cycle, err)
		}
		if got := mustSnapshot(t, e); !got.Equal(want) {
			t.Fatalf("cycle %d: round trip drifted: %s", cycle, instance.Diff(got, want))
		}
	}
}

// TestEngineConcurrentSnapshotQueryDuringRetract is the -race test of
// retraction: readers continuously take snapshots, probe membership and
// build lazy indexes while a writer alternates retracts and asserts.
// Snapshots must stay internally consistent (every live tuple findable
// through a lazily built index) and the final state must equal
// from-scratch evaluation.
func TestEngineConcurrentSnapshotQueryDuringRetract(t *testing.T) {
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, chainEDB(0, 32), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := e.Snapshot()
				if err != nil {
					panic(err)
				}
				tr := snap.Relation("T")
				if tr == nil || tr.Len() == 0 {
					continue
				}
				live := tr.Tuples()
				for k := 0; k < 8; k++ {
					tu := live[rng.Intn(len(live))]
					if pos := tr.Index(0).Lookup(nil, instance.View{}, tu[0]); len(pos) == 0 {
						panic("index lost a live tuple present in the snapshot")
					}
					if !tr.Contains(tu) {
						panic("membership lost a live tuple present in the snapshot")
					}
				}
				if _, err := e.Query("T"); err != nil {
					panic(err)
				}
			}
		}(int64(r))
	}
	// Alternate retracting and re-asserting tail edges, shrinking the
	// chain overall so tombstones accumulate and compaction triggers.
	for i := 31; i >= 8; i-- {
		delta := instance.New()
		delta.AddPath("R", value.PathOf(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)))
		if _, err := e.Retract(delta); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if _, err := e.Assert(delta); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Retract(delta); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	want, err := prep.Eval(chainEDB(0, 8), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustSnapshot(t, e); !got.Equal(want) {
		t.Fatal(instance.Diff(got, want))
	}
}

// TestEngineRetractIsDeltaDriven pins the cost model: retracting an
// edge whose downward closure is small must do work proportional to
// that closure, not to the materialization.
func TestEngineRetractIsDeltaDriven(t *testing.T) {
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	edb := chainEDB(0, 64)
	edb.AddPath("R", value.PathOf("zz0", "zz1"))
	e, err := NewEngine(prep, edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// The disjoint edge supports exactly one closure fact.
	delta := instance.New()
	delta.AddPath("R", value.PathOf("zz0", "zz1"))
	stats, err := e.Retract(delta)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Overdeleted != 1 || stats.Rederived != 0 || stats.Derived != -1 {
		t.Fatalf("stats = %+v, want exactly one fact overdeleted", stats)
	}
	// Cutting the chain's last edge: 64 closure facts end at c64 and
	// none survives.
	delta = instance.New()
	delta.AddPath("R", value.PathOf("c63", "c64"))
	stats, err = e.Retract(delta)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Overdeleted != 64 || stats.Rederived != 0 {
		t.Fatalf("stats = %+v, want the 64 paths into c64 overdeleted", stats)
	}
}
