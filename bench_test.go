// Benchmarks regenerating the paper's figures and worked examples (E1 to
// E12 below name the figure, example or theorem each one runs), then
// the evaluator and serving series. Measured results are recorded in
// docs/performance.md; wall-clock claims are made with seqbench
// (bench/README.md), allocation gates are TestAllocBudgets.
package seqlog

import (
	"fmt"
	"testing"

	"seqlog/internal/algebra"
	"seqlog/internal/core"
	"seqlog/internal/eval"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/rewrite"
	"seqlog/internal/unify"
	"seqlog/internal/workload"
)

// E1 — Figure 1: the lattice of fragment equivalence classes.
func BenchmarkFigure1Lattice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := core.BuildLattice()
		if len(l.Classes) != 11 {
			b.Fatal("wrong class count")
		}
	}
}

// E2 — Figure 2: associative unification of $x.<@y.$z>.@w = $u.$v.$u.
// ROADMAP item 4 gates on its allocations; TestAllocBudgets holds them.
func BenchmarkFigure2Unify(b *testing.B) { runServing(b, figure2Body) }

func figure2Body(tb testing.TB) (op, restore func(i int)) {
	rules, err := parser.ParseRules(`X($x.<@y.$z>.@w, $u.$v.$u).`)
	if err != nil {
		tb.Fatal(err)
	}
	head := rules[0].Head
	eq := unify.Equation{L: head.Args[0], R: head.Args[1]}
	return func(int) {
		if res := unify.Solve(eq, unify.Options{}); len(res.Solutions) != 4 {
			tb.Fatalf("got %d solutions", len(res.Solutions))
		}
	}, nil
}

// E3 — Figure 3: the rewrite planner across fragment targets.
func BenchmarkFigure3Planner(b *testing.B) {
	prog := MustParse(`S($x) :- R($x), a.$x = $x.a.`)
	targets := []Fragment{Frag("AIR"), Frag("I"), Frag("EINR"), Frag("E")}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tgt := range targets {
			if _, err := rewrite.ToFragment(prog, "S", tgt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// E4 — Example 3.1: only-a's, equation versus recursion formulation.
func benchQueryOnInstance(b *testing.B, name string, edb *Instance) {
	q, err := queries.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Query(q.Program, edb, q.Output, eval.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOnlyAsEquation(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			benchQueryOnInstance(b, "only-as-equation", workload.OnlyAs(1, "R", 16, n))
		})
	}
}

func BenchmarkOnlyAsRecursion(b *testing.B) {
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			benchQueryOnInstance(b, "only-as-recursion", workload.OnlyAs(1, "R", 16, n))
		})
	}
}

// E5 — Example 4.3: reversal with and without arity.
func BenchmarkReverseArity(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			benchQueryOnInstance(b, "reverse-arity", workload.Strings(2, "R", 8, n, workload.Alphabet(3)))
		})
	}
}

func BenchmarkReverseNoArity(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			benchQueryOnInstance(b, "reverse-noarity", workload.Strings(2, "R", 8, n, workload.Alphabet(3)))
		})
	}
}

// E6 — Lemma 4.5 / Example 4.6: equation elimination, transformation
// cost and evaluation overhead.
func BenchmarkEquationEliminationTransform(b *testing.B) {
	q, _ := queries.Get("mirror-nonequal")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.EliminateEquations(q.Program); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMirrorOriginal(b *testing.B) {
	benchQueryOnInstance(b, "mirror-nonequal", workload.Strings(3, "R", 10, 6, workload.Alphabet(3)))
}

func BenchmarkMirrorEquationFree(b *testing.B) {
	q, _ := queries.Get("mirror-nonequal")
	prog, err := rewrite.EliminateEquations(q.Program)
	if err != nil {
		b.Fatal(err)
	}
	edb := workload.Strings(3, "R", 10, 6, workload.Alphabet(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Query(prog, edb, "S", eval.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E7 — Example 2.1: NFA acceptance scaling in string length.
func BenchmarkNFAAcceptance(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			benchQueryOnInstance(b, "nfa-accept", workload.NFA(4, 16, n))
		})
	}
}

// E8 — Example 2.2 / 4.14: the packed program, its 28-rule
// packing-free rewriting, and the transformation itself.
func BenchmarkPackingEliminationTransform(b *testing.B) {
	q, _ := queries.Get("three-occurrences")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := rewrite.EliminatePackingNonrecursive(q.Program, "A")
		if err != nil {
			b.Fatal(err)
		}
		if len(p.Rules()) != 28 {
			b.Fatalf("expected 28 rules (Example 4.14), got %d", len(p.Rules()))
		}
	}
}

func BenchmarkThreeOccurrencesPacked(b *testing.B) {
	benchQueryOnInstance(b, "three-occurrences", workload.SubstringHaystack(5, 12, 3, 2))
}

func BenchmarkThreeOccurrencesDepacked(b *testing.B) {
	q, _ := queries.Get("three-occurrences")
	prog, err := rewrite.EliminatePackingNonrecursive(q.Program, "A")
	if err != nil {
		b.Fatal(err)
	}
	edb := workload.SubstringHaystack(5, 12, 3, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(prog, edb, eval.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// E9 — Theorem 5.3: the squaring query; output grows as n².
func BenchmarkSquaring(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchQueryOnInstance(b, "squaring", workload.Repeated("R", "a", n))
		})
	}
}

// E10 — Theorem 7.1: Datalog evaluation versus the compiled algebra
// plan on the same query.
func BenchmarkAlgebraVsDatalog(b *testing.B) {
	prog := MustParse(`
T($x, $y) :- R($x.m.$y).
S($y) :- T($x, $y), Q($x).`)
	edb := workload.Strings(6, "R", 8, 5, []string{"a", "b", "m"})
	edb.Put("Q", workload.Strings(7, "Q", 8, 3, []string{"a", "b", "m"}).Relation("Q"))
	expr, err := algebra.Compile(prog, "S")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("datalog", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Query(prog, edb, "S", eval.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("algebra", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := algebra.Eval(expr, edb); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E11 — Theorem 4.15: the doubling simulation, transformation cost and
// simulated-versus-direct evaluation.
func BenchmarkDoublingSimulationTransform(b *testing.B) {
	q, _ := queries.Get("even-length-packed")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.SimulatePackingDoubled(q.Program, "S", rewrite.DefaultDoubleMarkers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDoublingSimulated(b *testing.B) {
	q, _ := queries.Get("even-length-packed")
	prog, err := rewrite.SimulatePackingDoubled(q.Program, "S", rewrite.DefaultDoubleMarkers)
	if err != nil {
		b.Fatal(err)
	}
	edb := workload.Strings(8, "R", 4, 4, workload.Alphabet(2))
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Query(q.Program, edb, "S", eval.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("doubled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Query(prog, edb, "S", eval.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E12 — Lemma 5.4: sequence program versus its classical translation
// on two-bounded graph instances.
func BenchmarkTwoBoundedSimulation(b *testing.B) {
	q, _ := queries.Get("reachability")
	classical, err := rewrite.ToClassical(q.Program)
	if err != nil {
		b.Fatal(err)
	}
	edb := workload.Graph(9, 24, 60)
	enc, err := rewrite.EncodeTwoBounded(edb)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequence", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Eval(q.Program, edb, eval.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("classical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Eval(classical, enc, eval.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Evaluator scaling: transitive closure over chains (semi-naive
// fixpoint depth).
func BenchmarkTransitiveClosure(b *testing.B) {
	q, _ := queries.Get("reachability")
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			edb := workload.Chain(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Eval(q.Program, edb, eval.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Application workloads from §1.
func BenchmarkProcessMining(b *testing.B) {
	benchQueryOnInstance(b, "process-mining", workload.EventLogs(10, "L", 20, 8))
}

func BenchmarkDeepEqual(b *testing.B) {
	benchQueryOnInstance(b, "deep-unequal", workload.TwoJSONSets(11, 200, 4, true))
}

func BenchmarkSalesRegroup(b *testing.B) {
	benchQueryOnInstance(b, "sales-by-year", workload.Sales(12, 40, 5))
}

// servingBody sets up one benchmark whose allocations are budgeted — a
// k=1-style serving series, the engine over its materialized closure,
// or Figure 2 — and returns the measured operation and, where steady
// state is restored off the clock, that step. The benchmarks and
// TestAllocBudgets (budgets_test.go) run the same bodies, so the
// deterministic gate measures exactly what the series report.
type servingBody func(tb testing.TB) (op, restore func(i int))

func runServing(b *testing.B, body servingBody) {
	op, restore := body(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
		if restore != nil {
			b.StopTimer()
			restore(i)
			b.StartTimer()
		}
	}
}

// reachability is the shared fixture: the graphpaths program and the
// 1k-edge graph.
func reachability(tb testing.TB) (*eval.Prepared, *Instance) {
	q, _ := queries.Get("reachability")
	prep, err := eval.Compile(q.Program)
	if err != nil {
		tb.Fatal(err)
	}
	return prep, workload.Graph(9, 200, 1000)
}

// serve returns a fresh engine at the fixpoint of prep over edb.
func serve(tb testing.TB, prep *eval.Prepared, edb *Instance) *eval.Engine {
	engine, err := eval.NewEngine(prep, edb, eval.Limits{})
	if err != nil {
		tb.Fatal(err)
	}
	return engine
}

// write applies one batch in one direction, failing the run on error.
func write[S any](tb testing.TB, apply func(*Instance) (S, error), delta *Instance) {
	if _, err := apply(delta); err != nil {
		tb.Fatal(err)
	}
}

// assertBody asserts k fresh edges per iteration (a disjoint chain
// segment, so the consequence set is the same size every iteration).
func assertBody(k int) servingBody {
	return func(tb testing.TB) (op, restore func(i int)) {
		prep, edb := reachability(tb)
		engine := serve(tb, prep, edb)
		return func(i int) {
			delta := NewInstance()
			for j := 0; j < k; j++ {
				delta.AddPath("R", PathOf(
					fmt.Sprintf("f%d_%d", i, j), fmt.Sprintf("f%d_%d", i, j+1)))
			}
			write(tb, engine.Assert, delta)
		}, nil
	}
}

// interleavedBody is the serving loop's worst case: each Query freezes
// the relations it returns, so the next assert's first write pays one
// copy-on-write epoch clone per touched relation — a freeze before
// every assert. The asserted edges form disjoint 64-edge chains (not
// one ever-growing chain) so per-op derivation work is bounded and the
// series isolates the barrier cost — an unbounded chain would make
// B/op a function of b.N and blow past MaxFacts at high iteration
// counts now that the barrier no longer dominates.
func interleavedBody(tb testing.TB) (op, restore func(i int)) {
	prep, edb := reachability(tb)
	engine := serve(tb, prep, edb)
	return func(i int) {
		if _, err := engine.Query("T"); err != nil {
			tb.Fatal(err)
		}
		delta := NewInstance()
		delta.AddPath("R", PathOf(
			fmt.Sprintf("g%d_%d", i/64, i%64), fmt.Sprintf("g%d_%d", i/64, i%64+1)))
		write(tb, engine.Assert, delta)
	}, nil
}

// retractBody retracts one real edge of the graph per iteration —
// overdeleting its downward closure and rederiving the paths that
// survive through alternative routes — and re-asserts it to restore
// steady state.
func retractBody(tb testing.TB) (op, restore func(i int)) {
	prep, edb := reachability(tb)
	engine := serve(tb, prep, edb)
	edges := edb.Relation("R").Tuples()
	edgeBatch := func(i int) *Instance {
		delta := NewInstance()
		delta.Ensure("R", 1).Add(edges[i%len(edges)])
		return delta
	}
	return func(i int) { write(tb, engine.Retract, edgeBatch(i)) },
		func(i int) { write(tb, engine.Assert, edgeBatch(i)) }
}

// mutualBody retracts one edge through a two-relation mutual-recursion
// closure (P and Q derive each other through alternating edge sets, so
// every overdeleted P fact cites Q facts and vice versa).
func mutualBody(tb testing.TB) (op, restore func(i int)) {
	prep, err := eval.Compile(MustParse(`
P(@x.@y) :- EA(@x.@y).
Q(@x.@z) :- P(@x.@y), EB(@y.@z).
P(@x.@z) :- Q(@x.@y), EA(@y.@z).`))
	if err != nil {
		tb.Fatal(err)
	}
	g := workload.Graph(9, 200, 1000)
	edb := NewInstance()
	ea, eb := edb.Ensure("EA", 1), edb.Ensure("EB", 1)
	for i, t := range g.Relation("R").Tuples() {
		if i%2 == 0 {
			ea.Add(t)
		} else {
			eb.Add(t)
		}
	}
	engine := serve(tb, prep, edb)
	eaEdges := edb.Relation("EA").Tuples()
	edgeBatch := func(i int) *Instance {
		delta := NewInstance()
		delta.Ensure("EA", 1).Add(eaEdges[i%len(eaEdges)])
		return delta
	}
	return func(i int) { write(tb, engine.Retract, edgeBatch(i)) },
		func(i int) { write(tb, engine.Assert, edgeBatch(i)) }
}

// seqWindowBody is seq-window's admit (bench/, "seq-window") on a
// smaller window: the engine holds nfa-accept and process-mining over
// 64 strings of 32 atoms in R and 64 event logs of 32 events in L, and
// each op asserts a new string and a new log, one write each. The
// restore step retracts both off the clock, so the window stays 64
// wide. Every derived fact is a long path (a string's S facts hold its
// 32 atoms split in two), so B/op is mostly path elements.
func seqWindowBody(tb testing.TB) (op, restore func(i int)) {
	prep, err := eval.Compile(MustParse(queries.NFAAccept.Program.String() + `
After($v) :- L($u.'complete order'.$v), $v = $w.'receive payment'.$z.
Bad($x) :- L($x), $x = $u.'complete order'.$v, !After($v).
OK($x) :- L($x), !Bad($x).`))
	if err != nil {
		tb.Fatal(err)
	}
	const window, fresh = 64, 64
	edb := workload.NFA(5, window, 32)
	for _, t := range workload.EventLogs(6, "L", window, 32).Relation("L").Tuples() {
		edb.Add("L", t)
	}
	engine := serve(tb, prep, edb)
	strs := workload.Strings(7, "R", fresh, 32, []string{"a", "b"}).Relation("R").Tuples()
	logs := workload.EventLogs(8, "L", fresh, 32).Relation("L").Tuples()
	facts := func(i int, rel string, ts []Tuple) *Instance {
		delta := NewInstance()
		delta.Ensure(rel, 1).Add(ts[i%len(ts)])
		return delta
	}
	return func(i int) {
			write(tb, engine.Assert, facts(i, "R", strs))
			write(tb, engine.Assert, facts(i, "L", logs))
		}, func(i int) {
			write(tb, engine.Retract, facts(i, "R", strs))
			write(tb, engine.Retract, facts(i, "L", logs))
		}
}

// Acceptance workload for the serving subsystem: incremental
// maintenance versus from-scratch re-evaluation on the 1k-edge
// graphpaths transitive closure. The engine materializes the closure
// once; each iteration then asserts k fresh edges and the engine
// derives only those consequences. The from-scratch baseline re-runs
// the full fixpoint on the same EDB plus one new edge, which is what a
// batch evaluator has to do per update. Measured results are in
// docs/performance.md ("Incremental maintenance").
func BenchmarkIncrementalAssert(b *testing.B) {
	for _, k := range []int{1, 8} {
		b.Run(fmt.Sprintf("incremental/k=%d", k), func(b *testing.B) { runServing(b, assertBody(k)) })
	}
	b.Run("incremental-interleaved/k=1", func(b *testing.B) { runServing(b, interleavedBody) })
	b.Run("seq-window-admit", func(b *testing.B) { runServing(b, seqWindowBody) })
	b.Run("fromscratch/k=1", func(b *testing.B) {
		prep, edb := reachability(b)
		full := edb.Clone()
		full.AddPath("R", PathOf("f0", "f1"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Eval(full, eval.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Acceptance workload for DRed retraction: withdrawing edges from the
// same materialized 1k-edge graphpaths closure, with the re-assert
// that restores steady state excluded from the timer. The from-scratch
// baseline is what a batch evaluator must do after a deletion: re-run
// the full fixpoint on the EDB minus the edge. The
// retract-assert-cycle variant times the whole withdraw-and-restore
// loop, the serving pattern for flapping facts. Measured results are
// in docs/performance.md ("Retraction").
func BenchmarkIncrementalRetract(b *testing.B) {
	b.Run("retract/k=1", func(b *testing.B) { runServing(b, retractBody) })
	b.Run("retract-assert-cycle/k=1", func(b *testing.B) {
		runServing(b, func(tb testing.TB) (op, restore func(i int)) {
			retract, assert := retractBody(tb)
			return func(i int) { retract(i); assert(i) }, nil
		})
	})
	b.Run("fromscratch/k=1", func(b *testing.B) {
		prep, edb := reachability(b)
		// The post-deletion EDB: everything except edge 0.
		rest := NewInstance()
		r := rest.Ensure("R", 1)
		for _, t := range edb.Relation("R").Tuples()[1:] {
			r.Add(t)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Eval(rest, eval.Limits{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Acceptance workload for the whole-stratum well-founded pruner (see
// mutualBody). The pruner walks the stamp order across BOTH relations
// to keep facts whose support chains bottom out in surviving edges;
// textbook DRed (overdelete everything reachable, rederive after),
// which the pre-stamp within-one-relation pruner degenerated to on
// mutual recursion, was measured as the retired retract-mutual-noprune
// series at PR 10. Measured results are in docs/performance.md
// ("Retraction").
func BenchmarkIncrementalRetractMutual(b *testing.B) {
	b.Run("retract-mutual/k=1", func(b *testing.B) { runServing(b, mutualBody) })
}
