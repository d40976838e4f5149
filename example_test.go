package seqlog_test

import (
	_ "embed"
	"fmt"
	"log"

	"seqlog"
)

// The two example programs stay files, so `seqlog -vet` and
// TestExamplesVetClean hold them warning-clean.
var (
	//go:embed examples/quickstart/program.sdl
	onlyAsProgram string
	//go:embed examples/incremental/program.sdl
	reachabilityProgram string
)

// ExampleRewriteTo is Example 3.1's only-a's query, the whole API in one
// sitting: parse the {E} formulation (examples/quickstart/program.sdl,
// where one equation does the pattern matching), evaluate it, classify
// it into its fragment (§3), rewrite it with the Figure 3 planner, and
// check the answers against the rewritten program and against the
// paper's second formulation, the recursive {A, I, R} program
// registered as only-as-recursion.
func ExampleRewriteTo() {
	prog := seqlog.MustParse(onlyAsProgram)
	edb := seqlog.MustParseInstance(`
R(a.a.a).
R(a.b.a).
R(a).
R(eps).
`)
	rel, err := seqlog.Query(prog, edb, "S", seqlog.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("paths consisting only of a's:")
	for _, t := range rel.Sorted() {
		fmt.Printf("  %s\n", t[0])
	}

	fmt.Printf("\nfragment: %s\n", prog.Features())

	// Asked for {A, I, R}, the planner eliminates the equation
	// (Theorem 4.7) and needs no recursion: it lands in {A, I}.
	res, err := seqlog.RewriteTo(prog, "S", seqlog.Frag("AIR"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rewritten into %s by: %v\n", res.Achieved, res.Steps)
	fmt.Println("\nrewritten program:")
	fmt.Print(res.Program.String())
	rewritten, err := seqlog.Query(res.Program, edb, "S", seqlog.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsame answers after rewriting: %v\n", rel.Equal(rewritten))

	rec, err := seqlog.GetPaperQuery("only-as-recursion")
	if err != nil {
		log.Fatal(err)
	}
	recursive, err := seqlog.Query(rec.Program, edb, rec.Output, seqlog.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same answers from %s, fragment %s: %v\n", rec.Name, rec.Program.Features(), rel.Equal(recursive))
	// Output:
	// paths consisting only of a's:
	//   eps
	//   a
	//   a.a.a
	//
	// fragment: {E}
	// rewritten into {A, I} by: [eliminate-equations (Thm 4.7) prune-unreachable]
	//
	// rewritten program:
	// Eq1(a.$x, $x) :- R($x).
	// S($x) :- Eq1($x.a, $x).
	//
	// same answers after rewriting: true
	// same answers from only-as-recursion, fragment {A, I, R}: true
}

// ExampleHolds is §1's paths stored in the database, apart from any
// graph (the G-CORE motivation): the nodes that lie on every stored
// path, then graph reachability over edges encoded as length-2 paths
// (§5.1.1), a boolean query that no rewrite can express without
// recursion.
func ExampleHolds() {
	q, err := seqlog.GetPaperQuery("nodes-on-all-paths")
	if err != nil {
		log.Fatal(err)
	}
	paths := seqlog.MustParseInstance(`
P(amsterdam.brussels.paris).
P(berlin.brussels.paris).
P(brussels.paris.lyon).
`)
	rel, err := seqlog.Query(q.Program, paths, q.Output, seqlog.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("nodes on every stored path:")
	for _, t := range rel.Sorted() {
		fmt.Printf("  %s\n", t[0])
	}

	reach, err := seqlog.GetPaperQuery("reachability")
	if err != nil {
		log.Fatal(err)
	}
	graph := seqlog.MustParseInstance(`R(a.c). R(c.d). R(d.b). R(x.y).`)
	ok, err := seqlog.Holds(reach.Program, graph, reach.Output, seqlog.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nb reachable from a: %v\n", ok)

	// The Theorem 6.1 planner refuses to drop the recursion.
	_, err = seqlog.RewriteTo(reach.Program, reach.Output, seqlog.Frag("EIN"))
	fmt.Printf("rewrite into {E,I,N} refused: %v\n", err)
	// Output:
	// nodes on every stored path:
	//   brussels
	//   paris
	//
	// b reachable from a: true
	// rewrite into {E,I,N} refused: core: {I, R} is not subsumed by {E, I, N} (condition 2: recursion is primitive (Theorem 5.3))
}

// ExampleQuery is §1's JSON as sequences: an object is the set of its
// root-to-value key paths. Regrouping Sales (item → year → value) by
// year swaps the first two elements of every path, and two objects are
// deeply equal when their path sets are, which a rule with negation
// tests.
func ExampleQuery() {
	sales := seqlog.MustParseInstance(`
Sales(laptop.'2023'.'1200').
Sales(laptop.'2024'.'1500').
Sales(phone.'2023'.'800').
Sales(phone.'2024'.'950').
`)
	regroup, err := seqlog.GetPaperQuery("sales-by-year")
	if err != nil {
		log.Fatal(err)
	}
	rel, err := seqlog.Query(regroup.Program, sales, regroup.Output, seqlog.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sales regrouped by year:")
	for _, t := range rel.Sorted() {
		fmt.Printf("  %s\n", t[0])
	}

	deepEq, err := seqlog.GetPaperQuery("deep-unequal")
	if err != nil {
		log.Fatal(err)
	}
	objects := seqlog.MustParseInstance(`
J1(user.name.alice).
J1(user.age.'33').
J2(user.name.alice).
J2(user.age.'33').
`)
	differs, err := seqlog.Holds(deepEq.Program, objects, deepEq.Output, seqlog.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nobjects differ: %v\n", differs)

	objects.AddPath("J2", seqlog.PathOf("user", "city", "ghent"))
	differs, err = seqlog.Holds(deepEq.Program, objects, deepEq.Output, seqlog.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after adding user.city.ghent to J2, objects differ: %v\n", differs)
	// Output:
	// sales regrouped by year:
	//   2023.laptop.1200
	//   2023.phone.800
	//   2024.laptop.1500
	//   2024.phone.950
	//
	// objects differ: false
	// after adding user.city.ghent to J2, objects differ: true
}

// ExampleNewEngine is the serving side on §5.1.1 graph reachability, in
// the pair form T(from, to) of examples/incremental/program.sdl, which
// keeps every maintenance join on an exact index probe (`seqlog
// -explain` prints the plans). Compile the program once, keep a live
// engine at fixpoint, and feed it facts as they arrive (Assert) or are
// withdrawn (Retract): each batch derives only the consequences of the
// change, and a retraction keeps what still has another derivation
// (delete and rederive). Snapshots are copy-on-write states that no
// later write disturbs.
func ExampleNewEngine() {
	prep, err := seqlog.Compile(seqlog.MustParse(reachabilityProgram))
	if err != nil {
		log.Fatal(err)
	}
	engine, err := seqlog.NewEngine(prep, seqlog.MustParseInstance(`E(a.b). E(b.c). E(c.d).`), seqlog.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	facts := func() int {
		r, err := engine.Query("T")
		if err != nil {
			log.Fatal(err)
		}
		return r.Len()
	}
	fmt.Printf("initial: %d reachability facts\n", facts())

	// Taking a snapshot copies no tuple.
	snapshot, err := engine.Snapshot()
	if err != nil {
		log.Fatal(err)
	}

	// A dependency component (here the recursive T) whose inputs did not
	// change is skipped; the others are maintained incrementally.
	for _, batch := range []string{
		`E(d.e).`,         // extends the chain: 4 new facts, one per source
		`E(x.y).`,         // disjoint edge: exactly 1 new fact
		`E(d.e). E(x.y).`, // everything already known: no work at all
	} {
		stats, err := engine.Assert(seqlog.MustParseInstance(batch))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("assert %-20s -> asserted=%d derived=%d (skipped=%d incremental=%d)\n",
			batch, stats.Asserted, stats.Derived, stats.Skipped, stats.Incremental)
	}

	// With the shortcut a->c in place, cutting b->c leaves a's
	// reachability facts derivable, while T(b.c), T(b.d) and T(b.e)
	// disappear.
	if _, err := engine.Assert(seqlog.MustParseInstance(`E(a.c).`)); err != nil {
		log.Fatal(err)
	}
	rstats, err := engine.Retract(seqlog.MustParseInstance(`E(b.c).`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retract %-19s -> retracted=%d derived=%+d (skipped=%d incremental=%d)\n",
		`E(b.c).`, rstats.Retracted, rstats.Derived, rstats.Skipped, rstats.Incremental)

	fmt.Printf("now:     %d reachability facts\n", facts())
	fmt.Printf("snapshot taken before the asserts still sees %d\n", snapshot.Relation("T").Len())

	yes, err := engine.Holds("T")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("holds(T):", yes)
	// Output:
	// initial: 6 reachability facts
	// assert E(d.e).              -> asserted=1 derived=4 (skipped=0 incremental=1)
	// assert E(x.y).              -> asserted=1 derived=1 (skipped=0 incremental=1)
	// assert E(d.e). E(x.y).      -> asserted=0 derived=0 (skipped=1 incremental=0)
	// retract E(b.c).             -> retracted=1 derived=-3 (skipped=0 incremental=1)
	// now:     8 reachability facts
	// snapshot taken before the asserts still sees 6
	// holds(T): true
}
