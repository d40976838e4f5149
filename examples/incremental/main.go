// Incremental maintenance: the serving-side API. Instead of
// re-evaluating a program every time the data changes, compile it once
// (seqlog.Compile), keep a live engine at fixpoint (seqlog.NewEngine),
// and feed it facts as they arrive (Engine.Assert) or are withdrawn
// (Engine.Retract) — each batch seeds the semi-naive delta, so only
// the consequences of the change are derived; retraction runs
// delete-and-rederive, so derived facts with an alternative derivation
// survive the loss of one support. Readers meanwhile query
// copy-on-write snapshots that no update can disturb. The workload is
// §5.1.1 graph reachability — in the binary pair form T(from, to),
// which keeps every maintenance join on an exact index probe (see
// program.sdl; `seqlog -explain` prints each rule's delta-hoisted
// plan variants and their access paths, and `seqlog -vet` confirms
// the program carries no full-scan-delta warning).
package main

import (
	_ "embed"
	"fmt"
	"log"

	"seqlog"
)

//go:embed program.sdl
var program string

func main() {
	prep, err := seqlog.Compile(seqlog.MustParse(program))
	if err != nil {
		log.Fatal(err)
	}

	// The engine materializes the fixpoint over the initial EDB once.
	engine, err := seqlog.NewEngine(prep, seqlog.MustParseInstance(`
E(a.b). E(b.c). E(c.d).`), seqlog.Limits{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial: %d reachability facts\n", mustLen(engine, "T"))

	// A snapshot is a consistent frozen state: cheap to take (no tuple
	// is copied) and immune to everything asserted after it.
	snapshot, err := engine.Snapshot()
	if err != nil {
		log.Fatal(err)
	}

	// Assert new edges one batch at a time. The stats show the
	// incremental regime: dependency components (here the recursive T)
	// whose inputs didn't change are skipped, the rest derive only the
	// new consequences.
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
			batch, stats.Asserted, stats.Derived,
			stats.Skipped, stats.Incremental)
	}

	// Retract withdraws facts with delete-and-rederive maintenance: the
	// downward closure of the lost edge is overdeleted — except where
	// the well-founded pruner sees an alternative derivation from older
	// facts and keeps the fact outright — and anything overdeleted that
	// still has support gets rederived. Add a shortcut a->c first, so
	// cutting b->c shows it: a's reachability facts survive via the
	// shortcut (kept, so rederived stays 0), while T(b.c), T(b.d) and
	// T(b.e) genuinely disappear.
	if _, err := engine.Assert(seqlog.MustParseInstance(`E(a.c).`)); err != nil {
		log.Fatal(err)
	}
	rstats, err := engine.Retract(seqlog.MustParseInstance(`E(b.c).`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retract %-19s -> retracted=%d derived=%+d (overdeleted=%d rederived=%d)\n",
		`E(b.c).`, rstats.Retracted, rstats.Derived, rstats.Overdeleted, rstats.Rederived)

	fmt.Printf("now:     %d reachability facts\n", mustLen(engine, "T"))
	fmt.Printf("snapshot taken before the asserts still sees %d\n",
		snapshot.Relation("T").Len())

	// Boolean queries read the same materialization.
	yes, err := engine.Holds("T")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("holds(T):", yes)
}

func mustLen(e *seqlog.Engine, rel string) int {
	r, err := e.Query(rel)
	if err != nil {
		log.Fatal(err)
	}
	return r.Len()
}
