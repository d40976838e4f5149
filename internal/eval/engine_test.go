package eval

import (
	"errors"
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

// namedFact is one (relation, tuple) pair of an EDB, for splitting an
// instance into an initial part and assert batches.
type namedFact struct {
	name string
	t    instance.Tuple
}

// splitEDB partitions the facts of edb: facts of IDB relations (seed
// facts the engine must receive at construction, since Assert rejects
// IDB names) plus the first `keep` non-IDB facts form the initial
// instance; the rest are returned in order as assertable facts.
func splitEDB(edb *instance.Instance, prep *Prepared, keep int, rng *rand.Rand) (*instance.Instance, []namedFact) {
	var facts []namedFact
	initial := instance.New()
	for _, name := range edb.Names() {
		r := edb.Relation(name)
		for _, t := range r.Tuples() {
			if prep.idb[name] {
				initial.Ensure(name, r.Arity).Add(t)
				continue
			}
			facts = append(facts, namedFact{name, t})
		}
	}
	if rng != nil {
		rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
	}
	if keep > len(facts) {
		keep = len(facts)
	}
	for _, f := range facts[:keep] {
		initial.Ensure(f.name, len(f.t)).Add(f.t)
	}
	return initial, facts[keep:]
}

// assertInBatches drives an engine through the remaining facts in
// batches of the given size, failing the test on any Assert error.
func assertInBatches(t *testing.T, e *Engine, rest []namedFact, batch int) {
	t.Helper()
	for len(rest) > 0 {
		n := batch
		if n > len(rest) {
			n = len(rest)
		}
		delta := instance.New()
		for _, f := range rest[:n] {
			delta.Ensure(f.name, len(f.t)).Add(f.t)
		}
		rest = rest[n:]
		if _, err := e.Assert(delta); err != nil {
			t.Fatalf("Assert: %v", err)
		}
	}
}

// mustSnapshot unwraps Engine.Snapshot for tests on healthy engines.
func mustSnapshot(t *testing.T, e *Engine) *instance.Instance {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return snap
}

// TestEngineAssertMatchesEval is the differential acceptance test of
// incremental maintenance: on every terminating example query of the
// paper, feeding the EDB to an Engine in batches — several initial
// splits, batch sizes and insertion orders — must
// materialize exactly the least model the from-scratch evaluator
// computes on the full EDB.
func TestEngineAssertMatchesEval(t *testing.T) {
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
		want, err := prep.Eval(edb, Limits{})
		if err != nil {
			t.Fatalf("%s: Eval: %v", q.Name, err)
		}
		for _, cfg := range []struct {
			keep, batch int
			seed        int64 // 0 = keep EDB order
		}{
			{keep: 0, batch: 1},
			{keep: 0, batch: 5, seed: 1},
			{keep: 7, batch: 3, seed: 2},
			{keep: 3, batch: 1 << 30, seed: 3}, // one big batch
			{keep: 0, batch: 4, seed: 4},
		} {
			var rng *rand.Rand
			if cfg.seed != 0 {
				rng = rand.New(rand.NewSource(cfg.seed))
			}
			initial, rest := splitEDB(edb, prep, cfg.keep, rng)
			e, err := NewEngine(prep, initial, Limits{})
			if err != nil {
				t.Fatalf("%s %+v: NewEngine: %v", q.Name, cfg, err)
			}
			assertInBatches(t, e, rest, cfg.batch)
			got := mustSnapshot(t, e)
			if !got.Equal(want) {
				t.Errorf("%s %+v: engine materialization differs from Eval: %s",
					q.Name, cfg, instance.Diff(got, want))
			}
			rel, err := e.Query(q.Output)
			if err != nil {
				t.Fatalf("%s %+v: Query: %v", q.Name, cfg, err)
			}
			if wr := want.Relation(q.Output); wr != nil && !rel.Equal(wr) {
				t.Errorf("%s %+v: Query(%s) differs", q.Name, cfg, q.Output)
			}
		}
	}
}

// TestEngineRandomizedInsertionOrders hammers one recursive query with
// many random permutations and batch sizes: transitive closure is
// where incremental semi-naive has the most ways to go wrong (every
// edge order exercises a different delta cascade).
func TestEngineRandomizedInsertionOrders(t *testing.T) {
	q, err := queries.Get("reachability")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	edb := workload.Graph(21, 14, 40)
	want, err := prep.Eval(edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		initial, rest := splitEDB(edb, prep, rng.Intn(10), rng)
		e, err := NewEngine(prep, initial, Limits{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertInBatches(t, e, rest, 1+rng.Intn(7))
		if got := mustSnapshot(t, e); !got.Equal(want) {
			t.Fatalf("trial %d: %s", trial, instance.Diff(got, want))
		}
	}
}

// TestEngineSkipsUntouchedStrata pins the stats contract: asserting
// facts that only one dependency component reads leaves the other
// components untouched, even though both share the program's one
// stratum.
func TestEngineSkipsUntouchedStrata(t *testing.T) {
	prog := parser.MustParseProgram(`
S($x) :- R($x).
U($x) :- Q($x).`)
	prep, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, parser.MustParseInstance(`R(a). Q(b).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Assert(parser.MustParseInstance(`Q(c). Q(d).`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Asserted != 2 || stats.Skipped != 1 || stats.Incremental != 1 {
		t.Fatalf("stats = %+v, want 2 asserted, 1 skipped, 1 incremental", stats)
	}
	if stats.Derived != 2 || stats.Overdeleted != 0 || stats.Rederived != 0 {
		t.Fatalf("stats = %+v, want Derived=2 and no DRed work", stats)
	}
	// A batch of already-known facts is a no-op: every component skipped.
	stats, err = e.Assert(parser.MustParseInstance(`Q(c). R(a).`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Asserted != 0 || stats.Skipped != 2 || stats.Derived != 0 {
		t.Fatalf("noop stats = %+v", stats)
	}
}

// TestEngineNegationMaintenance checks both negation regimes:
// asserting into a relation an earlier component negates invalidates
// previously derived facts — maintained by targeted overdelete +
// rederive, never recomputation — while asserting facts no negation
// touches derives delta-first only.
func TestEngineNegationMaintenance(t *testing.T) {
	// W = nodes with an edge to a non-black node; S = edge sources not
	// in W (Theorem 5.5 shape, see TestBlackNodesStratifiedNegation).
	prog := parser.MustParseProgram(`
W(@x) :- R(@x.@y), !B(@y).
---
S(@x) :- R(@x.@y), !W(@x).`)
	prep, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, parser.MustParseInstance(`R(a.b). R(a.c). R(d.b). B(b).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got := func() string {
		r, err := e.Query("S")
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, tup := range r.Sorted() {
			out = append(out, tup[0].String())
		}
		return fmt.Sprint(out)
	}
	if got() != "[d]" {
		t.Fatalf("S = %s, want [d]", got())
	}
	// c becomes black: a's last non-black edge target goes away. W(a)
	// is overdeleted (its only derivations used !B(c) or !B(b)), no
	// alternative derivation rederives it, and the net deletion of W(a)
	// enables S(a) through S's negation — all without recomputing
	// either component.
	stats, err := e.Assert(parser.MustParseInstance(`B(c).`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Incremental != 2 || stats.Overdeleted != 1 || stats.Rederived != 0 {
		t.Fatalf("stats = %+v, want 2 incremental components with 1 overdeletion", stats)
	}
	if stats.Derived != 0 { // -W(a) +S(a)
		t.Fatalf("stats = %+v, want net Derived=0 (one fact lost, one gained)", stats)
	}
	if got() != "[a d]" {
		t.Fatalf("after B(c): S = %s, want [a d]", got())
	}
	// Asserting an edge only changes R: W's component derives W(e)
	// delta-first; S's sees the W insertion under negation but
	// finds no materialized fact to invalidate (S(e) never held).
	stats, err = e.Assert(parser.MustParseInstance(`R(e.f).`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Incremental != 2 || stats.Overdeleted != 0 || stats.Derived != 1 {
		t.Fatalf("stats = %+v, want 2 incremental components, 1 derived (W(e)), nothing overdeleted", stats)
	}
	if got() != "[a d]" {
		t.Fatalf("after R(e.f): S = %s, want [a d]", got())
	}
	// Differential check against from-scratch on the accumulated EDB.
	want, err := prep.Eval(parser.MustParseInstance(`R(a.b). R(a.c). R(d.b). B(b). B(c). R(e.f).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if snap := mustSnapshot(t, e); !snap.Equal(want) {
		t.Fatalf("negation maintenance diverged: %s", instance.Diff(snap, want))
	}
}

// TestEngineSeedIDBFactsSurviveOverdeletion: EDB-provided facts of an
// IDB relation are base facts, not derivations — overdeletion must
// never remove them.
func TestEngineSeedIDBFactsSurviveOverdeletion(t *testing.T) {
	prog := parser.MustParseProgram(`
S($x) :- R($x), !B($x).`)
	prep, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	// S(seed) comes from the EDB, not from the rule.
	e, err := NewEngine(prep, parser.MustParseInstance(`R(a). R(b). S(seed).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := e.Assert(parser.MustParseInstance(`B(b).`))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Overdeleted != 1 || stats.Rederived != 0 || stats.Derived != -1 {
		t.Fatalf("stats = %+v, want S(b) overdeleted and not rederived", stats)
	}
	r, err := e.Query("S")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"seed": true, "a": true}
	if r.Len() != len(want) {
		t.Fatalf("S = %v", r.Sorted())
	}
	for _, tup := range r.Tuples() {
		if !want[tup[0].String()] {
			t.Fatalf("unexpected S fact %v", tup)
		}
	}
}

// TestEngineAssertErrors pins the validation at the Assert boundary.
func TestEngineAssertErrors(t *testing.T) {
	prep, err := Compile(parser.MustParseProgram(`S($x) :- R($x).`))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, parser.MustParseInstance(`R(a).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Assert(parser.MustParseInstance(`S(b).`)); err == nil || !strings.Contains(err.Error(), "IDB") {
		t.Fatalf("asserting into IDB relation: err = %v", err)
	}
	bad := instance.New()
	bad.Add("R", instance.Tuple{value.PathOf("a"), value.PathOf("b")})
	if _, err := e.Assert(bad); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("arity clash: err = %v", err)
	}
	// A failed validation is not a failed maintenance: the engine stays usable.
	if _, err := e.Assert(parser.MustParseInstance(`R(b).`)); err != nil {
		t.Fatalf("engine unusable after rejected batch: %v", err)
	}
	if r, _ := e.Query("S"); r.Len() != 2 {
		t.Fatalf("S = %v", r.Sorted())
	}
	// Asserting into a relation the program never mentions is fine.
	if _, err := e.Assert(parser.MustParseInstance(`Extra(x.y).`)); err != nil {
		t.Fatalf("unknown relation: %v", err)
	}
}

// TestEngineLimitsAcrossAsserts: MaxFacts caps the total materialized
// IDB facts; once maintenance trips it, the engine refuses further use.
func TestEngineLimitsAcrossAsserts(t *testing.T) {
	prog := parser.MustParseProgram(`
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).`)
	prep, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, workload.Chain(4), Limits{MaxFacts: 40})
	if err != nil {
		t.Fatal(err)
	}
	var tripErr error
	for i := 4; i < 40; i++ {
		delta := instance.New()
		delta.AddPath("R", value.PathOf(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)))
		if _, tripErr = e.Assert(delta); tripErr != nil {
			break
		}
	}
	if !errors.Is(tripErr, ErrNonTermination) {
		t.Fatalf("expected MaxFacts to trip across asserts, got %v", tripErr)
	}
	if _, err := e.Assert(instance.New()); err == nil {
		t.Fatal("broken engine must refuse further asserts")
	}
	if _, err := e.Query("T"); err == nil {
		t.Fatal("broken engine must refuse queries")
	}
	if _, err := e.Snapshot(); err == nil {
		t.Fatal("broken engine must refuse snapshots")
	}
}

// TestEngineSnapshotIsolation: a snapshot is a fixed state; asserts
// that happen after it never show through.
func TestEngineSnapshotIsolation(t *testing.T) {
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, workload.Chain(5), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	snap := mustSnapshot(t, e)
	tBefore := snap.Relation("T").Len()
	rel, err := e.Query("T")
	if err != nil {
		t.Fatal(err)
	}
	delta := instance.New()
	delta.AddPath("R", value.PathOf("x0", "x1"))
	delta.AddPath("R", value.PathOf("x1", "x2"))
	if _, err := e.Assert(delta); err != nil {
		t.Fatal(err)
	}
	if snap.Relation("T").Len() != tBefore || rel.Len() != tBefore {
		t.Fatalf("snapshot moved: %d -> %d", tBefore, snap.Relation("T").Len())
	}
	if cur := mustSnapshot(t, e).Relation("T").Len(); cur <= tBefore {
		t.Fatalf("engine did not grow: %d", cur)
	}
}

// chainEDB builds the path graph c_lo -> ... -> c_hi as length-2
// paths in R (workload.Chain renames its endpoints, so chains of
// different lengths would not extend each other).
func chainEDB(lo, hi int) *instance.Instance {
	inst := instance.New()
	for i := lo; i < hi; i++ {
		inst.AddPath("R", value.PathOf(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)))
	}
	return inst
}

// TestEngineConcurrentSnapshotQueryDuringAssert is the -race test of
// the serving story: readers continuously take snapshots, run
// membership probes and build lazy indexes while a writer asserts
// batch after batch. Readers must always observe a consistent
// transitive closure (every chain edge's closure fact present for the
// prefix their snapshot covers) and never a torn state.
func TestEngineConcurrentSnapshotQueryDuringAssert(t *testing.T) {
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, chainEDB(0, 8), Limits{})
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
				if tr == nil {
					continue
				}
				n := tr.Len()
				// Exercise probe paths, including lazy index builds, on
				// the shared frozen storage.
				for k := 0; k < 8; k++ {
					pos := tr.Index(0).Lookup(nil, instance.View{}, tr.TupleAt(rng.Intn(n))[0])
					if len(pos) == 0 {
						panic("index lost a tuple present in the snapshot")
					}
				}
				if rel, err := e.Query("T"); err != nil || rel.Len() < n {
					panic(fmt.Sprintf("Query regressed: %v len=%d want>=%d", err, rel.Len(), n))
				}
			}
		}(int64(r))
	}
	for i := 8; i < 48; i++ {
		delta := instance.New()
		delta.AddPath("R", value.PathOf(fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", i+1)))
		if _, err := e.Assert(delta); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// Final state must equal from-scratch evaluation of the full chain.
	want, err := prep.Eval(chainEDB(0, 48), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustSnapshot(t, e); !got.Equal(want) {
		t.Fatal(instance.Diff(got, want))
	}
}

// TestEngineIncrementalIsDeltaDriven pins the headline property:
// asserting one edge that only extends a short dangling chain derives
// only the handful of new closure facts, not the whole relation.
func TestEngineIncrementalIsDeltaDriven(t *testing.T) {
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, chainEDB(0, 64), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh disjoint edge: exactly one new closure fact.
	delta := instance.New()
	delta.AddPath("R", value.PathOf("zz0", "zz1"))
	stats, err := e.Assert(delta)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Derived != 1 || stats.Incremental != 2 {
		t.Fatalf("stats = %+v, want exactly 1 derived fact, T and its reader S maintained incrementally", stats)
	}
	// Extending the 64-chain at the tail: 65 new reachability facts
	// (one per node that now reaches the new endpoint), no more.
	delta = instance.New()
	delta.AddPath("R", value.PathOf("c64", "c65"))
	stats, err = e.Assert(delta)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Derived != 65 {
		t.Fatalf("stats = %+v, want exactly 65 new closure facts", stats)
	}
}

// TestEngineEpochHammerWithRetracts extends the serving -race story to
// the full write mix: snapshot readers pinned to their epoch's
// watermark keep probing (membership, lazy exact-index builds, full
// tombstone-view scans) while the writer cycles assert and retract
// epochs — retracts tombstone shared storage behind the Ensure
// barrier, and the engine's post-retract compaction rewrites chunks.
// Every reader must see exactly its epoch's closure, bit for bit,
// until the end.
func TestEngineEpochHammerWithRetracts(t *testing.T) {
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, chainEDB(0, 16), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	hold := make(chan struct{})
	for epoch := 0; epoch < 24; epoch++ {
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(snap *instance.Instance, seed int64) {
			defer wg.Done()
			tr := snap.Relation("T")
			want := tr.Len()
			rng := rand.New(rand.NewSource(seed))
			<-hold // maximize overlap with later write epochs
			for round := 0; round < 12; round++ {
				if tr.Len() != want {
					panic("snapshot closure size drifted")
				}
				live := 0
				for pos := 0; pos < tr.Size(); pos++ {
					if tr.Live(pos) {
						live++
					}
				}
				if live != want {
					panic("snapshot tombstone view drifted")
				}
				for k := 0; k < 4; k++ {
					probe := tr.TupleAt(rng.Intn(tr.Size()))
					if tr.Live(tr.Position(instance.View{}, probe.Hash(), probe)) != tr.Contains(probe) {
						panic("position/membership disagree on the snapshot")
					}
					if len(tr.Index(0).Lookup(nil, instance.View{}, probe[0])) == 0 && tr.Contains(probe) {
						panic("lazy index lost a live snapshot tuple")
					}
				}
			}
		}(snap, int64(epoch))

		// Alternate write epochs: grow the chain, then retract the
		// newest edges again (DRed + tombstones + compaction).
		lo := 16 + epoch*4
		if _, err := e.Assert(chainEDB(lo, lo+4)); err != nil {
			t.Fatal(err)
		}
		if epoch%3 == 2 {
			if _, err := e.Retract(chainEDB(lo+2, lo+4)); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Assert(chainEDB(lo+2, lo+4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(hold)
	wg.Wait()

	st := e.Stats()
	if st.Clones.BarrierClones == 0 || st.Clones.SharedChunks == 0 {
		t.Fatalf("epochs must have exercised the write barrier: %+v", st.Clones)
	}
	want, err := prep.Eval(chainEDB(0, 16+24*4), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustSnapshot(t, e); !got.Equal(want) {
		t.Fatal(instance.Diff(got, want))
	}
}

// TestEngineCloneTelemetry pins the per-call clone counters: the first
// write after a snapshot pays barrier clones, the same write without an
// intervening snapshot pays none, and the engine totals accumulate.
func TestEngineCloneTelemetry(t *testing.T) {
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prep, chainEDB(0, 8), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	stats, err := e.Assert(chainEDB(8, 9))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Clones.BarrierClones == 0 {
		t.Fatalf("first write after a snapshot must clone: %+v", stats.Clones)
	}
	stats, err = e.Assert(chainEDB(9, 10))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Clones.BarrierClones != 0 {
		t.Fatalf("write without an intervening snapshot must not clone: %+v", stats.Clones)
	}
	if _, err := e.Snapshot(); err != nil {
		t.Fatal(err)
	}
	rstats, err := e.Retract(chainEDB(9, 10))
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Clones.BarrierClones == 0 {
		t.Fatalf("first retract after a snapshot must clone: %+v", rstats.Clones)
	}
	if tot := e.Stats().Clones; tot.BarrierClones < stats.Clones.BarrierClones+rstats.Clones.BarrierClones {
		t.Fatalf("engine totals must accumulate per-call deltas: %+v", tot)
	}
}

// TestEngineWriteShell runs one table of scenarios through both write
// verbs: everything around the append/delete step — the sticky-error
// check, batch validation, the probe before the copy-on-write barrier,
// the nothing-changed fast path, the call counters — is one code path,
// and must behave the same whichever direction the batch goes.
// withoutTimes returns st with its phase durations zeroed, so stats
// values compare by their counters alone.
func withoutTimes(st MaintenanceStats) MaintenanceStats {
	st.Validate, st.Barrier, st.Overdelete, st.Reinsert, st.Compact = 0, 0, 0, 0, 0
	return st
}

func TestEngineWriteShell(t *testing.T) {
	type result struct {
		changed int
		MaintenanceStats
	}
	verbs := []struct {
		name  string
		noop  string // a batch that changes nothing: present facts / absent facts
		write func(*Engine, *instance.Instance) (result, error)
		calls func(EngineStats) int
	}{
		{"assert", `R(a). R(b).`,
			func(e *Engine, d *instance.Instance) (result, error) {
				st, err := e.Assert(d)
				return result{st.Asserted, st.MaintenanceStats}, err
			},
			func(s EngineStats) int { return s.Asserts }},
		{"retract", `R(y). R(z).`,
			func(e *Engine, d *instance.Instance) (result, error) {
				st, err := e.Retract(d)
				return result{st.Retracted, st.MaintenanceStats}, err
			},
			func(s EngineStats) int { return s.Retracts }},
	}
	scenarios := []struct {
		name    string
		batch   string // "" = the verb's no-op batch
		broken  bool   // break the engine first (MaxFacts trips)
		wantErr string // substring; "" = success with nothing changed
	}{
		{name: "no-op batch after a snapshot"},
		{name: "empty batch", batch: ` `},
		{name: "IDB relation", batch: `S(a).`, wantErr: " IDB relation \"S\""},
		{name: "arity clash", batch: `R(a, b).`, wantErr: "ing arity-2 tuples of relation \"R\" used with arity 1"},
		{name: "broken engine", broken: true, wantErr: "maintenance failed"},
	}
	prep, err := Compile(parser.MustParseProgram(`S($x) :- R($x).`))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range verbs {
		for _, sc := range scenarios {
			t.Run(v.name+"/"+sc.name, func(t *testing.T) {
				limits := Limits{}
				if sc.broken {
					limits.MaxFacts = 2
				}
				e, err := NewEngine(prep, parser.MustParseInstance(`R(a). R(b).`), limits)
				if err != nil {
					t.Fatal(err)
				}
				if sc.broken {
					// The third derived fact trips the limit mid-maintenance.
					if _, err := e.Assert(parser.MustParseInstance(`R(c).`)); !errors.Is(err, ErrNonTermination) {
						t.Fatalf("limit did not trip: %v", err)
					}
				} else if _, err := e.Snapshot(); err != nil { // freeze every relation
					t.Fatal(err)
				}
				batch := sc.batch
				if batch == "" {
					batch = v.noop
				}
				got, err := v.write(e, parser.MustParseInstance(batch))
				calls := v.calls(e.Stats())
				if sc.wantErr != "" {
					want := sc.wantErr
					if !sc.broken {
						want = v.name + want // validation errors name the verb
					}
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("err = %v, want %q", err, want)
					}
					if calls != 0 {
						t.Fatalf("a refused batch counted as a completed call: %d", calls)
					}
					// A failed validation is not a failed maintenance.
					if _, qerr := e.Query("S"); (qerr != nil) != sc.broken {
						t.Fatalf("engine health after the refusal: %v", qerr)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				// Nothing changed: every component skipped and, although every
				// relation is frozen, nothing passed through the barrier. The
				// phase durations are wall time; they are compared zeroed.
				if got.Validate < 0 || got.Barrier < 0 || got.Overdelete != 0 || got.Reinsert != 0 || got.Compact != 0 {
					t.Fatalf("phase durations of a no-op batch: %+v", got.MaintenanceStats)
				}
				got.MaintenanceStats = withoutTimes(got.MaintenanceStats)
				if want := (result{0, MaintenanceStats{Skipped: 1}}); got != want {
					t.Fatalf("got %+v, want %+v", got, want)
				}
				if calls != 1 {
					t.Fatalf("Stats() = %d calls, want 1", calls)
				}
			})
		}
	}
	// A relation the program never mentions: asserting creates it,
	// retracting from it before that is a no-op — neither is an error.
	e, err := NewEngine(prep, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	extra := parser.MustParseInstance(`Extra(x.y).`)
	if st, err := e.Retract(extra); err != nil || st.Retracted != 0 {
		t.Fatalf("retract from an unknown relation: %+v, %v", st, err)
	}
	if st, err := e.Assert(extra); err != nil || st.Asserted != 1 || st.Skipped != 1 {
		t.Fatalf("assert into an unknown relation: %+v, %v", st, err)
	}
	if st, err := e.Retract(extra); err != nil || st.Retracted != 1 {
		t.Fatalf("retract the fact back out: %+v, %v", st, err)
	}
}
