package seqlog

import (
	"fmt"
	"io"
	"runtime"
	"testing"
)

// TestAllocBudgets is the deterministic half of the perf record:
// allocations (and, for the snapshot-sharing worst case, bytes) per
// operation of the k=1 serving benchmark bodies and of Figure 2's
// unification, over a fixed 20 iterations, against fixed budgets. Wall
// time belongs to seqbench (bench/); allocation counts are a pure
// function of the code, so they gate here, on every platform `go test`
// runs on. An allocs/op budget is the
// measured figure plus about 25 % headroom, which also covers -race
// (docs/performance.md "Results (PR 37)" has the figures); raise one
// only with the reason in that section.
func TestAllocBudgets(t *testing.T) {
	const n = 20
	for _, tc := range []struct {
		series        string
		body          servingBody
		allocs, bytes uint64 // per-op budgets; 0 bytes: not gated
	}{
		// Each op asserts an edge between two fresh atoms: 50 allocs/op
		// measured, 53 under -race. Besides the write itself, a fresh atom
		// costs its symbol-table record, a weak handle, a bucket in the
		// table and a cleanup (its closure and its argument); the cleanup
		// is a static function, since a method value or a generic one
		// would add a closure per atom (54 allocs/op).
		{"IncrementalAssert/incremental/k=1", assertBody(1), 63, 0},
		// A copying regression of the epoch-shared tuple log shows up in
		// B/op long before it shows up in wall time on a noisy runner. The
		// barrier's heir appends to the frozen tail and index tables in
		// place: 61 408 B/op measured (77 528 under -race, which adds 25 %
		// here). Copying the tail, re-absorbing the gap above a shared base
		// or flattening it (275 953 B/op) does not fit under the bound.
		// 63 allocs/op measured, 65 under -race: one fresh atom per op, as
		// above, and one allocation per new fact, its elements, since a
		// tuple's path headers are stored in its chunk (74 allocs/op with
		// a header array per fact).
		{"IncrementalAssert/incremental-interleaved/k=1", interleavedBody, 78, 85_000},
		// The bytes of long paths: a seq-window admit, one 32-atom string
		// and one 32-event log, derives tuples whose path elements are
		// most of its B/op. A Value is one word: 42 108 B/op measured,
		// 43 901 under -race; the budget is 5 % over 43 676, the -race
		// figure before path headers moved into the chunks. Two-word
		// (interface) path elements measure 53 374 B/op (55 167 under
		// -race): a revert fails the bound. 266 allocs/op measured, 272
		// under -race; a header array per new fact measures 308.
		{"IncrementalAssert/seq-window-admit", seqWindowBody, 335, 45_860},
		// The maintenance drivers live on the engine, the pruner's proofs
		// keep the candidates a retract used to overdelete and rebuild,
		// and a write's deletions are positions in the tuple log, not
		// copies into a relation of their own: 34 allocs and 59 535 B/op
		// measured, 37 and 76 014 under -race (51 / 60 396 and 56 /
		// 76 940 with the copies, which the allocs bound refuses).
		// Reachability's goal plan starts at R, outside the recursion;
		// checks that start at T measure 114 938 B/op (147 045 under
		// -race): a silent revert fails the bound.
		{"IncrementalRetract/retract/k=1", retractBody, 43, 81_000},
		// 52 allocs/op measured, 55 under -race (268 and 281 with the
		// deletions copied, 55 and 58 with a header array per new fact).
		{"IncrementalRetractMutual/retract-mutual/k=1", mutualBody, 65, 0},
		// ROADMAP item 4: a new path representation must leave associative
		// unification where it is (713 allocs/op measured).
		{"Figure2Unify", figure2Body, 800, 0},
		// A query reply costs what changed. Warm, the order is there and
		// facts are gathered from the chunks' text into one batch, whatever
		// the row count (1 alloc/op measured). After an assert the reply
		// pays the barrier — the chunk pointers, the heir appending in place
		// — the tail's text extended, and ONE new order array of 4 bytes per
		// position (≤ 17.7 kB of the 40 818 B/op measured, 13 allocs/op); a
		// second array, a copied tail or a flattened membership table does
		// not fit under the bound.
		{"QueryReply/warm", queryReplyBody(false), 4, 0},
		{"QueryReply/after-assert", queryReplyBody(true), 20, 51_000},
	} {
		op, restore := tc.body(t)
		var before, after runtime.MemStats
		var allocs, bytes uint64
		for i := 0; i < n; i++ {
			runtime.ReadMemStats(&before)
			op(i)
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
			if restore != nil {
				restore(i)
			}
		}
		allocs, bytes = allocs/n, bytes/n
		t.Logf("%s: %d allocs/op, %d B/op", tc.series, allocs, bytes)
		if allocs > tc.allocs {
			t.Errorf("%s: %d allocs/op, budget %d", tc.series, allocs, tc.allocs)
		}
		if tc.bytes > 0 && bytes > tc.bytes {
			t.Errorf("%s: %d B/op, budget %d", tc.series, bytes, tc.bytes)
		}
	}
}

// queryReplyBody is the read half of a serving loop on a 4 096-row
// binary relation that has been printed before: WriteFacts into
// io.Discard, either of the unchanged relation (warm) or — afterAssert —
// of the epoch a writer made from the frozen one with 16 fresh rows,
// which are built off the clock.
func queryReplyBody(afterAssert bool) servingBody {
	return func(tb testing.TB) (op, restore func(i int)) {
		inst := NewInstance()
		rows := func(tag string, n int) []Tuple {
			out := make([]Tuple, n)
			for k := range out {
				out[k] = Tuple{PathOf(fmt.Sprintf("%s%d", tag, k*2654435761%4096)), PathOf(fmt.Sprintf("%s%d", tag, k))}
			}
			return out
		}
		for _, t := range rows("n", 4096) {
			inst.Add("T", t)
		}
		reply := func() {
			r := inst.Relation("T")
			r.Freeze() // what Engine.Query does to the relation it hands out
			if err := r.WriteFacts(io.Discard, "T"); err != nil {
				tb.Fatal(err)
			}
		}
		reply()
		if !afterAssert {
			return func(int) { reply() }, nil
		}
		fresh := rows("warmup", 16)
		assertAndReply := func(int) {
			for _, t := range fresh {
				inst.Add("T", t) // the first one pays the barrier clone
			}
			reply()
		}
		// One warm-up epoch off the clock; steady state is every epoch
		// after it.
		assertAndReply(0)
		fresh = rows("e0_", 16)
		return assertAndReply, func(i int) { fresh = rows(fmt.Sprintf("e%d_", i+1), 16) }
	}
}
