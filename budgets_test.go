package seqlog

import (
	"runtime"
	"testing"
)

// TestAllocBudgets is the deterministic half of the perf record:
// allocations (and, for the snapshot-sharing worst case, bytes) per
// operation of the k=1 serving benchmark bodies and of Figure 2's
// unification, over a fixed 20 iterations, against fixed budgets. Wall
// time belongs to seqbench (bench/); allocation counts are a pure
// function of the code, so they gate here, on every platform `go test`
// runs on. A budget is the
// measured figure plus headroom (docs/performance.md "PR 20" has the
// figures); raise one only with the reason in that section.
func TestAllocBudgets(t *testing.T) {
	const n = 20
	for _, tc := range []struct {
		series        string
		body          servingBody
		allocs, bytes uint64 // per-op budgets; 0 bytes: not gated
	}{
		{"IncrementalAssert/incremental/k=1", assertBody(1), 250, 0},
		// A copying regression of the epoch-shared tuple log shows up in
		// B/op long before it shows up in wall time on a noisy runner. The
		// bound keeps the 20 % over the measured figure (400 976 B/op)
		// that the archive's guard allowed; -race alone adds 8 %.
		{"IncrementalAssert/incremental-interleaved/k=1", interleavedBody, 4600, 480_000},
		{"IncrementalRetract/retract/k=1", retractBody, 2500, 0},
		{"IncrementalRetractMutual/retract-mutual/k=1", mutualBody, 6000, 0},
		// ROADMAP item 4: a new path representation must leave associative
		// unification where it is (713 allocs/op measured).
		{"Figure2Unify", figure2Body, 800, 0},
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
