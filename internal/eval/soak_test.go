package eval_test

// The intern tables under churn: an engine that is handed a stream of
// fresh values, and lets each go again, must not keep them.

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/value"
)

// TestFreshValuesReclaimed asserts and then retracts 10^5 fresh atoms
// and 10^5 fresh packed values, a thousand of each per write, and again
// ten thousand per write. Once the engine holds none of them, the
// runtime reclaims their records, and the intern tables give back the
// room a write's burst took: after a collection, HeapInuse may have
// grown by at most 2 MB, and the symbol table may hold at most 1 % more
// atoms than at the start.
func TestFreshValuesReclaimed(t *testing.T) {
	if raceBuild {
		t.Skip("the heap is a function of the code alone; the race detector adds ten seconds and nothing else")
	}
	for _, batch := range []int{1_000, 10_000} {
		t.Run(fmt.Sprintf("writes=%d", batch), func(t *testing.T) { freshValuesReclaimed(t, batch) })
	}
}

func freshValuesReclaimed(t *testing.T, batch int) {
	const n = 100_000
	eng, err := eval.FromSource("S($x) :- R($x).\nP($x) :- Q($x).", instance.New(), eval.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	tag := value.Intern("soak")
	heap0, syms0 := settled()
	for lo := 0; lo < n; lo += batch {
		delta := instance.New()
		for i := lo; i < lo+batch; i++ {
			delta.AddPath("R", value.PathOf(fmt.Sprintf("r%d", i)))
			delta.AddPath("Q", value.Path{value.Pack(value.Path{tag, value.Intern(fmt.Sprintf("q%d", i))})})
		}
		if _, err := eng.Assert(delta); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Retract(delta); err != nil {
			t.Fatal(err)
		}
	}
	var heap uint64
	var syms int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if heap, syms = settled(); heap <= heap0+2<<20 && syms <= syms0+syms0/100 {
			break
		}
	}
	t.Logf("HeapInuse %.1f → %.1f MB, %d → %d symbols", float64(heap0)/(1<<20), float64(heap)/(1<<20), syms0, syms)
	if heap > heap0+2<<20 || syms > syms0+syms0/100 {
		t.Errorf("after %d fresh atoms and packed values came and went: HeapInuse grew by %.1f MB (at most 2), symbols %d → %d (at most 1 %% more)",
			n, float64(heap-heap0)/(1<<20), syms0, syms)
	}
	runtime.KeepAlive(eng)
}

// settled collects garbage, gives the cleanups that queues time to
// drop the reclaimed records from the intern tables, collects again
// and reads HeapInuse and the symbol count.
func settled() (uint64, int) {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse, value.Symbols()
}
