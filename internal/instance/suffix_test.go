package instance

import (
	"fmt"
	"sync"
	"testing"

	"seqlog/internal/value"
)

func TestSuffixLookup(t *testing.T) {
	r := NewRelation(1)
	r.Add(tup(value.PathOf("a", "b", "c")))
	r.Add(tup(value.PathOf("b", "c")))
	r.Add(tup(value.PathOf("c", "b")))
	r.Add(tup(value.PathOf("c")))
	got := r.SuffixLookup(nil, View{}, 0, value.PathOf("c"))
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("SuffixLookup(c) = %v", got)
	}
	got = r.SuffixLookup(nil, View{}, 0, value.PathOf("b", "c"))
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("SuffixLookup(b.c) = %v", got)
	}
	// Tuples shorter than the suffix never match.
	if got := r.SuffixLookup(nil, View{}, 0, value.PathOf("a", "b", "c", "d")); len(got) != 0 {
		t.Fatalf("over-long suffix = %v", got)
	}
	// Catch-up after Add.
	r.Add(tup(value.PathOf("x", "b", "c")))
	if got := r.SuffixLookup(nil, View{}, 0, value.PathOf("b", "c")); len(got) != 3 || got[2] != 4 {
		t.Fatalf("post-Add SuffixLookup(b.c) = %v", got)
	}
	// Prefix and suffix indexes of the same (col, len) are independent:
	// a.b.c starts with a.b but does not end with it.
	if got := r.PrefixLookup(nil, View{}, 0, value.PathOf("a", "b")); len(got) != 1 || got[0] != 0 {
		t.Fatalf("PrefixLookup(a.b) = %v", got)
	}
	if got := r.SuffixLookup(nil, View{}, 0, value.PathOf("a", "b")); len(got) != 0 {
		t.Fatalf("SuffixLookup(a.b) = %v", got)
	}
}

func TestSuffixLookupColumnOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range suffix column must panic")
		}
	}()
	NewRelation(1).SuffixLookup(nil, View{}, 1, value.PathOf("a"))
}

func TestSuffixLookupEmptySuffixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty suffix probe must panic (caller should scan)")
		}
	}()
	NewRelation(1).SuffixLookup(nil, View{}, 0, nil)
}

// TestSuffixLookupTombstones: deletions filter out of SuffixLookup
// under the live view while a View{Dead: true} probe keeps seeing them
// (the DRed maintainer probes overdeleted facts through that view).
func TestSuffixLookupTombstones(t *testing.T) {
	r := NewRelation(1)
	r.Add(tup(value.PathOf("a", "z")))
	r.Add(tup(value.PathOf("b", "z")))
	if got := r.SuffixLookup(nil, View{}, 0, value.PathOf("z")); len(got) != 2 {
		t.Fatalf("pre-delete SuffixLookup = %v", got)
	}
	if !r.Delete(tup(value.PathOf("a", "z"))) {
		t.Fatal("delete failed")
	}
	if got := r.SuffixLookup(nil, View{}, 0, value.PathOf("z")); len(got) != 1 || got[0] != 1 {
		t.Fatalf("SuffixLookup must skip tombstones, got %v", got)
	}
	if got := r.SuffixLookup(nil, View{Dead: true}, 0, value.PathOf("z")); len(got) != 2 {
		t.Fatalf("SuffixLookup under View{Dead: true} must include tombstones, got %v", got)
	}
	// Re-adding appends at a fresh position; the index catches up and
	// the live probe sees exactly the live copies.
	r.Add(tup(value.PathOf("a", "z")))
	if got := r.SuffixLookup(nil, View{}, 0, value.PathOf("z")); len(got) != 2 || got[1] != 2 {
		t.Fatalf("post-re-add SuffixLookup = %v", got)
	}
}

// TestSuffixLookupCompact: Compact drops the lazily built suffix
// indexes along with the other secondary indexes; probes after it
// rebuild against the renumbered tuple log.
func TestSuffixLookupCompact(t *testing.T) {
	r := NewRelation(1)
	for k := 0; k < 8; k++ {
		r.Add(tup(value.PathOf(fmt.Sprint("x", k), "end")))
	}
	if got := r.SuffixLookup(nil, View{}, 0, value.PathOf("end")); len(got) != 8 {
		t.Fatalf("SuffixLookup = %v", got)
	}
	r.Delete(tup(value.PathOf("x2", "end")))
	r.Delete(tup(value.PathOf("x5", "end")))
	r.Compact()
	if r.Size() != 6 || r.Tombstones() != 0 {
		t.Fatalf("Compact: Size/Tombstones = %d/%d", r.Size(), r.Tombstones())
	}
	got := r.SuffixLookup(nil, View{}, 0, value.PathOf("end"))
	if len(got) != 6 {
		t.Fatalf("post-compact SuffixLookup = %v", got)
	}
	for _, pos := range got {
		if pos >= 6 {
			t.Fatalf("post-compact position %d out of the compacted log", pos)
		}
	}
}

// TestSuffixLookupFrozenShared: building a suffix index is a logical
// read, so it is allowed on a frozen relation shared with snapshots,
// and the Ensure write barrier's clone does not inherit (or corrupt)
// the original's index.
func TestSuffixLookupFrozenShared(t *testing.T) {
	i := New()
	i.Add("R", tup(value.PathOf("a", "z")))
	i.Add("R", tup(value.PathOf("b", "z")))
	snap := i.Snapshot() // freezes R, shares storage
	shared := snap.Relation("R")
	if !shared.Frozen() {
		t.Fatal("snapshot relation must be frozen")
	}
	if got := shared.SuffixLookup(nil, View{}, 0, value.PathOf("z")); len(got) != 2 {
		t.Fatalf("frozen SuffixLookup = %v", got)
	}
	// A write on the owning instance clones; the clone answers its own
	// suffix probes and the frozen original is undisturbed.
	i.Add("R", tup(value.PathOf("c", "z")))
	if got := i.Relation("R").SuffixLookup(nil, View{}, 0, value.PathOf("z")); len(got) != 3 {
		t.Fatalf("clone SuffixLookup = %v", got)
	}
	if got := shared.SuffixLookup(nil, View{}, 0, value.PathOf("z")); len(got) != 2 {
		t.Fatalf("frozen relation's index grew: %v", got)
	}
}

// TestSuffixLookupConcurrentLazyBuild hammers the lazy first build and
// catch-up from many goroutines against a frozen relation — the
// snapshot-serving pattern where concurrent readers race to create the
// same (col, len) suffix index. Run with -race in CI.
func TestSuffixLookupConcurrentLazyBuild(t *testing.T) {
	r := NewRelation(1)
	const n = 256
	for k := 0; k < n; k++ {
		r.Add(tup(value.PathOf(fmt.Sprint("x", k), "mid", fmt.Sprint("s", k%4))))
	}
	r.Freeze()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 64; k++ {
				suffix := value.PathOf(fmt.Sprint("s", k%4))
				if got := r.SuffixLookup(nil, View{}, 0, suffix); len(got) != n/4 {
					select {
					case errs <- fmt.Sprintf("goroutine %d: SuffixLookup(%s) = %d positions, want %d", g, suffix, len(got), n/4):
					default:
					}
					return
				}
				long := value.PathOf("mid", fmt.Sprint("s", k%4))
				if got := r.SuffixLookup(nil, View{}, 0, long); len(got) != n/4 {
					select {
					case errs <- fmt.Sprintf("goroutine %d: SuffixLookup(%s) = %d positions, want %d", g, long, len(got), n/4):
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
