package instance

import (
	"fmt"
	"slices"
	"testing"

	"seqlog/internal/value"
)

func tup(paths ...value.Path) Tuple { return paths }

func TestRelationSetSemantics(t *testing.T) {
	r := NewRelation(1)
	if !r.Add(tup(value.PathOf("a", "b"))) {
		t.Fatal("first add must be new")
	}
	if r.Add(tup(value.PathOf("a", "b"))) {
		t.Fatal("duplicate add must report false")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	if !r.Contains(tup(value.PathOf("a", "b"))) {
		t.Fatal("Contains broken")
	}
}

func TestRelationArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch must panic")
		}
	}()
	NewRelation(2).Add(tup(value.PathOf("a")))
}

func TestInstanceEqualAndDiff(t *testing.T) {
	i := New()
	i.AddPath("R", value.PathOf("a"))
	i.AddPath("R", value.PathOf("b"))
	j := New()
	j.AddPath("R", value.PathOf("b"))
	j.AddPath("R", value.PathOf("a"))
	if !i.Equal(j) {
		t.Fatal("order must not matter")
	}
	j.AddPath("S", value.PathOf("c"))
	if i.Equal(j) {
		t.Fatal("extra relation not detected")
	}
	if Diff(i, j) == "" {
		t.Fatal("Diff must report difference")
	}
	// Empty relations equal absent ones.
	k := i.Clone()
	k.Ensure("Z", 1)
	if !i.Equal(k) || Diff(i, k) != "" {
		t.Fatal("empty relation must equal absent relation")
	}
}

func TestInstanceFlatMonadic(t *testing.T) {
	i := New()
	i.AddPath("R", value.PathOf("a", "b"))
	if !i.IsFlat() {
		t.Fatal("flat instance misdetected")
	}
	i.AddPath("P", value.Path{value.Pack(value.PathOf("a"))})
	if i.IsFlat() {
		t.Fatal("packed value not detected")
	}
}

func TestInstanceCloneIndependent(t *testing.T) {
	i := New()
	i.AddPath("R", value.PathOf("a"))
	j := i.Clone()
	j.AddPath("R", value.PathOf("b"))
	if i.Relation("R").Len() != 1 {
		t.Fatal("clone shares storage")
	}
}

// restrict returns a copy of i holding only the named relations:
// frozen ones are shared, so the first write on either side goes
// through the Ensure barrier, and the others are deep-cloned.
func restrict(i *Instance, names ...string) *Instance {
	out := New()
	for _, n := range names {
		if r := i.Relation(n); r != nil && r.Frozen() {
			out.Put(n, r)
		} else if r != nil {
			out.Put(n, r.Clone())
		}
	}
	return out
}

// merge adds all facts of j into i.
func merge(i, j *Instance) {
	for _, n := range j.Names() {
		r := j.Relation(n)
		dst := i.Ensure(n, r.Arity)
		for pos := 0; pos < r.Size(); pos++ {
			if r.Live(pos) {
				dst.AddHashed(r.HashAt(pos), r.TupleAt(pos))
			}
		}
	}
}

func TestMergeRestrictFacts(t *testing.T) {
	i := New()
	i.AddPath("R", value.PathOf("a"))
	j := New()
	j.AddPath("R", value.PathOf("b"))
	j.AddPath("S", value.PathOf("c"))
	merge(i, j)
	if i.Facts() != 3 {
		t.Fatalf("Facts = %d", i.Facts())
	}
	r := restrict(i, "S")
	if r.Facts() != 1 || r.Relation("R") != nil {
		t.Fatal("Restrict broken")
	}
}

func TestSortedDeterministic(t *testing.T) {
	r := NewRelation(1)
	r.Add(tup(value.PathOf("b")))
	r.Add(tup(value.PathOf("a")))
	r.Add(tup(value.PathOf("a", "a")))
	s := r.Sorted()
	if s[0].String() != "(a)" || s[1].String() != "(a.a)" || s[2].String() != "(b)" {
		t.Fatalf("Sorted = %v", s)
	}
}

func TestTupleHashEqualTuplesAgree(t *testing.T) {
	a := tup(value.PathOf("a", "b"), value.Path{value.Pack(value.PathOf("c"))})
	b := tup(value.PathOf("a", "b"), value.Path{value.Pack(value.PathOf("c"))})
	if a.Hash() != b.Hash() {
		t.Fatal("equal tuples must hash equally")
	}
	// The structural tags keep (a.b, eps) apart from (a, b.eps)-style
	// reshufflings that a naive concatenation hash would conflate.
	c := tup(value.PathOf("a"), value.PathOf("b"))
	d := tup(value.PathOf("a", "b"), value.Epsilon)
	if c.Hash() == d.Hash() {
		t.Fatal("component boundaries must affect the hash")
	}
}

func TestIndexLookup(t *testing.T) {
	r := NewRelation(2)
	r.Add(tup(value.PathOf("a"), value.PathOf("x")))
	r.Add(tup(value.PathOf("a"), value.PathOf("y")))
	r.Add(tup(value.PathOf("b"), value.PathOf("x")))
	ix := r.Index(0)
	got := ix.Lookup(nil, View{}, value.PathOf("a"))
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Lookup(a) = %v", got)
	}
	if len(ix.Lookup(nil, View{}, value.PathOf("zzz"))) != 0 {
		t.Fatal("missing key must yield no positions")
	}
	// The index catches up after later Adds (never stale).
	r.Add(tup(value.PathOf("a"), value.PathOf("z")))
	if got := ix.Lookup(nil, View{}, value.PathOf("a")); len(got) != 3 || got[2] != 3 {
		t.Fatalf("post-Add Lookup(a) = %v", got)
	}
	// Multi-column probe.
	both := r.Index(0, 1).Lookup(nil, View{}, value.PathOf("a"), value.PathOf("y"))
	if len(both) != 1 || both[0] != 1 {
		t.Fatalf("Lookup(a, y) = %v", both)
	}
	// Index objects are shared per column signature.
	if r.Index(0) != ix {
		t.Fatal("same-signature index must be shared")
	}
}

// TestFullTupleIndexIsMembership: an index over every column in order
// is the membership index — a fully ground Lookup answers what Position
// answers and files no secondary index beside it.
func TestFullTupleIndexIsMembership(t *testing.T) {
	r := NewRelation(2)
	for _, p := range [][2]string{{"a", "x"}, {"a", "y"}, {"b", "x"}} {
		r.Add(tup(value.PathOf(p[0]), value.PathOf(p[1])))
	}
	r.Delete(tup(value.PathOf("a"), value.PathOf("x")))
	for _, p := range [][2]string{{"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "y"}} {
		k := tup(value.PathOf(p[0]), value.PathOf(p[1]))
		want := []int{}
		if pos := r.Position(View{}, k.Hash(), k); pos >= 0 {
			want = []int{pos}
		}
		if got := r.Index(0, 1).Lookup([]int{}, View{}, k...); !slices.Equal(got, want) {
			t.Errorf("Lookup%v = %v, Position gives %v", p, got, want)
		}
	}
	if len(r.indexes) != 0 {
		t.Fatalf("full-tuple lookups built %d secondary indexes, want none", len(r.indexes))
	}
	if r.Index(1, 0) == r.Index(0, 1) {
		t.Fatal("a permuted full-width index is an exact index, not membership")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a full-tuple index probed with one value must panic")
		}
	}()
	r.Index(0, 1).Lookup(nil, View{}, value.PathOf("a"))
}

func TestIndexColumnOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index column must panic")
		}
	}()
	NewRelation(1).Index(1)
}

func TestPrefixLookup(t *testing.T) {
	r := NewRelation(1)
	r.Add(tup(value.PathOf("a", "b", "c")))
	r.Add(tup(value.PathOf("a", "c")))
	r.Add(tup(value.PathOf("b", "b")))
	r.Add(tup(value.PathOf("a")))
	got := r.PrefixLookup(nil, View{}, 0, value.PathOf("a"))
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("PrefixLookup(a) = %v", got)
	}
	got = r.PrefixLookup(nil, View{}, 0, value.PathOf("a", "b"))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("PrefixLookup(a.b) = %v", got)
	}
	// Tuples shorter than the prefix never match.
	if got := r.PrefixLookup(nil, View{}, 0, value.PathOf("a", "b", "c", "d")); len(got) != 0 {
		t.Fatalf("over-long prefix = %v", got)
	}
	// Catch-up after Add.
	r.Add(tup(value.PathOf("a", "b")))
	if got := r.PrefixLookup(nil, View{}, 0, value.PathOf("a", "b")); len(got) != 2 || got[1] != 4 {
		t.Fatalf("post-Add PrefixLookup(a.b) = %v", got)
	}
}

func TestWindowIterationAndTupleAt(t *testing.T) {
	r := NewRelation(1)
	r.Add(tup(value.PathOf("a")))
	mark := r.Size()
	r.Add(tup(value.PathOf("b")))
	r.Add(tup(value.PathOf("c")))
	// Delta windows iterate positions [lo, hi) with TupleAt + Live.
	var delta []Tuple
	for pos := mark; pos < r.Size(); pos++ {
		if r.Live(pos) {
			delta = append(delta, r.TupleAt(pos))
		}
	}
	if len(delta) != 2 || delta[0].String() != "(b)" || delta[1].String() != "(c)" {
		t.Fatalf("window = %v", delta)
	}
	if r.TupleAt(0).String() != "(a)" {
		t.Fatalf("TupleAt(0) = %v", r.TupleAt(0))
	}
}

func TestCloneKeepsHashedMembership(t *testing.T) {
	r := NewRelation(1)
	r.Add(tup(value.PathOf("a")))
	r.Add(tup(value.PathOf("b")))
	c := r.Clone()
	if !c.Contains(tup(value.PathOf("a"))) || c.Add(tup(value.PathOf("b"))) {
		t.Fatal("clone must preserve membership")
	}
	// Divergent growth: the copy's buckets are independent.
	c.Add(tup(value.PathOf("c")))
	if r.Contains(tup(value.PathOf("c"))) || !c.Contains(tup(value.PathOf("c"))) {
		t.Fatal("clone shares membership state")
	}
	// Indexes built on the original do not leak into the clone.
	r.Index(0).Lookup(nil, View{}, value.PathOf("a"))
	c2 := r.Clone()
	c2.Add(tup(value.PathOf("d")))
	if got := c2.Index(0).Lookup(nil, View{}, value.PathOf("d")); len(got) != 1 {
		t.Fatalf("clone index = %v", got)
	}
}

func TestAppendDuringIterationSeesSnapshot(t *testing.T) {
	r := NewRelation(1)
	r.Add(tup(value.PathOf("a")))
	r.Add(tup(value.PathOf("b")))
	seen := 0
	for range r.Tuples() {
		r.Add(tup(value.PathOf("c", fmt.Sprint(seen))))
		seen++
	}
	if seen != 2 {
		t.Fatalf("iteration saw %d tuples; appends must not extend a live scan", seen)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestSnapshotSharesUntilWrite(t *testing.T) {
	i := New()
	i.Add("R", tup(value.PathOf("a")))
	i.Add("R", tup(value.PathOf("b")))
	snap := i.Snapshot()
	if !snap.Relation("R").Frozen() || !i.Relation("R").Frozen() {
		t.Fatal("Snapshot must freeze the shared relations")
	}
	if snap.Relation("R") != i.Relation("R") {
		t.Fatal("Snapshot must share relation storage, not copy it")
	}
	// A write through Ensure clones on the writing side only.
	i.Add("R", tup(value.PathOf("c")))
	if snap.Relation("R") == i.Relation("R") {
		t.Fatal("write after Snapshot must copy-on-write")
	}
	if snap.Relation("R").Len() != 2 {
		t.Fatalf("snapshot grew: Len = %d", snap.Relation("R").Len())
	}
	if i.Relation("R").Len() != 3 || i.Relation("R").Frozen() {
		t.Fatalf("writer side: Len = %d frozen = %v", i.Relation("R").Len(), i.Relation("R").Frozen())
	}
	// New relations on the writer side never appear in the snapshot.
	i.Add("S", tup(value.PathOf("x")))
	if snap.Relation("S") != nil {
		t.Fatal("snapshot sees a relation created after it was taken")
	}
}

func TestFrozenRelationRejectsWrites(t *testing.T) {
	r := NewRelation(1)
	r.Add(tup(value.PathOf("a")))
	r.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a frozen relation must panic")
		}
	}()
	r.Add(tup(value.PathOf("b")))
}

func TestSnapshotConcurrentReadsDuringWrites(t *testing.T) {
	// Snapshot readers (including lazy index builds) proceed while the
	// owning instance keeps being written. Run with -race in CI.
	i := New()
	for k := 0; k < 64; k++ {
		i.Add("R", tup(value.PathOf("n"+fmt.Sprint(k)), value.PathOf("n"+fmt.Sprint(k+1))))
	}
	snap := i.Snapshot()
	done := make(chan struct{})
	go func() {
		defer close(done)
		r := snap.Relation("R")
		for k := 0; k < 64; k++ {
			if !r.Contains(tup(value.PathOf("n"+fmt.Sprint(k)), value.PathOf("n"+fmt.Sprint(k+1)))) {
				panic("snapshot lost a fact")
			}
			if got := r.Index(0).Lookup(nil, View{}, value.PathOf("n"+fmt.Sprint(k))); len(got) != 1 {
				panic("snapshot index lookup failed")
			}
		}
	}()
	for k := 0; k < 64; k++ {
		i.Add("R", tup(value.PathOf("m"+fmt.Sprint(k)), value.PathOf("m"+fmt.Sprint(k+1))))
	}
	<-done
	if snap.Relation("R").Len() != 64 {
		t.Fatalf("snapshot Len = %d, want 64", snap.Relation("R").Len())
	}
}

func TestPutReinstatesFrozenSeed(t *testing.T) {
	i := New()
	i.Add("R", tup(value.PathOf("a")))
	snap := i.Snapshot()
	i.Put("R", NewRelation(1))
	if i.Relation("R").Len() != 0 {
		t.Fatal("Put left the old relation behind")
	}
	if snap.Relation("R") == nil || snap.Relation("R").Len() != 1 {
		t.Fatal("Put must not disturb snapshots")
	}
	i.Put("R", snap.Relation("R"))
	i.Add("R", tup(value.PathOf("b"))) // frozen seed: Ensure clones
	if snap.Relation("R").Len() != 1 || i.Relation("R").Len() != 2 {
		t.Fatalf("seed reinstate: snap %d, inst %d", snap.Relation("R").Len(), i.Relation("R").Len())
	}
}

func TestRelationDeleteTombstones(t *testing.T) {
	r := NewRelation(1)
	a, b, c := tup(value.PathOf("a")), tup(value.PathOf("b")), tup(value.PathOf("c"))
	for _, x := range []Tuple{a, b, c} {
		r.Add(x)
	}
	if !r.Delete(b) {
		t.Fatal("deleting a present tuple must report true")
	}
	if r.Delete(b) {
		t.Fatal("double delete must report false")
	}
	if r.Contains(b) {
		t.Fatal("deleted tuple still a member")
	}
	if r.Len() != 2 || r.Size() != 3 || r.Tombstones() != 1 {
		t.Fatalf("Len/Size/Tombstones = %d/%d/%d, want 2/3/1", r.Len(), r.Size(), r.Tombstones())
	}
	if r.Live(1) || !r.Live(0) || !r.Live(2) {
		t.Fatal("Live disagrees with the tombstone")
	}
	// Tuples and Sorted see live facts only; TupleAt still addresses the
	// tombstoned position.
	if got := r.Tuples(); len(got) != 2 {
		t.Fatalf("Tuples = %v", got)
	}
	if got := r.Sorted(); len(got) != 2 || !got[0].Equal(a) || !got[1].Equal(c) {
		t.Fatalf("Sorted = %v", got)
	}
	if !r.TupleAt(1).Equal(b) {
		t.Fatal("TupleAt must keep addressing the tombstoned position")
	}
	// Re-adding a deleted tuple appends at a fresh position.
	if !r.Add(b) {
		t.Fatal("re-add after delete must be new")
	}
	if r.Len() != 3 || r.Size() != 4 || !r.Live(3) {
		t.Fatalf("after re-add: Len/Size = %d/%d", r.Len(), r.Size())
	}
}

func TestRelationDeleteEqualAndIndexes(t *testing.T) {
	r := NewRelation(2)
	for k := 0; k < 8; k++ {
		r.Add(tup(value.PathOf(fmt.Sprint("k", k)), value.PathOf("v")))
	}
	// Build both index kinds, then delete: lookups must skip the
	// tombstone while the *All variants keep seeing it.
	key := value.PathOf("k3")
	if got := r.Index(0).Lookup(nil, View{}, key); len(got) != 1 {
		t.Fatalf("pre-delete Lookup = %v", got)
	}
	if got := r.PrefixLookup(nil, View{}, 0, key); len(got) != 1 {
		t.Fatalf("pre-delete PrefixLookup = %v", got)
	}
	if !r.Delete(tup(key, value.PathOf("v"))) {
		t.Fatal("delete failed")
	}
	if got := r.Index(0).Lookup(nil, View{}, key); len(got) != 0 {
		t.Fatalf("Lookup must skip tombstones, got %v", got)
	}
	if got := r.Index(0).Lookup(nil, View{Dead: true}, key); len(got) != 1 {
		t.Fatalf("Lookup under View{Dead: true} must include tombstones, got %v", got)
	}
	if got := r.PrefixLookup(nil, View{}, 0, key); len(got) != 0 {
		t.Fatalf("PrefixLookup must skip tombstones, got %v", got)
	}
	if got := r.PrefixLookup(nil, View{Dead: true}, 0, key); len(got) != 1 {
		t.Fatalf("PrefixLookup under View{Dead: true} must include tombstones, got %v", got)
	}
	// Set equality ignores tombstones.
	s := NewRelation(2)
	for k := 0; k < 8; k++ {
		if k == 3 {
			continue
		}
		s.Add(tup(value.PathOf(fmt.Sprint("k", k)), value.PathOf("v")))
	}
	if !r.Equal(s) || !s.Equal(r) {
		t.Fatal("Equal must compare live tuples only")
	}
}

func TestRelationCloneCompactsEnsurePreserves(t *testing.T) {
	i := New()
	for k := 0; k < 8; k++ {
		i.Add("R", tup(value.PathOf(fmt.Sprint("x", k))))
	}
	r := i.Relation("R")
	r.Delete(tup(value.PathOf("x2")))
	r.Delete(tup(value.PathOf("x5")))

	// Clone compacts: dense positions, no tombstones, same set.
	cl := r.Clone()
	if cl.Len() != 6 || cl.Size() != 6 || cl.Tombstones() != 0 {
		t.Fatalf("Clone: Len/Size/Tombstones = %d/%d/%d", cl.Len(), cl.Size(), cl.Tombstones())
	}
	if !cl.Equal(r) {
		t.Fatal("Clone changed the set")
	}

	// The Ensure write barrier preserves positions across the clone, so
	// delta windows recorded against the frozen original stay valid.
	snap := i.Snapshot()
	w := i.Ensure("R", 1)
	if w == r {
		t.Fatal("Ensure must clone the frozen relation")
	}
	if w.Size() != r.Size() || w.Len() != r.Len() || w.Tombstones() != 2 {
		t.Fatalf("Ensure clone: Len/Size/Tombstones = %d/%d/%d, want %d/%d/2",
			w.Len(), w.Size(), w.Tombstones(), r.Len(), r.Size())
	}
	for pos := 0; pos < r.Size(); pos++ {
		if w.Live(pos) != r.Live(pos) || !w.TupleAt(pos).Equal(r.TupleAt(pos)) {
			t.Fatalf("position %d diverged across the write barrier", pos)
		}
	}
	if snap.Relation("R").Len() != 6 {
		t.Fatal("snapshot disturbed")
	}

	// In-place compaction renumbers and drops secondary indexes.
	w.Compact()
	if w.Len() != 6 || w.Size() != 6 || w.Tombstones() != 0 {
		t.Fatalf("Compact: Len/Size/Tombstones = %d/%d/%d", w.Len(), w.Size(), w.Tombstones())
	}
	if got := w.Index(0).Lookup(nil, View{}, value.PathOf("x7")); len(got) != 1 || got[0] >= 6 {
		t.Fatalf("post-compact index lookup = %v", got)
	}
}

func TestRelationDeleteFrozenPanics(t *testing.T) {
	r := NewRelation(1)
	r.Add(tup(value.PathOf("a")))
	r.Freeze()
	defer func() {
		if recover() == nil {
			t.Fatal("Delete on a frozen relation must panic")
		}
	}()
	r.Delete(tup(value.PathOf("a")))
}

func TestInstanceDeleteGoesThroughEnsure(t *testing.T) {
	i := New()
	i.Add("R", tup(value.PathOf("a")))
	i.Add("R", tup(value.PathOf("b")))
	snap := i.Snapshot() // freezes R
	if !i.Delete("R", tup(value.PathOf("a"))) {
		t.Fatal("Delete of a present fact must report true")
	}
	if i.Delete("R", tup(value.PathOf("a"))) || i.Delete("Nope", tup(value.PathOf("a"))) {
		t.Fatal("absent fact / absent relation must report false")
	}
	if i.Relation("R").Len() != 1 {
		t.Fatal("deletion lost")
	}
	if snap.Relation("R").Len() != 2 {
		t.Fatal("snapshot must not observe the deletion")
	}
}

func TestRestrictSharesFrozen(t *testing.T) {
	i := New()
	i.Add("R", tup(value.PathOf("a")))
	i.Add("S", tup(value.PathOf("b")))
	i.Relation("R").Freeze()
	out := restrict(i, "R", "S", "Nope")
	if out.Relation("R") != i.Relation("R") {
		t.Fatal("Restrict must share frozen relations")
	}
	if out.Relation("S") == i.Relation("S") {
		t.Fatal("Restrict must clone unfrozen relations")
	}
	if out.Relation("Nope") != nil {
		t.Fatal("Restrict invented a relation")
	}
	// Writing to the restriction goes through the barrier and leaves the
	// original untouched.
	out.Add("R", tup(value.PathOf("c")))
	if i.Relation("R").Len() != 1 || out.Relation("R").Len() != 2 {
		t.Fatalf("write-through: orig %d, restricted %d", i.Relation("R").Len(), out.Relation("R").Len())
	}
}

// TestAddFromScratchCopies: the evaluator instantiates every rule head
// into one scratch tuple and hands it to AddFromScratch, so a stored
// fact must share nothing the scratch writes again, headers or
// elements; and a new fact costs one allocation, the backing of its
// elements, beside the chunk's and the membership table's amortized
// growth.
func TestAddFromScratchCopies(t *testing.T) {
	atoms := make(value.Path, 64)
	for i := range atoms {
		atoms[i] = value.Intern(fmt.Sprint("v", i))
	}
	facts := make([]Tuple, 4096)
	for k := range facts {
		facts[k] = tup(value.Path{atoms[k%64], atoms[k/64]}, value.Path{atoms[k*7%64]})
	}
	fact := func(k int) Tuple { return facts[k] }
	scratch := make(Tuple, 2)
	fill := func(k int) Tuple {
		for i, p := range fact(k) {
			scratch[i] = append(scratch[i][:0], p...)
		}
		return scratch
	}
	r := NewRelation(2)
	for k := 0; k < chunkSize+10; k++ {
		s := fill(k)
		if !r.AddFromScratch(s.Hash(), s) {
			t.Fatalf("fact %d: AddFromScratch reported it present", k)
		}
		if s := fill(k); r.AddFromScratch(s.Hash(), s) {
			t.Fatalf("fact %d: AddFromScratch inserted it twice", k)
		}
	}
	headers := &scratch[0][0]
	fill(4000)
	scratch[1] = append(scratch[1], atoms[1], atoms[2])
	if &scratch[0][0] != headers {
		t.Fatal("AddFromScratch replaced the scratch's paths")
	}
	for k := 0; k < r.Size(); k++ {
		if !r.TupleAt(k).Equal(fact(k)) || !r.Contains(fact(k)) {
			t.Fatalf("position %d holds %v after the scratch was reused, want %v", k, r.TupleAt(k), fact(k))
		}
	}

	perFact := testing.AllocsPerRun(10, func() {
		r := NewRelation(2)
		for k := 0; k < chunkSize; k++ {
			s := fill(k)
			r.AddFromScratch(s.Hash(), s)
		}
	}) / chunkSize
	t.Logf("%.3f allocs per new fact", perFact)
	if perFact < 1 || perFact > 1.25 {
		t.Errorf("%.3f allocs per new fact, want about 1 (its elements)", perFact)
	}
}
