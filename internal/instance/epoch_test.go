package instance

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"seqlog/internal/value"
)

// These tests pin the epoch-sharing contract of the chunked tuple log:
// sealed chunks are shared by pointer across the write barrier, the
// partial tail's arrays and the index tables go to the first clone
// only, tombstones placed after a freeze never reach older readers, and
// the whole arrangement is invisible to the codec.

func fillSeq(i *Instance, name string, n int) {
	for k := 0; k < n; k++ {
		i.Add(name, tup(value.PathOf("t"+fmt.Sprint(k))))
	}
}

func TestBarrierSharesSealedChunksCopiesTail(t *testing.T) {
	i := New()
	// Two sealed chunks plus a partial tail.
	n := 2*chunkSize + chunkSize/2
	fillSeq(i, "R", n)
	snap := i.Snapshot()
	frozen := snap.Relation("R")

	i.Add("R", tup(value.PathOf("extra"))) // Ensure barrier fires here
	clone := i.Relation("R")
	if clone == frozen {
		t.Fatal("write barrier must have replaced the frozen relation")
	}
	if clone.chunks[0] != frozen.chunks[0] || clone.chunks[1] != frozen.chunks[1] {
		t.Fatal("sealed chunks must be shared by pointer across the barrier")
	}
	// The first clone is the heir: its own tail chunk value over the
	// frozen tail's arrays, appended to in place.
	if clone.chunks[2] == frozen.chunks[2] || &clone.chunks[2].paths[0] != &frozen.chunks[2].paths[0] {
		t.Fatal("the first clone must append to the frozen tail's arrays through its own chunk value")
	}
	if frozen.Len() != n || clone.Len() != n+1 || len(frozen.chunks[2].hashes) != n-2*chunkSize {
		t.Fatalf("Len: frozen %d (want %d), clone %d (want %d)",
			frozen.Len(), n, clone.Len(), n+1)
	}
	cs := i.CloneStats()
	if cs.BarrierClones != 1 {
		t.Fatalf("BarrierClones = %d, want 1", cs.BarrierClones)
	}
	if cs.SharedChunks != 2 {
		t.Fatalf("SharedChunks = %d, want 2 (sealed chunks only)", cs.SharedChunks)
	}
	if cs.CloneBytes != 3*8 {
		t.Fatalf("CloneBytes = %d, want 24 (the chunk pointers only)", cs.CloneBytes)
	}

	// Any later clone of the same frozen epoch copies the tail.
	other := New()
	other.Put("R", frozen)
	other.Add("R", tup(value.PathOf("other")))
	second := other.Relation("R")
	if &second.chunks[2].paths[0] == &frozen.chunks[2].paths[0] {
		t.Fatal("a second clone must copy the partial tail, not append to the heir's arrays")
	}
	if cs := other.CloneStats(); cs.CloneBytes <= 3*8 {
		t.Fatalf("second clone CloneBytes = %d, want the tail copy counted", cs.CloneBytes)
	}
	if frozen.Len() != n || second.Len() != n+1 || clone.Contains(tup(value.PathOf("other"))) || second.Contains(tup(value.PathOf("extra"))) {
		t.Fatal("the two clones of one frozen epoch must not see each other's appends")
	}
}

func TestBarrierAtChunkBoundarySharesEverything(t *testing.T) {
	i := New()
	fillSeq(i, "R", chunkSize) // exactly one sealed chunk, no tail
	snap := i.Snapshot()
	i.Add("R", tup(value.PathOf("extra")))
	clone, frozen := i.Relation("R"), snap.Relation("R")
	if clone.chunks[0] != frozen.chunks[0] {
		t.Fatal("with no partial tail every chunk must be shared")
	}
	if cs := i.CloneStats(); cs.SharedChunks != 1 {
		t.Fatalf("SharedChunks = %d, want 1", cs.SharedChunks)
	}
}

func TestPostFreezeTombstonesInvisibleToSnapshot(t *testing.T) {
	i := New()
	n := chunkSize + 10
	fillSeq(i, "R", n)
	// A pre-freeze tombstone, so the snapshot inherits a dead bit in the
	// stamps the writer's clone must copy rather than mutate in place.
	i.Delete("R", tup(value.PathOf("t0")))
	snap := i.Snapshot()

	// Delete on the writer side: one hit in the same chunk as the
	// pre-freeze tombstone, one in the tail chunk the writer inherited.
	i.Delete("R", tup(value.PathOf("t1")))
	i.Delete("R", tup(value.PathOf("t"+fmt.Sprint(chunkSize+3))))

	sr := snap.Relation("R")
	if sr.Contains(tup(value.PathOf("t0"))) {
		t.Fatal("pre-freeze tombstone must be visible to the snapshot")
	}
	for _, want := range []string{"t1", "t" + fmt.Sprint(chunkSize+3)} {
		if !sr.Contains(tup(value.PathOf(want))) {
			t.Fatalf("post-freeze tombstone on %s leaked into the snapshot", want)
		}
	}
	if sr.Len() != n-1 {
		t.Fatalf("snapshot Len = %d, want %d", sr.Len(), n-1)
	}
	if got := i.Relation("R").Len(); got != n-3 {
		t.Fatalf("writer Len = %d, want %d", got, n-3)
	}
}

func TestTombstoneIsolationAcrossManyEpochs(t *testing.T) {
	// Chain of epochs: each snapshot must keep exactly the live set it
	// was frozen with, regardless of later deletes and compactions.
	i := New()
	n := chunkSize + chunkSize/2
	fillSeq(i, "R", n)
	type epoch struct {
		snap *Instance
		want int
	}
	var epochs []epoch
	for e := 0; e < 8; e++ {
		epochs = append(epochs, epoch{i.Snapshot(), i.Relation("R").Len()})
		i.Delete("R", tup(value.PathOf("t"+fmt.Sprint(e*7))))
		if e == 4 {
			i.Relation("R").Compact()
		}
	}
	for e, ep := range epochs {
		if got := ep.snap.Relation("R").Len(); got != ep.want {
			t.Fatalf("epoch %d: Len = %d, want %d", e, got, ep.want)
		}
		for k := 0; k < n; k++ {
			want := k%7 != 0 || k/7 >= e
			if got := ep.snap.Relation("R").Contains(tup(value.PathOf("t" + fmt.Sprint(k)))); got != want {
				t.Fatalf("epoch %d: Contains(t%d) = %t, want %t", e, k, got, want)
			}
		}
	}
}

// TestIndexBaseSharedAcrossBarrier: the heir takes the frozen epoch's
// index tables, catching a lagging one up first, and files its own
// appends in the same arrays, while the frozen epoch's probes stop at
// its own entries.
func TestIndexBaseSharedAcrossBarrier(t *testing.T) {
	i := New()
	for k := 0; k < chunkSize; k++ {
		i.Add("E", tup(value.PathOf("a"+fmt.Sprint(k%16)), value.PathOf("b"+fmt.Sprint(k))))
	}
	// Build an exact index and a prefix index, then append past them so
	// both lag the log when it is frozen.
	i.Relation("E").Index(0).Lookup(nil, View{}, value.PathOf("a1"))
	i.Relation("E").PrefixLookup(nil, View{}, 0, value.PathOf("a1"))
	i.Add("E", tup(value.PathOf("a1"), value.PathOf("late")))
	frozen := i.Snapshot().Relation("E")
	if int(frozen.Index(0).upto.Load()) == frozen.Size() {
		t.Fatal("setup: the exact index must lag the frozen log")
	}
	i.Add("E", tup(value.PathOf("a1"), value.PathOf("fresh")))
	clone := i.Relation("E")

	prefixKey := indexKey{kind: kindPrefix, col: 0, n: 1}
	for _, pair := range [][2]*index{{frozen.Index(0), clone.Index(0)}, {frozen.indexes[prefixKey], clone.indexes[prefixKey]}, {&frozen.member, &clone.member}} {
		old, heir := pair[0], pair[1]
		if int(old.upto.Load()) != frozen.Size() {
			t.Fatalf("%v: the handoff must catch the frozen index up to %d, it holds %d", old.kind, frozen.Size(), old.upto.Load())
		}
		if &heir.tab.entries[0] != &old.tab.entries[0] {
			t.Fatalf("%v: the heir must append to the frozen epoch's entries", old.kind)
		}
	}
	if got := len(clone.Index(0).Lookup(nil, View{}, value.PathOf("a1"))); got != chunkSize/16+2 {
		t.Fatalf("clone index sees %d a1 rows, want %d", got, chunkSize/16+2)
	}
	if got := len(frozen.Index(0).Lookup(nil, View{}, value.PathOf("a1"))); got != chunkSize/16+1 {
		t.Fatalf("frozen index sees %d a1 rows, want %d", got, chunkSize/16+1)
	}
	if got := len(clone.PrefixLookup(nil, View{}, 0, value.PathOf("a1"))); got != chunkSize/16+2 {
		t.Fatalf("clone prefix lookup sees %d rows, want %d", got, chunkSize/16+2)
	}
	if frozen.Contains(tup(value.PathOf("a1"), value.PathOf("fresh"))) {
		t.Fatal("the frozen epoch's membership sees the heir's append")
	}
}

// TestTwoClonesOfOneFrozenEpoch: the heir and a later clone of the same
// frozen epoch write side by side; the later one rebuilds its indexes
// from the tuple log, and every probe of all three stays exact.
func TestTwoClonesOfOneFrozenEpoch(t *testing.T) {
	w := newProbeWriter(probeTuple)
	w.add(chunkSize + 40)
	frozen := w.barrier()
	other := &probeWriter{inst: New(), st: &Stamper{}, tuple: probeTuple, next: 5000}
	other.inst.SetStamper(other.st)
	other.inst.Put("R", frozen)
	for round := 0; round < 3; round++ {
		w.add(chunkSize / 2)
		other.add(chunkSize / 2)
		buildAll(other.rel())
		checkProbes(t, fmt.Sprint("heir, round ", round), w.rel())
		checkProbes(t, fmt.Sprint("second clone, round ", round), other.rel())
	}
	checkProbes(t, "frozen epoch", frozen)
	if &other.rel().member.tab.entries[0] == &frozen.member.tab.entries[0] {
		t.Fatal("a second clone must build its own tables, not append to the heir's")
	}
}

// TestHeldEpochReadersBesideHeir: readers of three held epochs probe
// every index kind while the owner, heir of the newest, appends across a
// slot rehash and an entries-array growth of every table and a seal of
// the tail chunk it took over. Each reader must keep seeing exactly its
// epoch. Run with -race: the tables' atomics are the point.
func TestHeldEpochReadersBesideHeir(t *testing.T) {
	// Every key of every index shape grows with k, so all tables rehash;
	// a bucket holds up to five positions, so chains link.
	w := newProbeWriter(func(k int) Tuple {
		return tup(
			value.PathOf(fmt.Sprint("a", k%5), fmt.Sprint("b", k/3)),
			value.PathOf(fmt.Sprint("x", k/2), "m", fmt.Sprint("y", k%4), fmt.Sprint("z", k/5)),
		)
	})
	w.add(chunkSize / 2)
	var held []*Relation
	for e := 0; e < 3; e++ {
		held = append(held, w.barrier())
		w.add(7)
	}
	w.churn()
	last := w.barrier()
	held = append(held[1:], last)
	type probeSet struct {
		rel  *Relation
		keys []Tuple
		want []string
	}
	probes := func(r *Relation, key Tuple) string {
		return fmt.Sprint(
			r.Position(View{}, key.Hash(), key),
			r.Index(0).Lookup(nil, View{}, key[0]),
			r.Index(0, 1).Lookup(nil, View{Dead: true}, key[0], key[1]),
			r.PrefixLookup(nil, View{}, 1, key[1][:1]),
			r.SuffixLookup(nil, View{}, 1, key[1][len(key[1])-2:]),
		)
	}
	var sets []probeSet
	for _, r := range held {
		ps := probeSet{rel: r}
		for pos := 0; pos < r.Size(); pos += 11 {
			ps.keys = append(ps.keys, r.TupleAt(pos))
			ps.want = append(ps.want, probes(r, r.TupleAt(pos)))
		}
		sets = append(sets, ps)
	}
	var wg sync.WaitGroup
	for _, ps := range sets {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 4; round++ {
					for k, key := range ps.keys {
						if got := probes(ps.rel, key); got != ps.want[k] {
							t.Errorf("epoch of %d positions, key %v: probes %v, want %v", ps.rel.Size(), key, got, ps.want[k])
							return
						}
					}
				}
			}()
		}
	}
	// arrays names every table of r by its backing arrays.
	type arrays struct {
		slots   *slot
		entries *entry
	}
	arraysOf := func(r *Relation) map[indexKey]arrays {
		out := map[indexKey]arrays{r.member.indexKey: {&r.member.tab.slots[0], &r.member.tab.entries[0]}}
		for key, ix := range r.indexes {
			out[key] = arrays{&ix.tab.slots[0], &ix.tab.entries[0]}
		}
		return out
	}
	before := arraysOf(last)
	tail := &last.chunks[len(last.chunks)-1].paths[0]
	w.add(1)
	if &w.rel().chunks[len(last.chunks)-1].paths[0] != tail || arraysOf(w.rel())[last.member.indexKey] != before[last.member.indexKey] {
		t.Fatal("the heir must append in place to the tail and the tables it took over")
	}
	for n := 0; n < 4*last.Size(); n += 64 {
		w.add(64)
		buildAll(w.rel())
	}
	wg.Wait()
	if w.rel().Size()>>chunkShift <= last.Size()>>chunkShift {
		t.Fatal("the heir's appends must seal the tail it took over")
	}
	after := arraysOf(w.rel())
	for key, a := range before {
		if after[key].slots == a.slots || after[key].entries == a.entries {
			t.Fatalf("%+v: the heir's appends must rehash the table's slots and grow its entries", key)
		}
	}
	for _, r := range held {
		checkProbes(t, fmt.Sprint("held epoch of ", r.Size()), r)
	}
}

func TestCodecAgnosticToSharing(t *testing.T) {
	// The binary encoding of a shared-chunk, tombstoned snapshot must
	// equal the encoding of its compacted deep clone: chunk layout and
	// stamp words are storage artifacts, not data.
	i := New()
	n := 2*chunkSize + 37
	fillSeq(i, "X", n)
	for k := 0; k < n; k += 5 {
		i.Delete("X", tup(value.PathOf("t"+fmt.Sprint(k))))
	}
	snap := i.Snapshot()
	// Keep writing so the snapshot's storage really is shared with a
	// diverged sibling when it encodes.
	i.Delete("X", tup(value.PathOf("t1")))
	fillSeq(i, "X", n+chunkSize)

	compacted := New()
	compacted.Put("X", snap.Relation("X").Clone()) // deep, compacted copy
	enc := snap.AppendBinary(nil)
	if want := compacted.AppendBinary(nil); !bytes.Equal(enc, want) {
		t.Fatal("shared-chunk snapshot must encode identically to its compacted clone")
	}

	dec, rest, err := DecodeInstance(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: err=%v rest=%d", err, len(rest))
	}
	if !dec.Relation("X").Equal(snap.Relation("X")) {
		t.Fatal("decoded instance differs from the encoded snapshot")
	}
}

// TestStampsSurviveEpochSharing pins that derivation stamps are part
// of the chunked tuple log's epoch contract: sealed chunks shared
// across the write barrier carry their stamps by pointer, the copied
// tail keeps them, Compact rewrites positions without touching a
// surviving tuple's stamp, Clone deep-copies them, and the
// instance-level birth counter continues across barrier clones.
func TestStampsSurviveEpochSharing(t *testing.T) {
	i := New()
	st := &Stamper{}
	i.SetStamper(st)
	n := chunkSize + chunkSize/2
	want := map[string]uint64{}
	for k := 0; k < n; k++ {
		tu := tup(value.PathOf("t" + fmt.Sprint(k)))
		i.Add("R", tu)
		r := i.Relation("R")
		s := r.StampAt(r.Size() - 1)
		if s != uint64(k+1) {
			t.Fatalf("append %d: birth %d, want %d", k, s, k+1)
		}
		want[tu.String()] = s
	}
	check := func(label string, r *Relation, want map[string]uint64) {
		t.Helper()
		live := 0
		for pos := 0; pos < r.Size(); pos++ {
			if !r.Live(pos) {
				continue
			}
			live++
			k := r.TupleAt(pos).String()
			if got := r.StampAt(pos); got != want[k] {
				t.Fatalf("%s: stamp of %s = %#x, want %#x", label, r.TupleAt(pos), got, want[k])
			}
		}
		if live != len(want) {
			t.Fatalf("%s: %d live tuples, want %d", label, live, len(want))
		}
	}

	snap := i.Snapshot()
	extra := tup(value.PathOf("extra"))
	i.Add("R", extra) // write barrier: sealed chunks shared, tail copied
	last := i.Relation("R")
	if s := last.StampAt(last.Size() - 1); s != uint64(n+1) {
		t.Fatalf("birth counter did not continue across the barrier: birth %d, want %d", s, n+1)
	}
	check("frozen snapshot", snap.Relation("R"), want)

	wantW := map[string]uint64{}
	for k, v := range want {
		wantW[k] = v
	}
	wantW[extra.String()] = uint64(n + 1)
	// Tombstone a scattering of tuples, then Compact: every surviving
	// tuple keeps its stamp at its new position, and the frozen epoch
	// still sees the original assignment untouched.
	for k := 0; k < n; k += 7 {
		tu := tup(value.PathOf("t" + fmt.Sprint(k)))
		i.Delete("R", tu)
		delete(wantW, tu.String())
	}
	check("writer before compact", i.Relation("R"), wantW)
	i.Relation("R").Compact()
	check("writer after compact", i.Relation("R"), wantW)
	check("deep clone", i.Relation("R").Clone(), wantW)
	check("frozen snapshot after compact", snap.Relation("R"), want)
}

// TestRebirthCopiesSharedStamps: Delete and Rebirth write only stamp
// words the live relation owns. After a freeze, the heir shares the
// sealed chunk and the tail's arrays with the frozen epoch; a re-birth
// or a tombstone in either gives that chunk a stamp array of its own
// first, so the held epoch reads its old births and liveness while a
// reader clones it concurrently (Clone reads every stamp word; run with
// -race), the heir keeps appending past the copy, and a Compact of the
// heir carries the new births to the renumbered positions.
func TestRebirthCopiesSharedStamps(t *testing.T) {
	i := New()
	i.SetStamper(&Stamper{})
	fillSeq(i, "R", chunkSize+chunkSize/2)
	held := i.Snapshot().Relation("R")
	births := func(r *Relation) []uint64 {
		out := make([]uint64, r.Size())
		for pos := range out {
			out[pos] = r.StampAt(pos)
		}
		return out
	}
	want := births(held)
	changed := func(r *Relation) string {
		if r.Len() != len(want) {
			return fmt.Sprintf("%d live tuples, was %d", r.Len(), len(want))
		}
		got := births(r)
		for pos := range want {
			if got[pos] != want[pos] {
				return fmt.Sprintf("birth at %d is %d, was %d", pos, got[pos], want[pos])
			}
		}
		return ""
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if d := changed(held.Clone()); d != "" {
					t.Errorf("a clone of the held epoch: %s", d)
					return
				}
			}
		}
	}()
	live := i.Ensure("R", 1) // the heir: the sealed chunk and the tail's arrays are shared
	sealed, tail := 3, chunkSize+2
	at := func(pos int) Tuple { return tup(value.PathOf("t" + fmt.Sprint(pos))) }
	live.Rebirth(sealed, 1)
	live.Delete(at(sealed + 2)) // the sealed chunk's copy is the heir's now: written in place
	live.Delete(at(tail + 1))   // the shared tail, not yet copied
	live.Rebirth(tail, 2)
	live.Rebirth(sealed+1, 1)
	fillSeq(i, "S", 1) // draws a birth; the heir keeps appending past its copied tail
	fresh := tup(value.PathOf("fresh"))
	i.Add("R", fresh)
	close(stop)
	wg.Wait()
	if d := changed(held); d != "" {
		t.Fatalf("held epoch: %s", d)
	}
	for pos := range want {
		if !held.Live(pos) {
			t.Fatalf("held epoch: position %d is dead", pos)
		}
	}
	got := births(live)
	if got[sealed] != 1 || got[sealed+1] != 1 || got[tail] != 2 {
		t.Fatalf("live births at %d, %d, %d = %d, %d, %d; want 1, 1, 2", sealed, sealed+1, tail, got[sealed], got[sealed+1], got[tail])
	}
	if live.Live(sealed+2) || live.Live(tail+1) || live.Len() != len(want)-1 {
		t.Fatalf("live epoch: positions %d and %d live %v, %v, %d live tuples; want both dead, %d", sealed+2, tail+1, live.Live(sealed+2), live.Live(tail+1), live.Len(), len(want)-1)
	}
	if n := len(want); got[n] != uint64(n+2) || !live.Contains(fresh) {
		t.Fatalf("append after rebirth: birth %d, want %d", got[n], n+2)
	}
	kept := map[string]uint64{}
	for pos, b := range got {
		if live.Live(pos) {
			kept[live.TupleAt(pos).String()] = b
		}
		if pos < len(want) && pos != sealed && pos != sealed+1 && pos != tail && b != want[pos] {
			t.Fatalf("live epoch beside the re-births: birth at %d is %d, was %d", pos, b, want[pos])
		}
	}
	live.Compact()
	if live.Size() != len(kept) || live.Tombstones() != 0 {
		t.Fatalf("compacted: size %d, %d tombstones; want %d, 0", live.Size(), live.Tombstones(), len(kept))
	}
	for pos := 0; pos < live.Size(); pos++ {
		if k := live.TupleAt(pos).String(); live.StampAt(pos) != kept[k] {
			t.Fatalf("compacted: birth of %s is %d, want %d", k, live.StampAt(pos), kept[k])
		}
	}
}

// TestEpochHammer drives concurrent snapshot readers — membership,
// exact-index, and prefix probes, all of which lazily absorb under the
// watermark protocol — against a writer cycling assert/retract/Compact
// epochs. Run with -race in CI: the assertions matter, but the
// schedule coverage is the point.
func TestEpochHammer(t *testing.T) {
	i := New()
	base := 2 * chunkSize
	for k := 0; k < base; k++ {
		i.Add("R", tup(value.PathOf("k"+fmt.Sprint(k%32)), value.PathOf("v"+fmt.Sprint(k))))
	}

	const epochs = 40
	var wg sync.WaitGroup
	for e := 0; e < epochs; e++ {
		snap := i.Snapshot()
		want := snap.Relation("R").Len()
		wg.Add(1)
		go func(snap *Instance, want, seed int) {
			defer wg.Done()
			r := snap.Relation("R")
			rng := rand.New(rand.NewSource(int64(seed)))
			for round := 0; round < 20; round++ {
				if got := r.Len(); got != want {
					panic(fmt.Sprintf("snapshot Len drifted: %d -> %d", want, got))
				}
				key := value.PathOf("k" + fmt.Sprint(rng.Intn(32)))
				for _, pos := range r.Index(0).Lookup(nil, View{}, key) {
					if !r.Live(pos) {
						panic("index handed out a dead position")
					}
					if !r.TupleAt(pos)[0].Equal(key) {
						panic("index handed out a mismatched position")
					}
				}
				for _, pos := range r.PrefixLookup(nil, View{}, 0, key) {
					if !r.Live(pos) {
						panic("prefix index handed out a dead position")
					}
				}
				live := 0
				for pos := 0; pos < r.Size(); pos++ {
					if r.Live(pos) {
						live++
					}
				}
				if live != want {
					panic(fmt.Sprintf("tombstone view drifted: %d live, want %d", live, want))
				}
			}
		}(snap, want, e)

		// Writer epoch: fresh asserts, some retracts, periodic Compact.
		for k := 0; k < 64; k++ {
			i.Add("R", tup(value.PathOf("k"+fmt.Sprint(k%32)), value.PathOf(fmt.Sprintf("e%d_%d", e, k))))
		}
		for k := 0; k < 16; k++ {
			i.Delete("R", tup(value.PathOf("k"+fmt.Sprint(k%32)), value.PathOf(fmt.Sprintf("e%d_%d", e, k))))
		}
		if e%7 == 6 {
			i.Relation("R").Compact()
		}
	}
	wg.Wait()

	if cs := i.CloneStats(); cs.BarrierClones < epochs {
		t.Fatalf("BarrierClones = %d, want >= %d (one per epoch)", cs.BarrierClones, epochs)
	}
}
