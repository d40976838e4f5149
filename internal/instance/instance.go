// Package instance implements database instances over the sequence data
// model (paper §2.1, §2.3): finite relations of path tuples, viewed
// equivalently as sets of facts.
package instance

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"seqlog/internal/value"
)

// Tuple is one row of a relation: a fixed-arity list of paths.
type Tuple []value.Path

// Hash returns a structural FNV-1a hash of the tuple. Equal tuples hash
// equally; distinct tuples may collide, so callers confirm with Equal.
func (t Tuple) Hash() uint64 { return hashPaths(t) }

// Equal reports component-wise path equality.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Compare orders tuples component-wise.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		if c := t[i].Compare(u[i]); c != 0 {
			return c
		}
	}
	return len(t) - len(u)
}

// String renders the tuple as (p1, ..., pn).
func (t Tuple) String() string { return string(t.appendText(nil)) }

// appendText appends the tuple as String renders it.
func (t Tuple) appendText(dst []byte) []byte {
	dst = append(dst, '(')
	for i, p := range t {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = p.AppendText(dst)
	}
	return append(dst, ')')
}

// The tuple log is chunked: positions pos map to
// chunks[pos>>chunkShift] at offset pos&chunkMask. A chunk that has
// reached chunkSize entries is sealed — it is never appended to again,
// and its stamp array is written only while no other epoch shares it
// (see writeStamp), so any number of relation epochs can share it by
// pointer. Only the partial tail chunk of an unfrozen relation is ever
// appended to. Its chunk value is private to the relation, but its
// arrays may be the ones a frozen ancestor's tail reads (the barrier
// hands them to the first clone, see cloneShared): an append writes
// past every ancestor's length, so what an ancestor reads never
// changes.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// chunk is one block of the append-only tuple log: up to chunkSize
// tuples plus their precomputed structural hashes and stamp words
// (birth and dead bit, see deadBit). The slices grow together
// (len(hashes) == len(stamps) == len(tuples)), so small relations pay
// for the tuples they hold, not for a full block. text is the facts'
// printed form, published by the first WriteFacts that needs it (see
// lines).
type chunk struct {
	tuples []Tuple
	hashes []uint64
	stamps []uint64
	text   atomic.Pointer[chunkText]
}

// chunkText is an immutable rendering of a chunk's first len(at)-1
// facts, each "(p1, ..., pn).\n" (".\n" when nullary): fact i is
// buf[at[i]:at[i+1]].
type chunkText struct {
	buf []byte
	at  []uint32
}

// lines returns a text of the chunk covering at least its first n
// facts, rendering only those the published one lacks. They are
// rendered into scratch (reused across calls) and copied behind the
// published bytes into a buffer of exactly their size, so a text holds
// no slack. A published text is never written again, so the epochs
// sharing a chunk, and a barrier clone's tail that inherited its text,
// may print side by side; racing renderers publish equal texts.
func (c *chunk) lines(n int, scratch *[]byte) *chunkText {
	t := c.text.Load()
	if t == nil {
		t = &chunkText{at: []uint32{0}}
	} else if len(t.at) > n {
		return t
	}
	k := len(t.at) - 1
	at := append(make([]uint32, 0, n+1), t.at...)
	b := slices.Grow((*scratch)[:0], 16*(n-k))
	for _, tup := range c.tuples[k:n] {
		if len(tup) > 0 {
			b = tup.appendText(b)
		}
		b = append(b, ".\n"...)
		at = append(at, uint32(len(t.buf)+len(b)))
	}
	*scratch = b
	t = &chunkText{append(append(make([]byte, 0, len(t.buf)+len(b)), t.buf...), b...), at}
	c.text.Store(t)
	return t
}

// Stamper issues derivation stamps. Every tuple-log position carries
// a stamp — its birth, drawn at append time from the relation's
// Stamper (0 for a tuple appended without one) — beside its cached
// hash, so stamps survive the copy-on-write barrier, Compact and Clone
// exactly like the hashes do. They are never serialized: a relation
// rebuilt by replay re-earns its stamps from the same deterministic
// append order. The evaluation engine attaches one Stamper to its
// whole instance, so stamps totally order all appends of one engine.
// A Stamper is not synchronized; stamped appends are single-threaded
// by the relation write contract.
type Stamper struct {
	birth uint64
}

// next issues the stamp for one append.
func (s *Stamper) next() uint64 {
	s.birth++
	return s.birth
}

// View selects which tuple-log positions a probe may see. The zero
// View is the plain live view. Dead additionally admits tombstoned
// positions (the DRed pre-deletion state). MaxBirth, when nonzero,
// restricts to positions born strictly before it — the well-founded
// overdeletion pruner's support order.
type View struct {
	Dead     bool
	MaxBirth uint64
}

// Admits reports whether the view admits a position with this stamp.
// Tombstone visibility is checked separately by the probe.
func (v View) Admits(stamp uint64) bool { return v.MaxBirth == 0 || stamp < v.MaxBirth }

// deadBit is the top bit of a position's stamp word: set, the position
// is tombstoned; the other bits are its birth. One word per position
// carries both, under one copy-on-write rule (writeStamp).
const deadBit = 1 << 63

// indexKind names the four access paths a relation serves. They share
// one implementation (index) and differ only in the key a tuple is
// filed under and in what a probe compares: the whole tuple
// (membership), a projection of columns (exact), or the first or last n
// values of one column (the ground prefix @y.$rest and ground suffix
// $rest.@y patterns of paper §2.2).
type indexKind int

const (
	kindMember indexKind = iota
	kindExact
	kindPrefix
	kindSuffix
)

func (k indexKind) String() string {
	return [...]string{"member", "index", "prefix", "suffix"}[k]
}

// indexKey identifies one secondary index of a relation: an exact index
// by the signature of its key columns (indexSig), a prefix or suffix
// index by its column and key length.
type indexKey struct {
	kind   indexKind
	col, n int
	sig    string
}

// index is the one index implementation behind all four kinds: a Table
// mapping a key hash to the ascending tuple-log positions filed under
// it. It is built lazily: creation is free, and every probe first
// absorbs the tuples Added since the last one (catchUp), so an index is
// never stale. Its Table is shared down an epoch lineage: the barrier
// hands it to the first clone of a frozen relation, which goes on
// absorbing through the same arrays while the frozen epoch keeps its
// own view (see Table and cloneShared). Probes are safe from multiple
// goroutines while the relation is frozen (see the Relation concurrency
// contract): the absorb step runs under the relation's mutex and
// publishes its watermark atomically, so concurrent probes either skip
// it lock-free or serialize on the build.
type index struct {
	r *Relation
	indexKey
	cols []int        // exact: the key columns
	tab  Table        // this epoch's view of the lineage's table
	upto atomic.Int64 // positions [0, upto) are absorbed
}

// Index is the handle Relation.Index returns: an exact index keyed on a
// projection of the relation's columns, or membership for all of them.
type Index = index

// Relation is a finite n-ary relation on paths with set semantics and
// deterministic iteration order (insertion order; Sorted() for canonical
// order).
//
// Storage is an epoch-shared append-only tuple log: fixed-capacity
// chunks of tuples plus precomputed hashes and stamp words, shared by
// pointer between a relation and every snapshot taken of it. A
// snapshot epoch is identified by (chunk list, length watermark): the
// copy-on-write barrier (Instance.Ensure on a frozen relation) copies
// only the chunk pointer slice — O(size/chunkSize), not O(size). The
// first clone of a frozen relation keeps appending to the partial tail
// chunk's arrays (a later clone copies the tail) while older readers
// keep iterating their own watermark over the shared chunks. The stamp
// word is the one part of a position written after its append (by
// Delete and Rebirth); a chunk inherited at the barrier gets a stamp
// array of its own before its first such write (see writeStamp).
//
// Membership is maintained through a built-in full-tuple hash index:
// each tuple's structural hash is computed once on Add and reused by
// Contains, Equal and Clone. Secondary indexes over column projections
// (Index), column prefixes (PrefixLookup) and column suffixes
// (SuffixLookup) are built lazily on first lookup and caught up after
// later Adds, so they are never stale. All of these are shared down an
// epoch lineage the way the tail chunk is: the barrier hands a frozen
// relation's index tables to its first clone, which appends to them in
// place while the frozen epoch reads only below its own watermarks (see
// Table); any later clone of the same frozen epoch starts its indexes
// empty and rebuilds them from the tuple log on first use. The
// canonical order behind Sorted and WriteFacts is the fifth shared
// part: an immutable sorted array of positions, built on first use,
// extended by merging in what was appended since, inherited by pointer
// at the barrier and renumbered by Compact (see canonical). The sixth
// is each chunk's printed text, rendered on first print and extended
// by what was appended since; it rides the chunk, so sealed chunks
// share it by pointer, the barrier clone's partial tail inherits it,
// and Compact and Clone start without it (see chunk.lines).
//
// Deletion is tombstone-based: Delete sets the dead bit of the tuple's
// stamp word, but the position itself stays occupied so that delta
// windows over the tuple log ([lo, hi) position ranges handed out while
// the relation was larger) remain valid. The bit is written under the
// stamps' copy-on-write rule, so a tombstone set after a freeze is
// invisible to every older reader — epochs never leak deletions
// backwards. Live reports whether a position still holds a fact; Len
// counts live tuples while Size is the position high-water mark
// including tombstones. Tombstones are reclaimed by Compact (which
// rewrites into fresh chunks, never touching shared ones — the epoch
// fence) or Clone (the copy is always compacted).
//
// Concurrency contract: a Relation is safe for any number of
// concurrent readers as long as no writer runs at the same time. The
// read set includes every probe — Contains, Position, Tuples, TupleAt,
// Index(...).Lookup, PrefixLookup and SuffixLookup — even when a probe
// lazily builds or catches up an index: index construction is internally
// synchronized (a mutex guards building, an atomic watermark makes the
// caught-up fast path lock-free). On a frozen relation Sorted and
// WriteFacts are reads too, the call that first builds or extends the
// order included (same mutex; nothing is held while facts are written).
// Writers — Add, and Clone, Sorted or WriteFacts of a relation being
// Added to — require exclusive access; they are NOT synchronized
// against readers. Epoch readers rely on exactly this split: a
// snapshot's frozen relations are read by queries beside the one
// writer that owns the live instance, and those reads may build or
// extend an index or the canonical order lazily, under the relation's
// lock.
//
// Freeze makes the reader/writer split permanent for one relation
// object: a frozen relation rejects writes forever, so its storage can
// be shared with snapshots (Instance.Snapshot) while the owning
// instance continues under copy-on-write via Ensure.
type Relation struct {
	Arity int

	// chunks is the tuple log; size is this epoch's length watermark.
	// Invariant: len(chunks) == ceil(size/chunkSize), and a partial
	// tail chunk is exclusively owned by this (unfrozen) relation.
	chunks []*chunk
	size   int

	// tombs counts the dead positions, so Live's fast path is a single
	// integer check.
	tombs int
	// inherited counts the leading chunks whose stamp arrays are shared
	// with a frozen epoch since the barrier; stampsCopied[i] reports that
	// chunk i's stamps have been copied since, so writeStamp may write
	// them in place.
	inherited    int
	stampsCopied []bool

	// member is the built-in full-tuple membership index. The owning
	// writer keeps it caught up inline (recordMember).
	member index

	// handedOff is set by the first barrier clone of this (frozen)
	// relation, which takes over appending to its tail chunk's arrays
	// and its index tables; see cloneShared.
	handedOff atomic.Bool

	// frozen marks the relation copy-on-write: its tuple storage is
	// shared with at least one snapshot and must never be written again.
	// Add paths panic on a frozen relation; Instance.Ensure transparently
	// replaces a frozen relation with an unfrozen epoch clone before
	// handing it to a writer. Lazy secondary-index builds remain allowed
	// — they are internally synchronized and do not touch tuple storage
	// — so any number of snapshot readers and cloning writers can
	// proceed concurrently.
	frozen atomic.Bool

	// stamper, when set, issues the derivation stamp of every appended
	// tuple; without one, appends are stamped 0 (base facts, visible to
	// every view). Instance.Ensure attaches its instance's stamper to
	// the relations it hands out, and epoch clones inherit it, so all
	// writes of one engine draw from one monotone birth counter.
	stamper *Stamper

	// mu guards creation of secondary indexes (the map below), the
	// build step that absorbs pending tuples into one (membership
	// included), the barrier's handoff of their tables, and the
	// canonical order; see the concurrency contract above.
	mu      sync.RWMutex
	indexes map[indexKey]*index

	// order is the canonical order of tuple-log positions [0,
	// len(order)) — tombstoned ones included, readers filter through
	// their own stamp words (Live) — at 4 bytes a position, built by the
	// first Sorted or WriteFacts (see canonical). A published array is
	// never written again: the barrier clone inherits it by pointer, and
	// a later epoch extends it into a fresh one.
	order []uint32
}

// NewRelation creates an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	r := &Relation{Arity: arity}
	r.member.r = r
	return r
}

// Freeze marks the relation copy-on-write: every write from now on
// panics, so the storage can be shared safely with concurrent readers
// (Instance.Snapshot freezes every relation it shares). Freezing is
// idempotent and cannot be undone — writers obtain an unfrozen clone
// instead, which is what Instance.Ensure does transparently.
func (r *Relation) Freeze() { r.frozen.Store(true) }

// Frozen reports whether the relation has been frozen.
func (r *Relation) Frozen() bool { return r.frozen.Load() }

// tupleAt, hashAt and wordAt read the tuple log by position; wordAt
// is the stamp word, birth and dead bit.
func (r *Relation) tupleAt(pos int) Tuple { return r.chunks[pos>>chunkShift].tuples[pos&chunkMask] }
func (r *Relation) hashAt(pos int) uint64 { return r.chunks[pos>>chunkShift].hashes[pos&chunkMask] }
func (r *Relation) wordAt(pos int) uint64 { return r.chunks[pos>>chunkShift].stamps[pos&chunkMask] }

// StampAt returns the derivation stamp of the tuple at position pos
// (0 for tuples appended without a stamper: base facts).
func (r *Relation) StampAt(pos int) uint64 { return r.wordAt(pos) &^ deadBit }

// Rebirth gives the tuple at pos the derivation stamp birth, older
// than the one it has: eval's overdeletion pruner moves a proved
// support below the candidate it keeps (see dred.go there). Like a
// tombstone it goes through writeStamp, so no older epoch sees it.
func (r *Relation) Rebirth(pos int, birth uint64) {
	if r.frozen.Load() {
		panic("instance: write to a frozen relation (snapshot-shared storage; clone it or go through Instance.Ensure)")
	}
	r.writeStamp(pos, birth|r.wordAt(pos)&deadBit)
}

// writeStamp sets the stamp word of pos: the one write to a position
// after its append. A chunk inherited at the barrier, sealed or the
// heir's shared tail, gets a stamp array of its own before its first
// write, so an older epoch sharing the chunk never sees a tombstone or
// a birth set after it froze; the heir keeps appending to the copy.
func (r *Relation) writeStamp(pos int, w uint64) {
	ci := pos >> chunkShift
	if ci < r.inherited && (r.stampsCopied == nil || !r.stampsCopied[ci]) {
		if r.stampsCopied == nil {
			r.stampsCopied = make([]bool, r.inherited)
		}
		old := r.chunks[ci]
		c := &chunk{tuples: old.tuples, hashes: old.hashes, stamps: append(make([]uint64, 0, cap(old.stamps)), old.stamps...)}
		c.text.Store(old.text.Load())
		r.chunks[ci], r.stampsCopied[ci] = c, true
	}
	r.chunks[ci].stamps[pos&chunkMask] = w
}

// appendTuple appends to the tail chunk with a freshly issued stamp;
// see appendStamped.
func (r *Relation) appendTuple(h uint64, t Tuple) {
	st := uint64(0)
	if r.stamper != nil {
		st = r.stamper.next()
	}
	r.appendStamped(h, t, st)
}

// appendStamped appends to the tail chunk, sealing it and opening a
// fresh one at the chunkSize boundary. Caller is the exclusive writer.
// Compact and Clone use it directly to carry a tuple's existing stamp
// through the renumbering instead of issuing a fresh one.
func (r *Relation) appendStamped(h uint64, t Tuple, stamp uint64) {
	ci := r.size >> chunkShift
	if ci == len(r.chunks) {
		// The tail's slices grow by appending: a write batch's relations
		// hold a handful of tuples each, and pre-sizing every chunk would
		// charge each of them for a full chunk's backing.
		r.chunks = append(r.chunks, &chunk{})
	}
	c := r.chunks[ci]
	c.tuples = append(c.tuples, t)
	c.hashes = append(c.hashes, h)
	c.stamps = append(c.stamps, stamp)
	r.size++
}

// recordMember registers a freshly appended position in the membership
// index. Caller is the exclusive writer and has already caught up.
func (r *Relation) recordMember(h uint64, pos int) {
	r.member.tab.Add(h, pos)
	r.member.upto.Store(int64(pos + 1))
}

// Add inserts a tuple; it reports whether the tuple was new.
// Adding a tuple of the wrong arity panics: this is a programming error.
func (r *Relation) Add(t Tuple) bool {
	return r.AddHashed(t.Hash(), t)
}

// AddHashed is Add with the tuple's precomputed hash (h must equal
// t.Hash()), so callers that already probed with Position do not
// rehash. The tuple is stored as given and must not be mutated
// afterwards; use CopyTuple first when inserting from a scratch buffer.
func (r *Relation) AddHashed(h uint64, t Tuple) bool {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("instance: arity mismatch: tuple %v into arity-%d relation", t, r.Arity))
	}
	if r.frozen.Load() {
		panic("instance: write to a frozen relation (snapshot-shared storage; clone it or go through Instance.Ensure)")
	}
	if r.Position(View{}, h, t) >= 0 {
		return false
	}
	r.appendTuple(h, t)
	r.recordMember(h, r.size-1)
	return true
}

// Delete removes a tuple, reporting whether it was present. The
// position is tombstoned, not reclaimed: Size and existing delta
// windows are unaffected, Len shrinks, and membership probes stop
// seeing the tuple immediately. Deleting from a frozen relation panics,
// exactly like Add — deletion goes through Instance.Ensure like every
// other write.
func (r *Relation) Delete(t Tuple) bool {
	return r.DeleteHashed(t.Hash(), t)
}

// DeleteHashed is Delete with the tuple's precomputed hash (h must
// equal t.Hash()), so callers that already probed do not rehash.
func (r *Relation) DeleteHashed(h uint64, t Tuple) bool {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("instance: arity mismatch: tuple %v deleted from arity-%d relation", t, r.Arity))
	}
	if r.frozen.Load() {
		panic("instance: write to a frozen relation (snapshot-shared storage; clone it or go through Instance.Ensure)")
	}
	pos := r.Position(View{}, h, t)
	if pos < 0 {
		return false
	}
	r.writeStamp(pos, r.wordAt(pos)|deadBit)
	r.tombs++
	return true
}

// Live reports whether the tuple at position pos has not been deleted.
func (r *Relation) Live(pos int) bool { return r.tombs == 0 || r.wordAt(pos)&deadBit == 0 }

// Tombstones returns the number of tombstoned positions (Size - Len).
func (r *Relation) Tombstones() int { return r.tombs }

// Compact reclaims tombstoned positions: live tuples are renumbered
// densely into fresh chunks, every secondary index is dropped (they
// rebuild lazily on next use) and the canonical order, when there is
// one, is renumbered with them. The old chunks are never touched — they
// may be shared with older snapshot epochs, which keep reading them
// unchanged; compaction is the epoch fence that stops referencing
// shared storage rather than rewriting it. Positions change, so
// callers holding delta windows or Index handles must not call Compact
// while they are in flight; the engine compacts only between
// maintenance runs.
func (r *Relation) Compact() {
	if r.tombs == 0 {
		return
	}
	if r.frozen.Load() {
		panic("instance: compaction of a frozen relation (snapshot-shared storage)")
	}
	// The renumbering is monotone, so the canonical order survives it
	// without a comparison: drop the dead positions, rename the rest.
	c, renamed := r.renumbered(len(r.order))
	order := make([]uint32, 0, min(len(r.order), c.size))
	for _, pos := range r.order {
		if renamed[pos] > 0 {
			order = append(order, renamed[pos]-1)
		}
	}
	r.chunks, r.size, r.tombs = c.chunks, c.size, 0
	r.inherited, r.stampsCopied = 0, nil
	r.member.tab = c.member.tab
	r.member.upto.Store(int64(r.size))
	r.mu.Lock()
	r.indexes, r.order = nil, order
	r.mu.Unlock()
}

// renumbered returns a fresh relation holding r's live positions,
// renumbered densely into fresh chunks with their hashes and births;
// its membership table is rebuilt in one pass, and its secondary
// indexes start empty. renamed[pos] is the new position plus 1 of each
// live position pos below keep, 0 for a dead one.
func (r *Relation) renumbered(keep int) (out *Relation, renamed []uint32) {
	out = NewRelation(r.Arity)
	m := &out.member.tab
	m.reserve(r.Len(), r.Len())
	renamed = make([]uint32, keep)
	for pos := 0; pos < r.size; pos++ {
		w := r.wordAt(pos)
		if w&deadBit != 0 {
			continue
		}
		h := r.hashAt(pos)
		out.appendStamped(h, r.tupleAt(pos), w)
		m.add(tagOf(h), out.size-1)
		if pos < keep {
			renamed[pos] = uint32(out.size)
		}
	}
	out.member.upto.Store(int64(out.size))
	return out, renamed
}

// Contains reports membership via the full-tuple hash index; deleted
// tuples are not members.
func (r *Relation) Contains(t Tuple) bool {
	return r.Position(View{}, t.Hash(), t) >= 0
}

// Position returns the tuple-log position of the tuple equal to t
// (whose hash h must equal t.Hash()) that the view admits, or -1 when
// there is none. Callers probing several relations — or probing then
// inserting — pass the hash once and never rehash. Under the zero View
// this is plain membership: a tuple deleted and re-added resolves to its
// live position. The DRed maintainer uses the position to test whether a
// fact lies inside an insertion window.
func (r *Relation) Position(v View, h uint64, t Tuple) int {
	var one [1]int
	if m := r.member.probe(one[:0], v, h, true, t.Equal); len(m) > 0 {
		return m[0]
	}
	return -1
}

// HashAt returns the precomputed hash of the tuple at insertion
// position i, tombstoned or not, so bulk consumers (DRed's goal pass
// and collapse over a write's deleted positions, the engine's batch
// diff) can probe or re-insert tuples without rehashing them.
func (r *Relation) HashAt(i int) uint64 { return r.hashAt(i) }

// AddFromScratch inserts a copy of the scratch tuple t (whose hash h
// must equal t.Hash()) when no equal tuple is present, reporting
// whether it inserted. One probe serves both the membership check and
// the insert, and CopyTuple runs only on a miss — the evaluator's
// derivation path, where most candidate facts are rediscoveries.
func (r *Relation) AddFromScratch(h uint64, t Tuple) bool {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("instance: arity mismatch: tuple %v into arity-%d relation", t, r.Arity))
	}
	if r.frozen.Load() {
		panic("instance: write to a frozen relation (snapshot-shared storage; clone it or go through Instance.Ensure)")
	}
	if r.Position(View{}, h, t) >= 0 {
		return false
	}
	r.appendTuple(h, CopyTuple(t))
	r.recordMember(h, r.size-1)
	return true
}

// CopyTuple deep-copies a tuple into fresh storage: one backing array
// holds all components, so a retained tuple costs at most two
// allocations however high its arity. Values are immutable and shared.
// The evaluator derives into reusable scratch buffers and calls
// CopyTuple only for tuples that turn out to be new.
func CopyTuple(t Tuple) Tuple {
	total := 0
	for _, p := range t {
		total += len(p)
	}
	backing := make(value.Path, total)
	out := make(Tuple, len(t))
	off := 0
	for i, p := range t {
		n := copy(backing[off:off+len(p)], p)
		out[i] = backing[off : off+n : off+n]
		off += n
	}
	return out
}

// Len returns the number of live tuples (the relation's cardinality).
func (r *Relation) Len() int { return r.size - r.tombs }

// Size returns the position high-water mark of the tuple log,
// tombstones included — this epoch's length watermark over the shared
// chunks. Delta windows and position-based iteration
// (TupleAt/HashAt/Live) range over [0, Size); Size equals Len whenever
// nothing was deleted since the last compaction.
func (r *Relation) Size() int { return r.size }

// Tuples returns the live tuples in insertion order as a freshly
// materialized slice: the chunked log has no contiguous backing to
// share. Indexes into it do NOT correspond to tuple-log positions when
// tombstones are present — use Size/Live/TupleAt/HashAt for
// position-based iteration, which also avoids the O(n) materialization
// on hot paths. Ranging over the result while concurrently Adding is
// safe and iterates the snapshot taken at call time.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.Len())
	for pos := 0; pos < r.size; pos++ {
		if r.Live(pos) {
			out = append(out, r.tupleAt(pos))
		}
	}
	return out
}

// TupleAt returns the tuple at tuple-log position i. Delta-aware
// consumers (the semi-naive evaluator's windows) iterate positions
// [lo, hi) with TupleAt, skipping tombstones via Live; there is
// deliberately no slice accessor over a position range, because such
// a slice would silently include deleted tuples.
func (r *Relation) TupleAt(i int) Tuple { return r.tupleAt(i) }

// Sorted returns the live tuples in canonical order.
func (r *Relation) Sorted() []Tuple {
	out := make([]Tuple, 0, r.Len())
	for _, pos := range r.canonical() {
		if r.Live(int(pos)) {
			out = append(out, r.tupleAt(int(pos)))
		}
	}
	return out
}

// comparePos totally orders tuple-log positions: by Tuple.Compare, then
// by position (a tuple deleted and re-added holds two, at most one of
// them live in any epoch's view).
func (r *Relation) comparePos(a, b uint32) int {
	if c := r.tupleAt(int(a)).Compare(r.tupleAt(int(b))); c != 0 {
		return c
	}
	return int(a) - int(b)
}

// canonical returns every tuple-log position [0, size) in canonical
// order; the caller skips the ones dead in its view. The order rides
// the epochs like an index: what an earlier call (on this relation or
// on the frozen epoch it was cloned from) already ordered is kept, and
// only the positions appended since are sorted and merged in, so a
// reader pays for what changed. The merge gallops — a doubling probe,
// then a binary search, for each new position's place in what is left
// of the old order, which is then copied as a block — so it costs
// O(t·log(n/t)) comparisons for t new positions over n old ones,
// whatever their ratio. Building runs under mu and nothing else does:
// the returned array is immutable and is read, and written to a slow
// client, with no lock held.
func (r *Relation) canonical() []uint32 {
	r.mu.RLock()
	ord := r.order
	r.mu.RUnlock()
	if len(ord) == r.size {
		return ord
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.order
	if len(old) == r.size { // another reader built it meanwhile
		return old
	}
	tail := make([]uint32, r.size-len(old))
	for i := range tail {
		tail[i] = uint32(len(old) + i)
	}
	slices.SortFunc(tail, r.comparePos)
	ord = tail
	if len(old) > 0 {
		ord = make([]uint32, 0, r.size)
		for _, p := range tail {
			hi := 1
			for hi < len(old) && r.comparePos(old[hi-1], p) < 0 {
				hi *= 2
			}
			lo := hi / 2
			hi = min(hi, len(old))
			k := lo + sort.Search(hi-lo, func(i int) bool { return r.comparePos(old[lo+i], p) > 0 })
			ord = append(append(ord, old[:k]...), p)
			old = old[k:]
		}
		ord = append(ord, old...)
	}
	r.order = ord
	return ord
}

// Clone returns an independent, compacted copy of the relation:
// tombstoned positions are dropped and live tuples renumbered densely
// (see renumbered). The precomputed tuple hashes and derivation stamps
// are reused; secondary indexes rebuild lazily on the copy when first
// used. Nothing is shared with the original except the tuples
// themselves, which are immutable.
func (r *Relation) Clone() *Relation {
	out, _ := r.renumbered(0)
	return out
}

// cloneShared is the epoch write barrier: an O(size/chunkSize) clone
// that shares every sealed chunk and the canonical order with the
// frozen original. Tuple-log positions, tombstones included, are
// preserved exactly, so delta windows recorded against the frozen
// original stay valid against the writable clone.
//
// The first clone of a frozen relation becomes its heir: one CAS claims
// the right to append, and the heir takes the tail chunk's arrays and
// every index table, caught up to the original's size first, so the
// original's readers never write them again. It goes on appending to
// both in place while the original reads below its own length, entry
// count and slot array (see Table). Any other clone copies the tail and
// starts its indexes empty; catchUp rebuilds them from the tuple log.
// The original may be probed concurrently (it is frozen; lazy index
// absorbs synchronize on its mutex, which cloneShared holds while it
// hands the tables over). It reports what it did as one barrier clone's
// CloneStats.
func (r *Relation) cloneShared() (*Relation, CloneStats) {
	heir := r.handedOff.CompareAndSwap(false, true)
	out := &Relation{Arity: r.Arity, size: r.size, tombs: r.tombs, stamper: r.stamper, inherited: len(r.chunks)}
	out.member.r = out
	out.chunks = append([]*chunk(nil), r.chunks...)
	cost := CloneStats{BarrierClones: 1, SharedChunks: int64(len(r.chunks)), CloneBytes: int64(len(r.chunks)) * 8}
	if tail := r.size & chunkMask; tail != 0 {
		ci := len(r.chunks) - 1
		old := r.chunks[ci]
		c := &chunk{tuples: old.tuples, hashes: old.hashes, stamps: old.stamps}
		if !heir {
			c = &chunk{
				tuples: append(make([]Tuple, 0, chunkSize), old.tuples...),
				hashes: append(make([]uint64, 0, chunkSize), old.hashes...),
				stamps: append(make([]uint64, 0, chunkSize), old.stamps...),
			}
			cost.CloneBytes += int64(tail) * 40
			out.inherited-- // the copied tail's stamps are its own
		}
		c.text.Store(old.text.Load())
		out.chunks[ci] = c
		cost.SharedChunks--
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	out.order = r.order
	if heir {
		out.member.take(&r.member)
		out.indexes = make(map[indexKey]*index, len(r.indexes))
		for key, ix := range r.indexes {
			nix := &index{r: out, indexKey: key, cols: ix.cols}
			nix.take(ix)
			out.indexes[key] = nix
		}
	}
	return out, cost
}

// take makes ix the heir of src's table: src is caught up to its
// relation's size, so no reader of that frozen epoch writes it again,
// and ix goes on from there. Caller holds src's relation mutex.
func (ix *index) take(src *index) {
	src.absorb()
	ix.tab = src.tab
	ix.upto.Store(src.upto.Load())
}

// Equal reports set equality of two relations (live tuples only).
func (r *Relation) Equal(s *Relation) bool {
	if r.Len() != s.Len() || r.Arity != s.Arity {
		return false
	}
	for pos := 0; pos < r.size; pos++ {
		if !r.Live(pos) {
			continue
		}
		if s.Position(View{}, r.hashAt(pos), r.tupleAt(pos)) < 0 {
			return false
		}
	}
	return true
}

// indexSig encodes a column list as a compact map key (one uvarint per
// column) without fmt or a strings.Builder: Index is called once per
// (rule run, step), hot enough in a maintenance phase's thousands of
// one-tuple runs to matter. The
// bytes are built on the stack, so a one-column key — a one-byte
// string, which Go does not allocate — costs no allocation at all.
func indexSig(cols []int) string {
	var buf [16]byte
	b := buf[:0]
	for _, c := range cols {
		b = binary.AppendUvarint(b, uint64(c))
	}
	return string(b)
}

// hashPaths folds a sequence of paths with 0x1f component separators;
// the single fold shared by tuple membership and exact-index keys.
func hashPaths(vals []value.Path) uint64 {
	h := value.HashSeed
	for _, p := range vals {
		h = value.HashByte(h, 0x1f)
		h = p.Hash(h)
	}
	return h
}

// secondary returns the (shared, lazily maintained) secondary index
// filed under key, creating it on first use; cols are an exact index's
// key columns. It is safe from concurrent readers of a frozen relation,
// including the probe that first asks for a shape no other goroutine
// has seen.
func (r *Relation) secondary(key indexKey, cols []int) *index {
	r.mu.RLock()
	ix := r.indexes[key]
	r.mu.RUnlock()
	if ix != nil {
		return ix
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ix := r.indexes[key]; ix != nil {
		return ix
	}
	ix = &index{r: r, indexKey: key, cols: append([]int(nil), cols...)}
	if r.indexes == nil {
		r.indexes = map[indexKey]*index{}
	}
	r.indexes[key] = ix
	return ix
}

// keyHash returns the hash the tuple at pos is filed under, and false
// when it has no key in this index (its column is shorter than n). It
// must agree with the hash probes compute from their key: hashPaths for
// membership and exact probes, the affix's own hash for prefix and
// suffix probes.
func (ix *index) keyHash(pos int) (uint64, bool) {
	if ix.kind == kindMember {
		return ix.r.hashAt(pos), true
	}
	t := ix.r.tupleAt(pos)
	if ix.kind == kindExact {
		h := value.HashSeed
		for _, c := range ix.cols {
			h = value.HashByte(h, 0x1f)
			h = t[c].Hash(h)
		}
		return h, true
	}
	p := t[ix.col]
	if len(p) < ix.n {
		return 0, false
	}
	if ix.kind == kindPrefix {
		return p[:ix.n].Hash(value.HashSeed), true
	}
	return p[len(p)-ix.n:].Hash(value.HashSeed), true
}

// catchUp absorbs every tuple Added since the last absorb, bringing the
// index fully up to date. Every probe calls it; the owning writer keeps
// membership caught up inline (recordMember), so for that index it only
// does work on the first probe of a clone that did not inherit the
// tables (see cloneShared), which rebuilds it from the tuple log.
// Absorbing is synchronized: the watermark is published atomically
// after the chains are linked, so a concurrent probe that observes it
// never sees a partially built index.
func (ix *index) catchUp() {
	if int(ix.upto.Load()) >= ix.r.size {
		return
	}
	ix.r.mu.Lock()
	defer ix.r.mu.Unlock()
	ix.absorb()
}

// absorb files positions [upto, size) in the table. Caller holds the
// relation's mutex. When another caller absorbed them meanwhile it
// leaves the table alone: lock-free probes may be reading it.
func (ix *index) absorb() {
	from, n := int(ix.upto.Load()), ix.r.size
	if from >= n {
		return
	}
	ix.tab.reserve(n-from, n-from)
	for i := from; i < n; i++ {
		if h, ok := ix.keyHash(i); ok {
			ix.tab.add(tagOf(h), i)
		}
	}
	ix.upto.Store(int64(n))
}

// probe is the one probe every index kind shares: it appends to dst the
// tuple-log positions filed under hash h that are visible under the
// view (tombstones per v.Dead, stamp per v.Admits) and whose tuples
// satisfy equal, the kind's comparison against the probe key (this is
// where hash and tag collisions are filtered), and returns the extended
// slice — only the first of them when first is set, which is all a
// membership probe needs. Chains run in ascending position order, so
// the positions come out ascending, and the walk ends at the last entry
// of this epoch's view even when an heir has filed more.
func (ix *index) probe(dst []int, v View, h uint64, first bool, equal func(Tuple) bool) []int {
	ix.catchUp()
	r, t := ix.r, &ix.tab
	for e := t.chain(h); e != 0; {
		var pos int
		pos, e = t.at(e)
		w := r.wordAt(pos)
		if (v.Dead || w&deadBit == 0) && v.Admits(w&^deadBit) && equal(r.tupleAt(pos)) {
			dst = append(dst, pos)
			if first {
				return dst
			}
		}
	}
	return dst
}

// Index returns the (shared, lazily maintained) exact index keyed on
// the given argument positions. Every column in order is the full
// tuple, and hashPaths files it under the membership hash, so that
// shape is the membership index itself, not a second table of the same
// keys. Positions out of range panic: schemas fix arities, so this is
// a programming error.
func (r *Relation) Index(cols ...int) *Index {
	whole := len(cols) == r.Arity
	for i, c := range cols {
		if c < 0 || c >= r.Arity {
			panic(fmt.Sprintf("instance: index column %d out of range for arity-%d relation", c, r.Arity))
		}
		whole = whole && c == i
	}
	if whole {
		return &r.member
	}
	return r.secondary(indexKey{kind: kindExact, sig: indexSig(cols)}, cols)
}

// Lookup appends to dst the tuple-log positions (ascending) of the
// tuples whose indexed columns equal vals component-wise and that the
// view admits, and returns the extended slice: live tuples only unless
// v.Dead, and only positions whose derivation stamp passes v.Admits.
// The zero View is the plain live view. Hash collisions are verified,
// so every appended position is a true match. The index never retains
// dst, so a caller that reuses one buffer per probe site allocates
// nothing once it has grown.
//
// v.Dead is reserved for the DRed overdeletion phase, which joins
// against the pre-deletion state of a relation (live tuples plus
// everything deleted during the current maintenance run, which is
// exactly the set still occupying positions); cmd/seqlint rejects it
// anywhere else.
func (ix *Index) Lookup(dst []int, v View, vals ...value.Path) []int {
	if len(vals) != len(ix.cols) && (ix.kind != kindMember || len(vals) != ix.r.Arity) {
		panic(fmt.Sprintf("instance: index over %d columns probed with %d values", len(ix.cols), len(vals)))
	}
	if ix.kind == kindMember {
		return ix.probe(dst, v, hashPaths(vals), false, Tuple(vals).Equal)
	}
	return ix.probe(dst, v, hashPaths(vals), false, func(t Tuple) bool {
		for j, c := range ix.cols {
			if !t[c].Equal(vals[j]) {
				return false
			}
		}
		return true
	})
}

// PrefixLookup appends to dst (see Lookup) the tuple-log positions
// (ascending) of the tuples the view admits whose column col starts
// with the given non-empty prefix. A separate index per (col,
// len(prefix)) is built lazily and caught up after Adds.
//
// This is the probe the evaluator uses when a join argument like
// @y.$rest has a ground prefix under the current valuation: any
// matching tuple's column must begin with exactly that prefix.
func (r *Relation) PrefixLookup(dst []int, v View, col int, prefix value.Path) []int {
	return r.affixLookup(dst, kindPrefix, v, col, prefix)
}

// SuffixLookup is PrefixLookup for the last len(suffix) values of the
// column: the probe the evaluator uses when a join argument like
// $rest.@y has its trailing terms ground under the current valuation
// (the paper's bound-suffix patterns, §2.2).
func (r *Relation) SuffixLookup(dst []int, v View, col int, suffix value.Path) []int {
	return r.affixLookup(dst, kindSuffix, v, col, suffix)
}

func (r *Relation) affixLookup(dst []int, kind indexKind, v View, col int, affix value.Path) []int {
	if col < 0 || col >= r.Arity {
		panic(fmt.Sprintf("instance: %s column %d out of range for arity-%d relation", kind, col, r.Arity))
	}
	if len(affix) == 0 {
		panic(fmt.Sprintf("instance: empty %s probe (caller should scan)", kind))
	}
	ix := r.secondary(indexKey{kind: kind, col: col, n: len(affix)}, nil)
	return ix.probe(dst, v, affix.Hash(value.HashSeed), false, func(t Tuple) bool {
		p := t[col]
		if len(p) < len(affix) {
			return false
		}
		if kind == kindPrefix {
			return p[:len(affix)].Equal(affix)
		}
		return p[len(p)-len(affix):].Equal(affix)
	})
}

// CloneStats accumulates the work the Ensure write barrier has done on
// behalf of one instance: how many frozen relations were replaced by
// epoch clones, how many sealed chunks those clones shared by pointer
// instead of copying, and approximately how many bytes they copied (the
// chunk pointer slices, and the partial tail chunks of clones that did
// not inherit them). A stamp array a chunk copies on its first delete
// or re-birth after the barrier (see writeStamp) is not counted here.
// The ratio of SharedChunks to CloneBytes is what makes snapshot-epoch
// write barriers O(1)-ish instead of O(relation).
type CloneStats struct {
	BarrierClones int64
	SharedChunks  int64
	CloneBytes    int64
}

// Sub returns s - o, for deriving per-call deltas from two readings.
func (s CloneStats) Sub(o CloneStats) CloneStats {
	return CloneStats{
		BarrierClones: s.BarrierClones - o.BarrierClones,
		SharedChunks:  s.SharedChunks - o.SharedChunks,
		CloneBytes:    s.CloneBytes - o.CloneBytes,
	}
}

// Add accumulates o into s.
func (s *CloneStats) Add(o CloneStats) {
	s.BarrierClones += o.BarrierClones
	s.SharedChunks += o.SharedChunks
	s.CloneBytes += o.CloneBytes
}

// Instance assigns finite relations to relation names (paper §2.1).
type Instance struct {
	rels    map[string]*Relation
	clones  CloneStats
	stamper *Stamper
}

// New creates an empty instance.
func New() *Instance { return &Instance{rels: map[string]*Relation{}} }

// Relation returns the named relation or nil.
func (i *Instance) Relation(name string) *Relation { return i.rels[name] }

// SetStamper attaches a stamper to the instance: Ensure hands it to
// every relation it returns (created, cloned at the write barrier, or
// already writable), so all writes draw stamps from one monotone birth
// counter. The engine attaches one stamper per materialization, so
// births order every fact of it (see eval's dred.go).
func (i *Instance) SetStamper(s *Stamper) { i.stamper = s }

// CloneStats reports the accumulated write-barrier work of this
// instance; see CloneStats.
func (i *Instance) CloneStats() CloneStats { return i.clones }

// Ensure returns the named relation, creating it with the given arity if
// absent. It panics on an arity clash: schemas fix arities.
//
// Ensure is the instance's write barrier: when the named relation is
// frozen (its storage is shared with a snapshot), it is replaced by an
// unfrozen epoch clone before being returned, so the caller can write
// to it without disturbing any snapshot. The clone preserves tuple-log
// positions (tombstones included), so delta windows recorded before the
// barrier stay valid after it — and it shares every sealed chunk with
// the frozen original and, as its first clone, appends to its tail
// chunk and index tables in place, so the barrier costs
// O(size/chunkSize), not O(size). Readers that only need to look at a
// relation should use Relation instead, which never clones.
func (i *Instance) Ensure(name string, arity int) *Relation {
	if r, ok := i.rels[name]; ok {
		if r.Arity != arity {
			panic(fmt.Sprintf("instance: relation %s has arity %d, requested %d", name, r.Arity, arity))
		}
		if r.Frozen() {
			clone, cost := r.cloneShared()
			i.clones.Add(cost)
			i.rels[name] = clone
			r = clone
		}
		// Unconditional, including nil: a writer only ever draws stamps
		// from ITS instance's stamper. A clone inherits the relation-level
		// pointer from its parent epoch, and without this reattach an
		// unrelated instance (a user writing over an engine snapshot)
		// would keep issuing births from the engine's live counter.
		r.stamper = i.stamper
		return r
	}
	r := NewRelation(arity)
	r.stamper = i.stamper
	i.rels[name] = r
	return r
}

// Add inserts the fact name(t...) creating the relation as needed.
func (i *Instance) Add(name string, t Tuple) bool {
	return i.Ensure(name, len(t)).Add(t)
}

// Delete removes the fact name(t...), reporting whether it was
// present. Like every write it goes through the Ensure barrier, so a
// frozen (snapshot-shared) relation is cloned before the tombstone is
// placed and no snapshot ever observes the deletion.
func (i *Instance) Delete(name string, t Tuple) bool {
	r := i.rels[name]
	if r == nil || !r.Contains(t) {
		return false
	}
	return i.Ensure(name, r.Arity).Delete(t)
}

// AddPath inserts a unary fact.
func (i *Instance) AddPath(name string, p value.Path) bool {
	return i.Add(name, Tuple{p})
}

// AddFact inserts a nullary fact (a boolean flag relation).
func (i *Instance) AddFact(name string) bool { return i.Add(name, Tuple{}) }

// Has reports whether the fact is present.
func (i *Instance) Has(name string, t Tuple) bool {
	r := i.rels[name]
	return r != nil && r.Contains(t)
}

// Names returns the relation names, sorted.
func (i *Instance) Names() []string {
	out := make([]string, 0, len(i.rels))
	for n := range i.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Facts returns the total number of facts.
func (i *Instance) Facts() int {
	n := 0
	for _, r := range i.rels {
		n += r.Len()
	}
	return n
}

// Clone returns an independent copy.
func (i *Instance) Clone() *Instance {
	out := New()
	for n, r := range i.rels {
		out.rels[n] = r.Clone()
	}
	return out
}

// Snapshot returns a copy-on-write snapshot: a new instance sharing
// every relation's chunked tuple log with i. Both i and the snapshot
// keep reading the shared (now frozen) relations for free; the first
// write to a relation on either side — any write funneled through
// Ensure — transparently replaces that side's entry with an unfrozen
// epoch clone that still shares every sealed chunk, leaving the other
// side untouched. Relations never written again are never copied, and
// even written ones only pay for their tail.
//
// A snapshot is safe for any number of concurrent readers, including
// reads that lazily build secondary indexes, even while the originating
// instance keeps being written: writers only ever touch unfrozen
// clones, which no snapshot can see. Snapshot itself is NOT safe to run
// concurrently with writes to i; callers serialize it with their write
// path (the eval.Engine takes snapshots under its own lock).
func (i *Instance) Snapshot() *Instance {
	out := New()
	for n, r := range i.rels {
		r.Freeze()
		out.rels[n] = r
	}
	return out
}

// Put installs rel under name, replacing any existing mapping; writes
// through Ensure will clone it as needed. The engine's EDBSnapshot
// uses it to assemble the base facts out of frozen relations.
func (i *Instance) Put(name string, rel *Relation) { i.rels[name] = rel }

// Equal reports whether two instances hold exactly the same facts.
// Empty relations are equivalent to absent ones.
func (i *Instance) Equal(j *Instance) bool {
	for _, p := range [2][2]*Instance{{i, j}, {j, i}} {
		for n, r := range p[0].rels {
			if s := p[1].rels[n]; r.Len() > 0 && (s == nil || !r.Equal(s)) {
				return false
			}
		}
	}
	return true
}

// IsFlat reports whether no packed value occurs anywhere (paper §3.1).
func (i *Instance) IsFlat() bool {
	for _, r := range i.rels {
		for _, t := range r.Tuples() {
			for _, p := range t {
				if !p.IsFlat() {
					return false
				}
			}
		}
	}
	return true
}

// factBatch is the size of the pieces WriteFacts hands its writer.
const factBatch = 16 << 10

// WriteFacts writes the relation's facts under the given name, sorted,
// one per line in the syntax the parser reads back: "name(p1, ..., pn)."
// and "name." for the nullary fact. It is the one fact renderer — the
// CLIs, the daemon's query reply and Instance.String all print through
// it. A fact is rendered once, into its chunk's text (see lines), which
// every later print and epoch sharing the chunk reuses; a print gathers
// the lines in canonical order into a buffer that w receives in pieces
// of about factBatch bytes, not one Write per fact.
func (r *Relation) WriteFacts(w io.Writer, name string) error {
	size := r.Len() * len(name)
	var scratch []byte
	for ci, c := range r.chunks {
		size += len(c.lines(min(chunkSize, r.size-ci<<chunkShift), &scratch).buf)
	}
	batch := make([]byte, 0, min(size, factBatch))
	for _, pos := range r.canonical() {
		if !r.Live(int(pos)) {
			continue
		}
		t, off := r.chunks[pos>>chunkShift].text.Load(), pos&chunkMask
		line := t.buf[t.at[off]:t.at[off+1]]
		if len(batch) > 0 && len(batch)+len(name)+len(line) > cap(batch) {
			if _, err := w.Write(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
		batch = append(append(batch, name...), line...)
	}
	if len(batch) > 0 {
		_, err := w.Write(batch)
		return err
	}
	return nil
}

// String renders all facts sorted, one per line, as "R(p1, ..., pn).".
func (i *Instance) String() string {
	var b strings.Builder
	for _, n := range i.Names() {
		i.rels[n].WriteFacts(&b, n) // a strings.Builder never fails
	}
	return b.String()
}

// Diff describes the first difference between two instances, for test
// failure messages; it returns "" when equal.
func Diff(a, b *Instance) string {
	for k, p := range [2][2]*Instance{{a, b}, {b, a}} {
		for _, n := range p[0].Names() {
			s := p[1].rels[n]
			for _, t := range p[0].rels[n].Sorted() {
				if s == nil || !s.Contains(t) {
					return fmt.Sprintf("only in %s: %s%s", [2]string{"first", "second"}[k], n, t)
				}
			}
		}
	}
	return ""
}
