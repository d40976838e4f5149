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
// reached chunkSize entries is sealed — it is never written again, so
// any number of relation epochs can share it by pointer. Only the
// partial tail chunk of an unfrozen relation is ever appended to, and
// the copy-on-write barrier (cloneShared) always gives the clone a
// private copy of a partial tail, so a shared chunk is immutable by
// construction.
const (
	chunkShift = 8
	chunkSize  = 1 << chunkShift
	chunkMask  = chunkSize - 1
)

// chunk is one block of the append-only tuple log: up to chunkSize
// tuples plus their precomputed structural hashes and derivation
// stamps. The slices grow together (len(hashes) == len(stamps) ==
// len(tuples)), so small relations pay for the tuples they hold, not
// for a full block.
type chunk struct {
	tuples []Tuple
	hashes []uint64
	stamps []uint64
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

// deadPage is the tombstone bitmap for one chunk: bit off marks
// position (chunkIndex<<chunkShift)|off dead. Pages are copy-on-write
// across epochs — a relation may only set bits in pages it owns
// (deadOwned), so tombstones placed after a freeze never become
// visible to older snapshots sharing the same chunks.
type deadPage [chunkSize / 64]uint64

func (p *deadPage) get(off int) bool { return p[off>>6]&(1<<(off&63)) != 0 }
func (p *deadPage) set(off int)      { p[off>>6] |= 1 << (off & 63) }

// postings is an immutable hash → ascending tuple-log positions table
// covering positions [0, upto). Once published (installed as the base
// of a membership or secondary index) a postings is never mutated:
// epochs extend it with private overlays and occasionally flatten
// base+overlay into a fresh postings at the write barrier. Buckets may
// be shared between generations of postings, so they are read-only
// too.
type postings struct {
	m    map[uint64][]int
	n    int // total entries, for sizing the next flatten
	upto int // positions [0, upto) are covered
}

// flattenThreshold bounds the position gap an epoch clone is willing
// to inherit lazily: at the write barrier an index whose base trails
// the absorbed watermark by fewer positions is shared as (base,
// re-absorb the small gap); a larger gap is flattened into a fresh
// immutable base — but only once the gap is also a constant fraction
// of the covered positions (shareOrFlatten), so flattening is
// amortized O(1) per appended tuple however fast the relation grows.
// The owner of an unfrozen relation never flattens — its overlay just
// grows, like a plain hash index — so the uncontended write path is
// untouched.
const flattenThreshold = 256

// flattenPostings builds a fresh immutable postings from a base (may
// be nil) plus an overlay covering [base.upto, upto). Base buckets
// that the overlay does not extend are shared; extended or new buckets
// are freshly allocated, so the result never aliases a slice that some
// other epoch may still append to.
func flattenPostings(base *postings, over map[uint64][]int, overCount, upto int) *postings {
	baseN, baseBuckets := 0, 0
	if base != nil {
		baseN, baseBuckets = base.n, len(base.m)
	}
	m := make(map[uint64][]int, baseBuckets+len(over))
	if base != nil {
		for h, bucket := range base.m {
			if ovb, ok := over[h]; ok {
				merged := make([]int, 0, len(bucket)+len(ovb))
				merged = append(merged, bucket...)
				merged = append(merged, ovb...)
				m[h] = merged
			} else {
				m[h] = bucket
			}
		}
	}
	for h, ovb := range over {
		if _, ok := m[h]; ok {
			continue
		}
		m[h] = append([]int(nil), ovb...)
	}
	return &postings{m: m, n: baseN + overCount, upto: upto}
}

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

// index is the one index implementation behind all four kinds, in
// epoch-shared form: an immutable base postings shared across snapshot
// generations plus a private overlay for the positions absorbed since.
// It is built lazily: creation is free, and every probe first absorbs
// the tuples Added since the last one (catchUp), so an index is never
// stale. Probes are safe from multiple goroutines while the relation is
// frozen (see the Relation concurrency contract): the absorb step runs
// under the relation's mutex and publishes its watermark atomically, so
// concurrent probes either skip it lock-free or serialize on the build.
type index struct {
	r *Relation
	indexKey
	cols      []int     // exact: the key columns
	base      *postings // immutable, shared across epochs; nil when none
	over      map[uint64][]int
	overCount int
	upto      atomic.Int64 // positions [0, upto) are absorbed
}

// Index is the handle Relation.Index returns: an exact index keyed on a
// projection of the relation's columns.
type Index = index

// Relation is a finite n-ary relation on paths with set semantics and
// deterministic iteration order (insertion order; Sorted() for canonical
// order).
//
// Storage is an epoch-shared append-only tuple log: fixed-capacity
// chunks of tuples plus precomputed hashes, shared by pointer between
// a relation and every snapshot taken of it. A snapshot epoch is
// identified by (chunk list, length watermark, tombstone view): the
// copy-on-write barrier (Instance.Ensure on a frozen relation) copies
// only the chunk pointer slice, the partial tail chunk and the
// tombstone page pointers — O(size/chunkSize), not O(size) — and the
// clone appends to a fresh tail while older readers keep iterating
// their own watermark over the shared sealed chunks.
//
// Membership is maintained through a built-in full-tuple hash index:
// each tuple's structural hash is computed once on Add and reused by
// Contains, Equal and Clone. Secondary indexes over column projections
// (Index), column prefixes (PrefixLookup) and column suffixes
// (SuffixLookup) are built lazily on first lookup and caught up after
// later Adds, so they are never stale. All of these share their bulk
// across epochs the same way the tuple log is shared: an immutable
// base postings plus a small private overlay, flattened at the write
// barrier only when the overlay has grown past flattenThreshold. The
// canonical order behind Sorted and WriteFacts is the fifth shared
// part: an immutable sorted array of positions, built on first use,
// extended by merging in what was appended since, inherited by pointer
// at the barrier and renumbered by Compact (see canonical).
//
// Deletion is tombstone-based: Delete marks the tuple's position dead
// in a copy-on-write bitmap page, but the position itself stays
// occupied so that delta windows over the tuple log ([lo, hi) position
// ranges handed out while the relation was larger) remain valid. Pages
// are path-copied on first write after a barrier, so a tombstone set
// after a freeze is invisible to every older reader — epochs never
// leak deletions backwards. Live reports whether a position still
// holds a fact; Len counts live tuples while Size is the position
// high-water mark including tombstones. Tombstones are reclaimed by
// Compact (which rewrites into fresh chunks, never touching shared
// ones — the epoch fence) or Clone (the copy is always compacted).
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
// against readers. The parallel evaluator relies on exactly this
// split: within a fixpoint round no relation is written (workers read
// the shared instance, catching indexes up under the lock, and derive
// into private buffers) and all writes happen single-threaded at the
// round barrier.
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

	// dead holds one tombstone page per chunk (nil page or a slice
	// shorter than chunks: no tombstones there); deadOwned[i] reports
	// whether page i may be written in place or must be path-copied
	// first (it was inherited from a frozen parent). tombs counts the
	// dead positions, so Live's fast path is a single integer check.
	dead      []*deadPage
	deadOwned []bool
	tombs     int

	// member is the built-in full-tuple membership index. The owning
	// writer keeps it caught up inline (recordMember).
	member index

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
	// included), the barrier's read of their base/overlay state, and
	// the canonical order; see the concurrency contract above.
	mu      sync.RWMutex
	indexes map[indexKey]*index

	// order is the canonical order of tuple-log positions [0,
	// len(order)) — tombstoned ones included, readers filter through
	// their own tombstone view — at 4 bytes a position, built by the
	// first Sorted or WriteFacts (see canonical). A published array is
	// never written again: the barrier clone inherits it by pointer like
	// an index base, and a later epoch extends it into a fresh one.
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

// tupleAt, hashAt and stampAt read the tuple log by position.
func (r *Relation) tupleAt(pos int) Tuple  { return r.chunks[pos>>chunkShift].tuples[pos&chunkMask] }
func (r *Relation) hashAt(pos int) uint64  { return r.chunks[pos>>chunkShift].hashes[pos&chunkMask] }
func (r *Relation) stampAt(pos int) uint64 { return r.chunks[pos>>chunkShift].stamps[pos&chunkMask] }

// StampAt returns the derivation stamp of the tuple at position pos
// (0 for tuples appended without a stamper: base facts).
func (r *Relation) StampAt(pos int) uint64 { return r.stampAt(pos) }

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
		// The tail's slices grow by appending: the maintenance paths
		// create many short-lived window relations holding a handful of
		// tuples, and pre-sizing every chunk would charge each of them
		// for a full chunk's backing.
		r.chunks = append(r.chunks, &chunk{})
	}
	c := r.chunks[ci]
	c.tuples = append(c.tuples, t)
	c.hashes = append(c.hashes, h)
	c.stamps = append(c.stamps, stamp)
	r.size++
}

// recordMember registers a freshly appended position in the membership
// overlay. Caller is the exclusive writer and has already caught up.
func (r *Relation) recordMember(h uint64, pos int) {
	if r.member.over == nil {
		r.member.over = map[uint64][]int{}
	}
	r.member.over[h] = append(r.member.over[h], pos)
	r.member.overCount++
	r.member.upto.Store(int64(pos + 1))
}

// Add inserts a tuple; it reports whether the tuple was new.
// Adding a tuple of the wrong arity panics: this is a programming error.
func (r *Relation) Add(t Tuple) bool {
	return r.AddHashed(t.Hash(), t)
}

// AddHashed is Add with the tuple's precomputed hash (h must equal
// t.Hash()), so callers that already probed with ContainsHashed do not
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
	r.tombstone(pos)
	return true
}

// tombstone marks pos dead on this epoch's tombstone view. A page
// inherited from a frozen parent is path-copied before the first bit
// is set, so older watermarked readers sharing the original page never
// observe the deletion.
func (r *Relation) tombstone(pos int) {
	pi := pos >> chunkShift
	if pi >= len(r.dead) {
		grown := make([]*deadPage, len(r.chunks))
		copy(grown, r.dead)
		grownOwned := make([]bool, len(r.chunks))
		copy(grownOwned, r.deadOwned)
		r.dead, r.deadOwned = grown, grownOwned
	}
	pg := r.dead[pi]
	switch {
	case pg == nil:
		pg = &deadPage{}
		r.dead[pi], r.deadOwned[pi] = pg, true
	case !r.deadOwned[pi]:
		cp := *pg
		pg = &cp
		r.dead[pi], r.deadOwned[pi] = pg, true
	}
	pg.set(pos & chunkMask)
	r.tombs++
}

// Live reports whether the tuple at position pos has not been deleted.
func (r *Relation) Live(pos int) bool {
	if r.tombs == 0 {
		return true
	}
	pi := pos >> chunkShift
	if pi >= len(r.dead) {
		return true
	}
	pg := r.dead[pi]
	return pg == nil || !pg.get(pos&chunkMask)
}

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
	old := r.chunks
	oldSize := r.size
	r.chunks, r.size = nil, 0
	m := make(map[uint64][]int, oldSize-r.tombs)
	// The renumbering is monotone, so the canonical order survives it
	// without a comparison: drop the dead positions, rename the rest.
	// renamed holds each ordered live position's new one plus 1.
	renamed := make([]uint32, len(r.order))
	for pos := 0; pos < oldSize; pos++ {
		pg := (*deadPage)(nil)
		if pi := pos >> chunkShift; pi < len(r.dead) {
			pg = r.dead[pi]
		}
		if pg != nil && pg.get(pos&chunkMask) {
			continue
		}
		c := old[pos>>chunkShift]
		h := c.hashes[pos&chunkMask]
		r.appendStamped(h, c.tuples[pos&chunkMask], c.stamps[pos&chunkMask])
		m[h] = append(m[h], r.size-1)
		if pos < len(renamed) {
			renamed[pos] = uint32(r.size)
		}
	}
	order := make([]uint32, 0, min(len(r.order), r.size))
	for _, pos := range r.order {
		if renamed[pos] > 0 {
			order = append(order, renamed[pos]-1)
		}
	}
	r.dead, r.deadOwned, r.tombs = nil, nil, 0
	// The rebuilt membership becomes an immutable base: the next write
	// barrier shares it for free instead of flattening the whole map.
	r.member.base = &postings{m: m, n: r.size, upto: r.size}
	r.member.over, r.member.overCount = nil, 0
	r.member.upto.Store(int64(r.size))
	r.mu.Lock()
	r.indexes, r.order = nil, order
	r.mu.Unlock()
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
	if m := r.member.probe(v, h, true, t.Equal); len(m) > 0 {
		return m[0]
	}
	return -1
}

// HashAt returns the precomputed hash of the tuple at insertion
// position i, so bulk consumers (the parallel evaluator's round merge)
// can re-insert tuples elsewhere without rehashing them.
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
// tombstoned positions are dropped and live tuples renumbered densely.
// The precomputed tuple hashes and derivation stamps are reused and
// the membership index is rebuilt as an immutable base (cheap to share
// at the next write barrier); secondary indexes rebuild lazily on the
// copy when first used. Nothing is shared with the original except the
// tuples themselves, which are immutable.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.Arity)
	m := make(map[uint64][]int, r.Len())
	for pos := 0; pos < r.size; pos++ {
		if !r.Live(pos) {
			continue
		}
		h := r.hashAt(pos)
		out.appendStamped(h, r.tupleAt(pos), r.stampAt(pos))
		m[h] = append(m[h], out.size-1)
	}
	out.member.base = &postings{m: m, n: out.size, upto: out.size}
	out.member.upto.Store(int64(out.size))
	return out
}

// cloneCost reports what one write-barrier clone actually did, for the
// instance's CloneStats: how many sealed chunks were shared by pointer
// and approximately how many bytes the barrier had to copy (tail
// chunk, pointer slices, tombstone pages, index flattening).
type cloneCost struct {
	sharedChunks int64
	copiedBytes  int64
}

// cloneShared is the epoch write barrier: an O(size/chunkSize) clone
// that shares every sealed chunk, tombstone page, index base and the
// canonical order with the frozen original and copies only the tail, the
// pointer slices, and — when an overlay outgrew flattenThreshold — a
// flattened index base. Tuple-log positions, tombstones included, are
// preserved exactly, so delta windows recorded against the frozen
// original stay valid against the writable clone. The original may be
// probed concurrently (it is frozen; lazy index absorbs synchronize on
// its mutex, which cloneShared holds while reading index state).
func (r *Relation) cloneShared() (*Relation, cloneCost) {
	var cost cloneCost
	out := &Relation{Arity: r.Arity, size: r.size, tombs: r.tombs, stamper: r.stamper}
	out.member.r = out
	out.chunks = append([]*chunk(nil), r.chunks...)
	cost.sharedChunks = int64(len(r.chunks))
	cost.copiedBytes = int64(len(r.chunks)) * 8
	if tail := r.size & chunkMask; tail != 0 {
		ci := len(r.chunks) - 1
		old := r.chunks[ci]
		out.chunks[ci] = &chunk{
			tuples: append(make([]Tuple, 0, chunkSize), old.tuples...),
			hashes: append(make([]uint64, 0, chunkSize), old.hashes...),
			stamps: append(make([]uint64, 0, chunkSize), old.stamps...),
		}
		cost.sharedChunks--
		cost.copiedBytes += int64(tail) * 40
	}
	if len(r.dead) > 0 {
		out.dead = append([]*deadPage(nil), r.dead...)
		out.deadOwned = make([]bool, len(r.dead))
		cost.copiedBytes += int64(len(r.dead)) * 9
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	out.order = r.order
	cost.copiedBytes += out.member.inherit(&r.member)
	if len(r.indexes) > 0 {
		out.indexes = make(map[indexKey]*index, len(r.indexes))
		for key, ix := range r.indexes {
			nix := &index{r: out, indexKey: key, cols: ix.cols}
			cost.copiedBytes += nix.inherit(ix)
			out.indexes[key] = nix
		}
	}
	return out, cost
}

// inherit makes ix the epoch clone of src: it shares src's base, or a
// flattened base+overlay (see shareOrFlatten), and starts with an empty
// overlay. It returns the approximate bytes a flatten copied. Caller
// holds the source relation's mutex.
func (ix *index) inherit(src *index) int64 {
	base, upto, flattened := shareOrFlatten(src.base, src.over, src.overCount, int(src.upto.Load()))
	ix.base = base
	ix.upto.Store(int64(upto))
	return flattened
}

// shareOrFlatten decides how an epoch clone inherits one index: a
// small position gap above the base is dropped (the clone re-absorbs
// it lazily), a large one is flattened with the base into a fresh
// immutable postings covering everything absorbed so far. The decision
// is on positions, not entries, so even a sparse index (say a prefix
// index most tuples are too short for) advances its shared watermark
// instead of rescanning the log every epoch. It returns the clone's
// base, its absorbed watermark, and the approximate bytes copied by a
// flatten.
func shareOrFlatten(base *postings, over map[uint64][]int, overCount, upto int) (*postings, int, int64) {
	covered := 0
	if base != nil {
		covered = base.upto
	}
	// Two-sided trigger: a gap under the absolute floor is always
	// inherited lazily, and a gap under 1/16 of the covered prefix is
	// too — rebuilding an n-entry base is then paid at most once per
	// n/16 appended positions, i.e. amortized O(1) per tuple even when
	// a single epoch appends more than any fixed constant.
	if gap := upto - covered; gap < flattenThreshold || gap*16 < covered {
		return base, covered, 0
	}
	flat := flattenPostings(base, over, overCount, upto)
	return flat, flat.upto, int64(overCount)*32 + 64
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
// (rule run, step), hot enough under parallel fan-out to matter. The
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

// catchUp absorbs every tuple Added since the last absorb into the
// overlay, bringing the index fully up to date. Every probe calls it;
// the owning writer keeps membership caught up inline (recordMember),
// so for that index it only does work on the first probe of a freshly
// cloned epoch — a gap bounded by the barrier's flatten policy.
// Absorbing is synchronized: the watermark is published atomically
// after the buckets are built, so a concurrent probe that observes it
// never sees a partially built index.
func (ix *index) catchUp() {
	n := ix.r.size
	if int(ix.upto.Load()) >= n {
		return
	}
	ix.r.mu.Lock()
	defer ix.r.mu.Unlock()
	if ix.over == nil {
		ix.over = map[uint64][]int{}
	}
	for i := int(ix.upto.Load()); i < n; i++ {
		if h, ok := ix.keyHash(i); ok {
			ix.over[h] = append(ix.over[h], i)
			ix.overCount++
		}
	}
	ix.upto.Store(int64(n))
}

// probe is the one bucket probe every index kind shares: it returns
// the tuple-log positions (ascending) filed under hash h that are
// visible under the view (tombstones per v.Dead, stamp per v.Admits)
// and whose tuples satisfy equal, the kind's comparison against the
// probe key (this is where hash collisions are filtered) — only the
// first of them when first is set, which is all a membership probe
// needs. The shared base and the private overlay are both probed; base
// positions all precede overlay positions (the base covers a position
// prefix), so base-then-overlay preserves ascending order. The result
// may alias a bucket (the common case where every position of a single
// bucket is a true match allocates nothing); callers must not mutate
// it.
func (ix *index) probe(v View, h uint64, first bool, equal func(Tuple) bool) []int {
	ix.catchUp()
	r := ix.r
	match := func(pos int) bool {
		return (v.Dead || r.Live(pos)) && v.Admits(r.stampAt(pos)) && equal(r.tupleAt(pos))
	}
	var base []int
	if ix.base != nil {
		base = ix.base.m[h]
	}
	if first {
		// The overlay is consulted only once the base has no match: the
		// membership probe of a settled fact stops at the base.
		for k, pos := range base {
			if match(pos) {
				return base[k : k+1]
			}
		}
		over := ix.over[h]
		for k, pos := range over {
			if match(pos) {
				return over[k : k+1]
			}
		}
		return nil
	}
	over := ix.over[h]
	if len(base) == 0 {
		base, over = over, nil
	}
	k := 0
	for k < len(base) && match(base[k]) {
		k++
	}
	if k == len(base) && len(over) == 0 {
		return base
	}
	out := make([]int, k, len(base)+len(over))
	copy(out, base[:k])
	for ; k < len(base); k++ {
		if match(base[k]) {
			out = append(out, base[k])
		}
	}
	for _, pos := range over {
		if match(pos) {
			out = append(out, pos)
		}
	}
	return out
}

// Index returns the (shared, lazily maintained) exact index keyed on
// the given argument positions. Positions out of range panic: schemas
// fix arities, so this is a programming error.
func (r *Relation) Index(cols ...int) *Index {
	for _, c := range cols {
		if c < 0 || c >= r.Arity {
			panic(fmt.Sprintf("instance: index column %d out of range for arity-%d relation", c, r.Arity))
		}
	}
	return r.secondary(indexKey{kind: kindExact, sig: indexSig(cols)}, cols)
}

// Lookup returns the tuple-log positions (ascending) of the tuples
// whose indexed columns equal vals component-wise and that the view
// admits: live tuples only unless v.Dead, and only positions whose
// derivation stamp passes v.Admits. The zero View is the plain live
// view. Hash collisions are verified, so every returned position is a
// true match. The returned slice may be shared with the index; callers
// must not mutate it.
//
// v.Dead is reserved for the DRed overdeletion phase, which joins
// against the pre-deletion state of a relation (live tuples plus
// everything deleted during the current maintenance run, which is
// exactly the set still occupying positions); cmd/seqlint rejects it
// anywhere else.
func (ix *Index) Lookup(v View, vals ...value.Path) []int {
	if len(vals) != len(ix.cols) {
		panic(fmt.Sprintf("instance: index over %d columns probed with %d values", len(ix.cols), len(vals)))
	}
	return ix.probe(v, hashPaths(vals), false, func(t Tuple) bool {
		for j, c := range ix.cols {
			if !t[c].Equal(vals[j]) {
				return false
			}
		}
		return true
	})
}

// PrefixLookup returns the tuple-log positions (ascending) of the
// tuples the view admits (see Lookup) whose column col starts with the
// given non-empty prefix. A separate index per (col, len(prefix)) is
// built lazily and caught up after Adds.
//
// This is the probe the evaluator uses when a join argument like
// @y.$rest has a ground prefix under the current valuation: any
// matching tuple's column must begin with exactly that prefix.
func (r *Relation) PrefixLookup(v View, col int, prefix value.Path) []int {
	return r.affixLookup(kindPrefix, v, col, prefix)
}

// SuffixLookup is PrefixLookup for the last len(suffix) values of the
// column: the probe the evaluator uses when a join argument like
// $rest.@y has its trailing terms ground under the current valuation
// (the paper's bound-suffix patterns, §2.2).
func (r *Relation) SuffixLookup(v View, col int, suffix value.Path) []int {
	return r.affixLookup(kindSuffix, v, col, suffix)
}

func (r *Relation) affixLookup(kind indexKind, v View, col int, affix value.Path) []int {
	if col < 0 || col >= r.Arity {
		panic(fmt.Sprintf("instance: %s column %d out of range for arity-%d relation", kind, col, r.Arity))
	}
	if len(affix) == 0 {
		panic(fmt.Sprintf("instance: empty %s probe (caller should scan)", kind))
	}
	ix := r.secondary(indexKey{kind: kind, col: col, n: len(affix)}, nil)
	return ix.probe(v, affix.Hash(value.HashSeed), false, func(t Tuple) bool {
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
// instead of copying, and approximately how many bytes they did copy
// (partial tail chunks, pointer slices, flattened index bases). The
// ratio of SharedChunks to CloneBytes is what makes snapshot-epoch
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
// counter. The engine attaches one stamper per materialization and
// retags it as maintenance moves through the strata.
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
// barrier stay valid after it — and it shares every sealed chunk and
// index base with the frozen original, so the barrier costs
// O(size/chunkSize), not O(size). Readers that only need to look at a
// relation should use Relation instead, which never clones.
func (i *Instance) Ensure(name string, arity int) *Relation {
	if r, ok := i.rels[name]; ok {
		if r.Arity != arity {
			panic(fmt.Sprintf("instance: relation %s has arity %d, requested %d", name, r.Arity, arity))
		}
		if r.Frozen() {
			clone, cost := r.cloneShared()
			i.clones.BarrierClones++
			i.clones.SharedChunks += cost.sharedChunks
			i.clones.CloneBytes += cost.copiedBytes
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

// Remove deletes the named relation from the instance's mapping. The
// relation object itself is untouched: snapshots sharing it keep
// reading it. Removing an absent name is a no-op.
func (i *Instance) Remove(name string) { delete(i.rels, name) }

// Put installs rel under name, replacing any existing mapping. The
// engine's recompute path uses it to reinstate a (frozen) seed relation
// before re-deriving; writes through Ensure will clone it as needed.
func (i *Instance) Put(name string, rel *Relation) { i.rels[name] = rel }

// Restrict returns a copy containing only the named relations. Frozen
// relations are shared rather than cloned — their storage is immutable,
// so the restriction reads them for free and the first write on either
// side goes through the Ensure barrier, exactly as after Snapshot;
// only unfrozen relations are deep-cloned.
func (i *Instance) Restrict(names ...string) *Instance {
	out := New()
	for _, n := range names {
		if r, ok := i.rels[n]; ok {
			if r.Frozen() {
				out.rels[n] = r
			} else {
				out.rels[n] = r.Clone()
			}
		}
	}
	return out
}

// Merge adds all facts of j into i.
func (i *Instance) Merge(j *Instance) {
	for _, n := range j.Names() {
		r := j.rels[n]
		dst := i.Ensure(n, r.Arity)
		for pos := 0; pos < r.Size(); pos++ {
			if r.Live(pos) {
				dst.AddHashed(r.HashAt(pos), r.TupleAt(pos))
			}
		}
	}
}

// Equal reports whether two instances hold exactly the same facts.
// Empty relations are equivalent to absent ones.
func (i *Instance) Equal(j *Instance) bool {
	for _, n := range i.Names() {
		r := i.rels[n]
		if r.Len() == 0 {
			continue
		}
		s := j.rels[n]
		if s == nil || !r.Equal(s) {
			return false
		}
	}
	for _, n := range j.Names() {
		s := j.rels[n]
		if s.Len() == 0 {
			continue
		}
		r := i.rels[n]
		if r == nil || !r.Equal(s) {
			return false
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

// WriteFacts writes the relation's facts under the given name, sorted,
// one per line in the syntax the parser reads back: "name(p1, ..., pn)."
// and "name." for the nullary fact. It is the one fact renderer — the
// CLIs, the daemon's query reply and Instance.String all print through
// it. Each line is assembled in a reused buffer and handed to w in a
// single Write, so an unbuffered w sees one write per fact.
func (r *Relation) WriteFacts(w io.Writer, name string) error {
	var line []byte
	for _, pos := range r.canonical() {
		if !r.Live(int(pos)) {
			continue
		}
		line = append(line[:0], name...)
		if r.Arity > 0 {
			line = r.tupleAt(int(pos)).appendText(line)
		}
		line = append(line, ".\n"...)
		if _, err := w.Write(line); err != nil {
			return err
		}
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
	for _, n := range a.Names() {
		r := a.Relation(n)
		if r.Len() == 0 {
			continue
		}
		s := b.Relation(n)
		for _, t := range r.Sorted() {
			if s == nil || !s.Contains(t) {
				return fmt.Sprintf("only in first: %s%s", n, t)
			}
		}
	}
	for _, n := range b.Names() {
		s := b.Relation(n)
		if s.Len() == 0 {
			continue
		}
		r := a.Relation(n)
		for _, t := range s.Sorted() {
			if r == nil || !r.Contains(t) {
				return fmt.Sprintf("only in second: %s%s", n, t)
			}
		}
	}
	return ""
}
