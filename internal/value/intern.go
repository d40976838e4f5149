package value

import (
	"maps"
	"runtime"
	"sync"
	"weak"
)

// This file holds the interning layer behind the data model: one table
// type of value records, one table for atom texts and one for packed
// values. A table maps a value's structural hash to weak pointers at
// the records sharing it, so structurally equal values are one record:
// their equality is pointer comparison, and every value carries its
// precomputed hash. The engine's hot paths (tuple hashing, index
// probes, unification memoization) never re-walk value bytes.
//
// Once no value references a record, the garbage collector reclaims it
// and a cleanup drops its dead pointer from the table, so a server fed
// an endless stream of fresh values keeps only those still held.
// Interning a value again afterwards makes a new record; the old one is
// unreachable, so nothing can tell. A Go map keeps its peak capacity
// when keys are deleted, so once a table has fallen to a quarter of its
// peak, its map is rebuilt at the present size: a burst of values that
// came and went leaves no room behind, and each rebuild is paid for by
// the deletions before it.
//
// Concurrency: one RWMutex per table. A lookup takes the read lock; an
// insert (looking again under it) and a cleanup take the write lock.
// seqlogd's sessions parse requests, and so intern, concurrently.

// table interns value records, keyed by structural hash.
type table struct {
	mu   sync.RWMutex
	m    map[uint64][]weak.Pointer[rec]
	n    int // pointers in m: live records, and dead ones awaiting their cleanup
	peak int // the largest n since m was last rebuilt
}

// shrinkFloor is the peak below which a table's map is never rebuilt:
// a small map's spare room costs less than the rebuild.
const shrinkFloor = 1 << 10

// bucket is a record's cleanup argument. The cleanup is the static
// function drop: a method value would allocate a closure per record.
type bucket struct {
	t *table
	h uint64
}

func drop(b bucket) { b.t.drop(b.h) }

// intern returns the live record with hash h that same accepts, or
// stores and returns fresh() when there is none.
func (t *table) intern(h uint64, same func(*rec) bool, fresh func() *rec) *rec {
	t.mu.RLock()
	r := t.find(h, same)
	t.mu.RUnlock()
	if r != nil {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.find(h, same); r != nil {
		return r
	}
	r = fresh()
	t.m[h] = append(t.m[h], weak.Make(r))
	t.n++
	t.peak = max(t.peak, t.n)
	runtime.AddCleanup(r, drop, bucket{t, h})
	return r
}

func (t *table) find(h uint64, same func(*rec) bool) *rec {
	for _, w := range t.m[h] {
		if r := w.Value(); r != nil && same(r) {
			return r
		}
	}
	return nil
}

// drop runs once a record with hash h has been reclaimed. It removes the
// dead pointers from the bucket and keeps the live ones: a record that
// collides on the hash, or one interned again for the same value after
// the reclaimed one died.
func (t *table) drop(h uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ws := t.m[h]
	live := ws[:0]
	for _, w := range ws {
		if w.Value() != nil {
			live = append(live, w)
		}
	}
	clear(ws[len(live):])
	t.n -= len(ws) - len(live)
	if t.m[h] = live; len(live) == 0 {
		delete(t.m, h)
	}
	if t.peak > shrinkFloor && t.n < t.peak/4 {
		t.m, t.peak = maps.Clone(t.m), t.n
	}
}

var (
	atoms = &table{m: map[uint64][]weak.Pointer[rec]{}}
	packs = &table{m: map[uint64][]weak.Pointer[rec]{}}
)

// atomHashOf computes the structural FNV-1a hash of an atom's text. The
// 0x01 tag keeps atom hashes disjoint from packed-value hashes.
func atomHashOf(text string) uint64 {
	h := HashByte(HashSeed, 0x01)
	for i := 0; i < len(text); i++ {
		h = HashByte(h, text[i])
	}
	return h
}

// Intern returns the canonical atom for a text. It is safe for
// concurrent use; while an atom of a text is reachable, interning the
// text yields a Value == to it.
func Intern(text string) Value {
	if text == "" {
		return Value{}
	}
	h := atomHashOf(text)
	return Value{atoms.intern(h, func(r *rec) bool { return r.text == text },
		func() *rec { return &rec{text: text, shown: renderAtom(text), hash: h} })}
}

// Symbols returns the number of atoms in the symbol table, the empty one
// aside: the live ones, and reclaimed ones whose cleanup has not run.
func Symbols() int {
	atoms.mu.RLock()
	defer atoms.mu.RUnlock()
	return atoms.n
}

// packedHashOf is the structural hash of the packed value <p>: the
// inner path hash bracketed by the 0x02/0x03 tags that keep <a.b>
// distinct from the flat path a.b.
func packedHashOf(p Path) uint64 {
	return HashByte(p.Hash(HashByte(HashSeed, 0x02)), 0x03)
}

// Pack wraps a path into the canonical packed value <p>, hash-consing
// it: structurally equal packed values share one record carrying a
// precomputed hash, so their equality is pointer comparison. The path
// is copied when a new record is created, so callers may pass (and
// afterwards reuse) scratch buffers. Pack is safe for concurrent use.
func Pack(p Path) Value {
	h := packedHashOf(p)
	return Value{packs.intern(h, func(r *rec) bool { return r.path.Equal(p) },
		func() *rec { return &rec{path: p.Clone(), hash: h, kind: KindPacked} })}
}
