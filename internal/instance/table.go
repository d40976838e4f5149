package instance

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// Table is a hash multimap from 64-bit hashes to non-negative int32-range
// values (tuple-log positions) that holds no pointer, so
// the collector never scans it. Each distinct key owns one slot of an
// open-addressed array; a slot is a 32-bit tag of the key's hash plus the
// head and tail of that key's chain, a run of (value, next) entries in
// insertion order, so a lookup returns values in the order they were
// added. Keys whose hashes share a tag share a chain: every caller
// verifies what a lookup returns (the index probes compare tuples). The
// zero Table is empty and ready to use.
// Values are never removed; a relation tombstones positions and Compact
// builds a fresh table.
//
// A Table value is a view of append-only arrays, and its slices are its
// watermarks: a copy keeps reading exactly what was filed before it was
// taken while the original goes on adding through the same arrays. An
// add writes past every older copy's entries, into a slot every older
// copy sees empty, or links a chain's last entry to a new one; a lookup
// stops at the first entry past its own, and chains run in ascending
// entry order, so an older copy never sees a later value. Slot heads and
// entry links are published atomically, so copies may be read while the
// original adds; a rehash or a growth that moves an array never writes
// the old one. Only one copy of a lineage may add (see cloneShared).
type Table struct {
	slots   []slot  // len 0 or a power of two, at most maxLoad full
	entries []entry // every value once, chained per slot
	keys    int     // occupied slots
}

// slot is 12 bytes: head and tail are entry indexes plus one, and a
// zero head marks an empty slot. Only the adding copy reads tail.
type slot struct {
	tag  uint32
	head atomic.Uint32
	tail uint32
}

// entry is one value; next is the chain's next entry index plus one,
// zero at its end.
type entry struct {
	val  uint32
	next atomic.Uint32
}

// maxLoadNum/maxLoadDen is the largest share of occupied slots.
const maxLoadNum, maxLoadDen = 3, 4

func tagOf(h uint64) uint32 { return uint32(h>>32) ^ uint32(h) }

// find returns the index of tag's slot, or of the empty slot where it
// belongs. The home slot is a Fibonacci hash of the tag, so it depends
// on the tag alone and a rehash can place a slot without its key.
func (t *Table) find(tag uint32) int {
	mask := uint32(len(t.slots) - 1)
	i := tag * 0x9E3779B1 >> bits.LeadingZeros32(mask)
	for s := &t.slots[i]; s.head.Load() != 0 && s.tag != tag; s = &t.slots[i] {
		i = (i + 1) & mask
	}
	return int(i)
}

// chain returns the first entry (index plus one) filed under h's tag
// that this view holds, zero when there is none.
func (t *Table) chain(h uint64) uint32 {
	if len(t.slots) == 0 {
		return 0
	}
	return t.held(t.slots[t.find(tagOf(h))].head.Load())
}

// at returns entry e's value and the entry that follows it in its
// chain, zero at the end of the chain or of this view.
func (t *Table) at(e uint32) (int, uint32) {
	en := &t.entries[e-1]
	return int(en.val), t.held(en.next.Load())
}

// held is e when this view holds entry e, zero when a later add filed it.
func (t *Table) held(e uint32) uint32 {
	if int(e) > len(t.entries) {
		return 0
	}
	return e
}

// reserve makes room for keys more keys and entries more values, so
// filling them moves nothing.
func (t *Table) reserve(keys, entries int) {
	t.entries = slices.Grow(t.entries, entries)
	if (t.keys+keys)*maxLoadDen > len(t.slots)*maxLoadNum {
		t.rehash(t.keys + max(keys, len(t.slots)/2))
	}
}

// rehash moves the slots into a fresh array sized for keys keys; it
// never writes the old one, which older views keep reading.
func (t *Table) rehash(keys int) {
	n := 8
	for n*maxLoadNum < keys*maxLoadDen {
		n *= 2
	}
	old := t.slots
	t.slots = make([]slot, n)
	for i := range old {
		if head := old[i].head.Load(); head != 0 {
			s := &t.slots[t.find(old[i].tag)]
			s.tag, s.tail = old[i].tag, old[i].tail
			s.head.Store(head)
		}
	}
}

// add files val under tag at the end of its chain; the caller has
// reserved room.
func (t *Table) add(tag uint32, val int) {
	t.entries = append(t.entries, entry{val: uint32(val)})
	e := uint32(len(t.entries))
	s := &t.slots[t.find(tag)]
	if s.head.Load() == 0 {
		s.tag, s.tail = tag, e
		s.head.Store(e)
		t.keys++
		return
	}
	t.entries[s.tail-1].next.Store(e)
	s.tail = e
}

// Add files val under h, after every value already filed under it.
func (t *Table) Add(h uint64, val int) {
	t.reserve(1, 1)
	t.add(tagOf(h), val)
}

// Lookup appends to dst the values filed under h, and under any hash
// sharing its tag, in insertion order, and returns the extended slice.
func (t *Table) Lookup(dst []int, h uint64) []int {
	for e := t.chain(h); e != 0; {
		var val int
		val, e = t.at(e)
		dst = append(dst, val)
	}
	return dst
}
