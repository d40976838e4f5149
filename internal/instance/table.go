package instance

import (
	"math/bits"
	"slices"
)

// Table is a hash multimap from 64-bit hashes to non-negative int32-range
// values (tuple-log positions, buffer indexes) that holds no pointer, so
// the collector never scans it and copying one is two flat copies. Each
// distinct key owns one slot of an open-addressed array; a slot is a
// 32-bit tag of the key's hash plus the head and tail of that key's
// chain, a run of (value, next) entries in insertion order, so a lookup
// returns values in the order they were added. Keys whose hashes share a
// tag share a chain: every caller verifies what a lookup returns (the
// index probes compare tuples, the round buffer compares facts). The
// zero Table is empty and ready to use. Values are never removed; a
// relation tombstones positions and Compact builds a fresh table.
type Table struct {
	slots   []slot  // len 0 or a power of two, at most maxLoad full
	entries []entry // every value once, chained per slot
	keys    int     // occupied slots
	upto    int     // as an index base: positions [0, upto) are covered
}

// slot is 12 bytes: head and tail are entry indexes plus one, and a
// zero head marks an empty slot.
type slot struct{ tag, head, tail uint32 }

// entry is one value; next is the chain's next entry index plus one,
// zero at its end.
type entry struct{ val, next uint32 }

// maxLoadNum/maxLoadDen is the largest share of occupied slots.
const maxLoadNum, maxLoadDen = 3, 4

func tagOf(h uint64) uint32 { return uint32(h>>32) ^ uint32(h) }

// find returns the index of tag's slot, or of the empty slot where it
// belongs. The home slot is a Fibonacci hash of the tag, so it depends
// on the tag alone and a rehash can place a slot without its key.
func (t *Table) find(tag uint32) int {
	mask := uint32(len(t.slots) - 1)
	i := tag * 0x9E3779B1 >> bits.LeadingZeros32(mask)
	for s := &t.slots[i]; s.head != 0 && s.tag != tag; s = &t.slots[i] {
		i = (i + 1) & mask
	}
	return int(i)
}

// chain returns the first entry (index plus one) filed under h's tag,
// zero when there is none.
func (t *Table) chain(h uint64) uint32 {
	if len(t.slots) == 0 {
		return 0
	}
	return t.slots[t.find(tagOf(h))].head
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
// never writes the old one, which a flatten shares with its base.
func (t *Table) rehash(keys int) {
	n := 8
	for n*maxLoadNum < keys*maxLoadDen {
		n *= 2
	}
	old := t.slots
	t.slots = make([]slot, n)
	for _, s := range old {
		if s.head != 0 {
			t.slots[t.find(s.tag)] = s
		}
	}
}

// add files val under tag at the end of its chain; the caller has
// reserved room.
func (t *Table) add(tag uint32, val int) {
	t.entries = append(t.entries, entry{val: uint32(val)})
	e := uint32(len(t.entries))
	s := &t.slots[t.find(tag)]
	if s.head == 0 {
		*s = slot{tag, e, e}
		t.keys++
		return
	}
	t.entries[s.tail-1].next = e
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
	for e := t.chain(h); e != 0; e = t.entries[e-1].next {
		dst = append(dst, int(t.entries[e-1].val))
	}
	return dst
}

// bytes is what the table's arrays occupy.
func (t *Table) bytes() int64 { return int64(cap(t.slots))*12 + int64(cap(t.entries))*8 }

// flatten builds a fresh immutable table covering [0, upto) from a base
// (nil for none) and an overlay whose values all follow the base's, so
// every chain stays in ascending order: the base's entries are copied
// as one block and the overlay's chains are appended key by key.
func flatten(base, over *Table, upto int) *Table {
	out := &Table{upto: upto}
	if base != nil {
		out.slots, out.keys = base.slots, base.keys
		out.entries = append(make([]entry, 0, len(base.entries)+len(over.entries)), base.entries...)
	}
	out.rehash(out.keys + over.keys)
	for _, s := range over.slots {
		for e := s.head; e != 0; e = over.entries[e-1].next {
			out.add(s.tag, int(over.entries[e-1].val))
		}
	}
	return out
}
