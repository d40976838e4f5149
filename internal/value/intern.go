package value

import (
	"sync"
	"sync/atomic"
)

// This file holds the interning layer behind the data model: a global
// symbol table mapping atom texts to dense Sym IDs, and a hash-consing
// table canonicalizing packed values. Both tables are append-only and
// process-global, so equality of atoms is integer comparison, equality
// of packed values is pointer comparison, and every value carries a
// precomputed structural hash. The engine's hot paths (tuple hashing,
// index probes, unification memoization) never re-walk value bytes.
//
// Concurrency: the tables are read-mostly. Readers (Text and hash
// lookups) are lock-free against a published snapshot; writers
// (interning a new atom, consing a new packed node) serialize on a
// mutex and publish atomically. This matches the evaluator's
// fan-out→barrier→merge protocol, under which workers intern and pack
// concurrently while deriving into private buffers.

// Sym is a dense identifier of an interned atom text. Two atoms are
// equal iff their Syms are equal. Syms are assigned in interning order
// and are NOT ordered like their texts; ordering goes through Text.
type Sym uint32

// symEntry is the immutable per-symbol record: the atom text, the form
// it prints in (quoted when it would not lex bare; otherwise the same
// string, so a plain atom pays one string header) and its precomputed
// structural hash.
type symEntry struct {
	text  string
	shown string
	hash  uint64
}

// symTable is the global symbol table. entries holds the published
// snapshot: a prefix of an append-only sequence, republished after
// every append, so sym-indexed reads are lock-free.
type symTable struct {
	mu      sync.RWMutex
	ids     map[string]Sym
	entries atomic.Pointer[[]symEntry]
}

var symtab = func() *symTable {
	t := &symTable{ids: map[string]Sym{}}
	empty := []symEntry{}
	t.entries.Store(&empty)
	// Sym 0 is the empty atom, so the zero Atom renders and hashes as ''.
	t.intern("")
	return t
}()

// atomHashOf computes the structural FNV-1a hash of an atom from its
// text, once, at interning time. The 0x01 tag keeps atom hashes
// disjoint from packed-value hashes by construction.
func atomHashOf(text string) uint64 {
	h := HashByte(HashSeed, 0x01)
	for i := 0; i < len(text); i++ {
		h = HashByte(h, text[i])
	}
	return h
}

func (t *symTable) intern(text string) Atom {
	t.mu.RLock()
	id, ok := t.ids[text]
	t.mu.RUnlock()
	if ok {
		return Atom{sym: id}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[text]; ok {
		return Atom{sym: id}
	}
	entries := *t.entries.Load()
	id = Sym(len(entries))
	next := append(entries, symEntry{text: text, shown: renderAtom(text), hash: atomHashOf(text)})
	t.entries.Store(&next)
	t.ids[text] = id
	return Atom{sym: id}
}

// entry returns the immutable record for a sym, lock-free.
func (t *symTable) entry(s Sym) *symEntry { return &(*t.entries.Load())[s] }

// Intern returns the canonical Atom for a text, interning it on first
// use. Intern is safe for concurrent use; interning the same text
// always yields the same Sym for the lifetime of the process.
func Intern(text string) Atom { return symtab.intern(text) }

// Symbols returns the number of distinct atom texts interned so far
// (including the empty atom). Monotone; useful for tests and stats.
func Symbols() int { return len(*symtab.entries.Load()) }

// packedNode is the canonical shared representation of a packed value:
// hash-consed, so structurally equal packed values are one node. path
// and hash are immutable after construction.
type packedNode struct {
	path Path
	hash uint64
}

// packShards spreads the hash-consing table over independently locked
// shards so concurrent workers packing values rarely contend.
const packShards = 64

type packShard struct {
	mu sync.RWMutex
	m  map[uint64][]*packedNode
}

var packtab = func() *[packShards]packShard {
	var t [packShards]packShard
	for i := range t {
		t[i].m = map[uint64][]*packedNode{}
	}
	return &t
}()

// packedHashOf is the structural hash of the packed value <p>: the
// inner path hash bracketed by the 0x02/0x03 tags that keep <a.b>
// distinct from the flat path a.b (mirroring the Key encoding).
func packedHashOf(p Path) uint64 {
	return HashByte(p.Hash(HashByte(HashSeed, 0x02)), 0x03)
}

// Pack wraps a path into the canonical packed value <p>, hash-consing
// it: structurally equal packed values share one node carrying a
// precomputed hash, so their equality is pointer comparison. The path is
// copied when a new node is created, so callers may pass (and afterwards
// reuse) scratch buffers. Pack is safe for concurrent use.
func Pack(p Path) Packed {
	h := packedHashOf(p)
	sh := &packtab[h%packShards]
	sh.mu.RLock()
	for _, n := range sh.m[h] {
		if n.path.Equal(p) {
			sh.mu.RUnlock()
			return Packed{n: n}
		}
	}
	sh.mu.RUnlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, n := range sh.m[h] {
		if n.path.Equal(p) {
			return Packed{n: n}
		}
	}
	cp := make(Path, len(p))
	copy(cp, p)
	n := &packedNode{path: cp, hash: h}
	sh.m[h] = append(sh.m[h], n)
	return Packed{n: n}
}
