// Package value defines the data model of sequence databases from
// Section 2.1 of "Expressiveness within Sequence Datalog" (PODS 2021):
// atomic values, packed values, and paths (finite sequences of values).
//
// Values are immutable and interned: each atom text and each packed
// value is one record of a global weak table, so equality is pointer
// comparison and the runtime reclaims a record no value references, and
// every value carries a precomputed structural hash (see intern.go). No
// function in this module mutates a Path it did not create, and callers
// must not mutate paths after handing them to the engine.
package value

import (
	"strings"
)

// Value is an element of a path: either an Atom or a Packed value.
//
// The data model (paper §2.1) is the smallest set such that every atomic
// value is a value, every finite sequence of values is a path, and <p> is
// a (packed) value for every path p.
type Value interface {
	// Kind reports whether the value is atomic or packed.
	Kind() Kind
	// String renders the value in the paper's notation (packing as <...>).
	String() string
}

// Kind discriminates the two sorts of values.
type Kind int

const (
	// KindAtom marks an atomic value from the universe dom.
	KindAtom Kind = iota
	// KindPacked marks a packed value <p>.
	KindPacked
)

// Atom is an atomic data element from the countably infinite universe
// dom, represented as a pointer at its record in the symbol table:
// equal texts intern to one record, so == on Atoms is text equality,
// and an Atom goes into a Value without boxing. The zero Atom is the
// empty atom ”. Construct Atoms with Intern (or PathOf).
type Atom struct{ e *symEntry }

func (a Atom) entry() *symEntry {
	if a.e == nil {
		return &emptyAtom
	}
	return a.e
}

// Kind implements Value.
func (Atom) Kind() Kind { return KindAtom }

// Text returns the atom's text.
func (a Atom) Text() string { return a.entry().text }

// Hash returns the atom's precomputed structural hash (computed once at
// interning time; a field read afterwards).
func (a Atom) Hash() uint64 { return a.entry().hash }

// String implements Value: the text the atom was given at interning
// time, quoted unless it lexes as a bare identifier.
func (a Atom) String() string { return a.entry().shown }

// Packed is a packed value <p>: a path temporarily treated as atomic
// (the P feature of the paper). Packed values are hash-consed by Pack:
// structurally equal packed values share one canonical node, so for
// Pack-constructed values == is structural equality and hashing is a
// field read. The zero Packed behaves as <eps> but holds no node, so
// it is == only to itself; compare with Equal (which normalizes it),
// or construct through Pack everywhere.
type Packed struct {
	n *packedNode
}

// epsNode backs the zero Packed, so value.Packed{} behaves as <eps>.
// Initialized in an init func to break the Pack→Hash→node cycle the
// compiler would otherwise see in a package-level initializer.
var epsNode *packedNode

func init() { epsNode = Pack(Epsilon).n }

func (p Packed) node() *packedNode {
	if p.n == nil {
		return epsNode
	}
	return p.n
}

// Kind implements Value.
func (Packed) Kind() Kind { return KindPacked }

// Unpack returns the packed path. The path is shared with the canonical
// node and must not be mutated.
func (p Packed) Unpack() Path { return p.node().path }

// Hash returns the packed value's precomputed structural hash.
func (p Packed) Hash() uint64 { return p.node().hash }

// String implements Value.
func (p Packed) String() string { return Path{p}.String() }

// Path is a finite sequence of values. The empty path is the paper's ε.
type Path []Value

// Epsilon is the empty path ε.
var Epsilon = Path{}

// PathOf builds a flat path from atom texts.
func PathOf(atoms ...string) Path {
	p := make(Path, len(atoms))
	for i, a := range atoms {
		p[i] = Intern(a)
	}
	return p
}

// Concat concatenates paths into a fresh path.
func Concat(paths ...Path) Path {
	n := 0
	for _, p := range paths {
		n += len(p)
	}
	out := make(Path, 0, n)
	for _, p := range paths {
		out = append(out, p...)
	}
	return out
}

// String renders the path in the paper's dotted notation; eps for ε.
func (p Path) String() string {
	var buf [64]byte // most paths print shorter: one allocation, the result
	return string(p.AppendText(buf[:0]))
}

// AppendText appends the path as String prints it and the parser reads
// it back — values joined by dots, packing as <...>, eps for ε — and
// returns the extended buffer. It is the one renderer of values: every
// String of this package and instance's fact printer go through it, and
// it allocates only when dst must grow.
func (p Path) AppendText(dst []byte) []byte {
	if len(p) == 0 {
		return append(dst, "eps"...)
	}
	for i, v := range p {
		if i > 0 {
			dst = append(dst, '.')
		}
		switch x := v.(type) {
		case Atom:
			dst = append(dst, x.String()...)
		case Packed:
			dst = append(x.Unpack().AppendText(append(dst, '<')), '>')
		}
	}
	return dst
}

// renderAtom quotes an atom that would not lex as a bare identifier (or
// lexes as the keyword eps or not), escaping \ and '; a bare one is
// returned as is, sharing its bytes. Interning calls it once per symbol.
func renderAtom(s string) string {
	plain := s != "" && s != "eps" && s != "not"
	for _, r := range s {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_') {
			plain = false
			break
		}
	}
	if plain {
		return s
	}
	return "'" + strings.ReplaceAll(strings.ReplaceAll(s, `\`, `\\`), "'", `\'`) + "'"
}

// HashSeed is the FNV-1a offset basis, the canonical seed for Hash.
const HashSeed uint64 = 14695981039346656037

// hashPrime is the FNV-1a 64-bit prime.
const hashPrime uint64 = 1099511628211

// HashByte folds one byte into a running FNV-1a hash. It is exported so
// that containers of paths (tuples, column projections) can interleave
// their own structural separators with path hashes.
func HashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * hashPrime }

// HashWord folds a full 64-bit word (e.g. a value's cached structural
// hash) into a running hash, one multiply instead of one per byte.
func HashWord(h, w uint64) uint64 { return (h ^ w) * hashPrime }

// Hash folds the path into a running hash seeded with h (HashSeed for a
// fresh hash). Each element contributes its cached structural hash —
// atoms from their symbol-table record, packed values from their
// hash-consed node — so hashing never re-walks value bytes. Equal paths
// always hash equally, and the per-kind tags keep e.g. the atom path a.b
// distinct from the packed value <a.b>. Collisions between distinct
// paths are possible; callers must confirm with Equal.
func (p Path) Hash(h uint64) uint64 {
	for _, v := range p {
		switch x := v.(type) {
		case Atom:
			h = HashWord(h, x.Hash())
		case Packed:
			h = HashWord(h, x.Hash())
		}
	}
	return h
}

// Equal reports whether two values are the same value. Interning makes
// this O(1): record pointer comparison for atoms and for packed values.
func Equal(v, w Value) bool {
	switch x := v.(type) {
	case Atom:
		y, ok := w.(Atom)
		return ok && x == y
	case Packed:
		y, ok := w.(Packed)
		return ok && x.node() == y.node()
	}
	return false
}

// Equal reports whether two paths are the same sequence of values.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if !Equal(p[i], q[i]) {
			return false
		}
	}
	return true
}

// Compare totally orders values: atoms before packed values; atoms by
// text order; packed values by their paths. Equal values short-circuit
// on interned identity before any text is compared.
func Compare(v, w Value) int {
	switch x := v.(type) {
	case Atom:
		if y, ok := w.(Atom); ok {
			if x == y {
				return 0
			}
			return strings.Compare(x.Text(), y.Text())
		}
		return -1
	case Packed:
		if y, ok := w.(Packed); ok {
			if x.node() == y.node() {
				return 0
			}
			return x.Unpack().Compare(y.Unpack())
		}
		return 1
	}
	return 0
}

// Compare totally orders paths element-wise with shorter prefixes first.
func (p Path) Compare(q Path) int {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		if c := Compare(p[i], q[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(p) < len(q):
		return -1
	case len(p) > len(q):
		return 1
	default:
		return 0
	}
}

// IsFlat reports whether the path contains no packed values at any depth.
// Flat instances (paper §3.1) contain only flat paths.
func (p Path) IsFlat() bool {
	for _, v := range p {
		if v.Kind() == KindPacked {
			return false
		}
	}
	return true
}

// MaxPackingDepth bounds the packing depth of paths the parser reads
// and ConsumePath decodes: both recurse once per level, and a stack
// overflow is fatal, not a panic. The paper nests a few levels; a few
// million overflow.
const MaxPackingDepth = 1 << 16

// Clone returns a copy of the path sharing its (immutable) values.
func (p Path) Clone() Path {
	out := make(Path, len(p))
	copy(out, p)
	return out
}

// Repeat returns the path consisting of n copies of atom a (the a^n
// strings used throughout Section 5).
func Repeat(a string, n int) Path {
	at := Intern(a)
	p := make(Path, n)
	for i := range p {
		p[i] = at
	}
	return p
}
