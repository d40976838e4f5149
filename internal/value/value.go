// Package value defines the data model of sequence databases from
// Section 2.1 of "Expressiveness within Sequence Datalog" (PODS 2021):
// atomic values, packed values, and paths (finite sequences of values).
//
// A value is one word: a pointer at an immutable record holding its
// kind, its structural hash, and an atom's text and printed form or a
// packed value's path. Records are interned, each atom text and each
// packed value one record of a global weak table, so equality is ==,
// hashing a path reads one field per element, and the runtime reclaims
// a record no value references (see intern.go). No function in this
// module mutates a Path it did not create, and callers must not mutate
// paths after handing them to the engine.
package value

import (
	"cmp"
	"slices"
	"strings"
)

// Value is an element of a path: an atomic value from the universe dom,
// or a packed value <p>.
//
// The data model (paper §2.1) is the smallest set such that every atomic
// value is a value, every finite sequence of values is a path, and <p> is
// a (packed) value for every path p.
//
// A Value is a pointer at its interned record: == on Values is value
// equality, and a Value is a map key. The zero Value is the atom whose
// text is empty. Construct Values with Intern and Pack (or PathOf).
type Value struct{ r *rec }

// rec is a value's immutable record. An atom has its text, the form it
// prints in (quoted when it would not lex bare, else the same string,
// so a plain atom pays one string header) and no path; a packed value
// has its path and no text. hash is the structural hash.
type rec struct {
	text, shown string
	path        Path
	hash        uint64
	kind        Kind
}

// emptyAtom backs the zero Value, the empty atom, which is not in a table.
var emptyAtom = rec{shown: renderAtom(""), hash: atomHashOf("")}

func (v Value) rec() *rec {
	if v.r == nil {
		return &emptyAtom
	}
	return v.r
}

// Kind discriminates the two sorts of values.
type Kind uint8

const (
	// KindAtom marks an atomic value from the universe dom.
	KindAtom Kind = iota
	// KindPacked marks a packed value <p>.
	KindPacked
)

// Kind reports whether the value is atomic or packed.
func (v Value) Kind() Kind { return v.rec().kind }

// Text returns an atom's text; a packed value's is "".
func (v Value) Text() string { return v.rec().text }

// Unpack returns a packed value's path, shared with its record: it must
// not be mutated. An atom's is nil.
func (v Value) Unpack() Path { return v.rec().path }

// Hash returns the value's structural hash, computed once when its
// record was interned.
func (v Value) Hash() uint64 { return v.rec().hash }

// String renders the value in the paper's notation: an atom as it was
// rendered when interned, quoted unless it lexes as a bare identifier;
// a packed value as <...>.
func (v Value) String() string {
	if r := v.rec(); r.kind == KindAtom {
		return r.shown
	}
	return Path{v}.String()
}

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
		if r := v.rec(); r.kind == KindAtom {
			dst = append(dst, r.shown...)
		} else {
			dst = append(r.path.AppendText(append(dst, '<')), '>')
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
// fresh hash). Each element contributes the structural hash cached in
// its record, so hashing never re-walks value bytes. Equal paths
// always hash equally, and the per-kind tags keep e.g. the atom path a.b
// distinct from the packed value <a.b>. Collisions between distinct
// paths are possible; callers must confirm with Equal.
func (p Path) Hash(h uint64) uint64 {
	for _, v := range p {
		h = HashWord(h, v.rec().hash)
	}
	return h
}

// Equal reports whether two paths are the same sequence of values: one
// word comparison per element, since equal values share their record.
func (p Path) Equal(q Path) bool { return slices.Equal(p, q) }

// Compare totally orders values: atoms before packed values; atoms by
// text order; packed values by their paths. Equal values short-circuit
// on interned identity before any text is compared.
func Compare(v, w Value) int {
	if v == w {
		return 0
	}
	x, y := v.rec(), w.rec()
	switch {
	case x.kind != y.kind:
		return cmp.Compare(x.kind, y.kind)
	case x.kind == KindAtom:
		return strings.Compare(x.text, y.text)
	}
	return x.path.Compare(y.path)
}

// Compare totally orders paths element-wise with shorter prefixes first.
func (p Path) Compare(q Path) int {
	for i := range min(len(p), len(q)) {
		if p[i] != q[i] {
			return Compare(p[i], q[i])
		}
	}
	return cmp.Compare(len(p), len(q))
}

// IsFlat reports whether the path contains no packed values at any depth.
// Flat instances (paper §3.1) contain only flat paths.
func (p Path) IsFlat() bool {
	for _, v := range p {
		if v.rec().kind == KindPacked {
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
