package value

import (
	"encoding/binary"
	"fmt"
)

// This file holds the binary codec for paths, the wire format of the
// durability layer (internal/wal): WAL records and snapshot
// checkpoints serialize tuples with AppendPath and read them back with
// ConsumePath. The encoding carries atom TEXTS, never record pointers —
// those mean nothing in the process that replays the log — so decoding
// re-interns every atom and re-canonicalizes every packed value,
// yielding values that are structurally equal to the originals under
// any symbol-table state.
//
// Encoding (all integers are uvarints):
//
//	path   := count value*
//	value  := 0x00 len byte*      -- atom, UTF-8 text
//	        | 0x01 path           -- packed value <p>
//
// The format is self-delimiting, so consumers can concatenate paths
// back to back (tuples, relations) without extra framing.

// Codec tags for the two value kinds.
const (
	codecAtom   = 0x00
	codecPacked = 0x01
)

// AppendPath appends the binary encoding of p to b and returns the
// extended slice.
func AppendPath(b []byte, p Path) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	for _, v := range p {
		if r := v.rec(); r.kind == KindAtom {
			b = append(b, codecAtom)
			b = binary.AppendUvarint(b, uint64(len(r.text)))
			b = append(b, r.text...)
		} else {
			b = append(b, codecPacked)
			b = AppendPath(b, r.path)
		}
	}
	return b
}

// ConsumePath decodes one path from the front of b, returning the path
// and the remaining bytes. Atoms are re-interned and packed values
// re-canonicalized, so the result is structurally equal to the encoded
// path regardless of the symbol-table state of the decoding process. A
// truncated or malformed encoding, or one nesting packed values deeper
// than MaxPackingDepth, returns an error; the durability layer treats
// that as a corrupt record.
func ConsumePath(b []byte) (Path, []byte, error) { return consumePath(b, 0) }

// consumePath is ConsumePath for a path nested inside depth packed
// values. An inner error is returned as is: wrapping it once per level
// would cost time quadratic in the depth.
func consumePath(b []byte, depth int) (Path, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, b, fmt.Errorf("value: truncated path length")
	}
	b = b[w:]
	if n > uint64(len(b)) {
		// Each value costs at least one tag byte; an element count larger
		// than the remaining bytes cannot be satisfied. Reject it here so
		// corrupt counts fail cleanly instead of allocating wildly.
		return nil, b, fmt.Errorf("value: path of %d values in %d remaining bytes", n, len(b))
	}
	p := make(Path, 0, n)
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return nil, b, fmt.Errorf("value: truncated path (value %d of %d)", i+1, n)
		}
		tag := b[0]
		b = b[1:]
		switch tag {
		case codecAtom:
			l, w := binary.Uvarint(b)
			if w <= 0 || l > uint64(len(b[w:])) {
				return nil, b, fmt.Errorf("value: truncated atom (value %d of %d)", i+1, n)
			}
			b = b[w:]
			p = append(p, Intern(string(b[:l])))
			b = b[l:]
		case codecPacked:
			if depth == MaxPackingDepth {
				return nil, b, fmt.Errorf("value: packed values nested deeper than %d", MaxPackingDepth)
			}
			inner, rest, err := consumePath(b, depth+1)
			if err != nil {
				return nil, rest, err
			}
			p = append(p, Pack(inner))
			b = rest
		default:
			return nil, b, fmt.Errorf("value: unknown value tag 0x%02x (value %d of %d)", tag, i+1, n)
		}
	}
	return p, b, nil
}
