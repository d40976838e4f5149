package instance

import (
	"encoding/binary"
	"fmt"

	"seqlog/internal/value"
)

// This file holds the binary snapshot codec: the durability layer
// (internal/wal) serializes instances into WAL records (assert/retract
// batches) and checkpoint files with AppendBinary and reads them back
// with DecodeInstance. Tuples ride on the value codec
// (value.AppendPath/ConsumePath), so atom texts — never pointers at
// this process's interning records — cross the wire and decoding
// re-interns into whatever symbol table the recovering process has.
//
// Encoding (integers are uvarints):
//
//	instance := nrels relation*
//	relation := len(name) name arity ntuples tuple*
//	tuple    := path^arity
//
// Relations are written in sorted name order and only LIVE tuples are
// written: encoding compacts tombstones away by construction, which is
// exactly what a checkpoint wants (dead positions are a maintenance
// artifact, not state). Decoding therefore yields dense, unfrozen
// relations; equality with the source is set equality (Instance.Equal,
// Diff), not position equality.

// AppendBinary appends the binary encoding of the instance to b and
// returns the extended slice. The instance is only read — frozen,
// snapshot-shared relations encode fine — and empty relations are
// encoded too (an empty relation still fixes a name and an arity).
func (i *Instance) AppendBinary(b []byte) []byte {
	names := i.Names()
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		r := i.rels[name]
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
		b = binary.AppendUvarint(b, uint64(r.Arity))
		b = binary.AppendUvarint(b, uint64(r.Len()))
		for pos := 0; pos < r.Size(); pos++ {
			if !r.Live(pos) {
				continue
			}
			for _, p := range r.TupleAt(pos) {
				b = value.AppendPath(b, p)
			}
		}
	}
	return b
}

// DecodeInstance decodes one instance from the front of b, returning
// it and the remaining bytes. Every atom is re-interned and every
// packed value re-canonicalized (see the value codec), so the result
// is set-equal to the encoded instance in any process. Corrupt input
// returns an error and no instance.
func DecodeInstance(b []byte) (*Instance, []byte, error) {
	nrels, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, b, fmt.Errorf("instance: truncated relation count")
	}
	b = b[w:]
	out := New()
	for ri := uint64(0); ri < nrels; ri++ {
		nameLen, w := binary.Uvarint(b)
		if w <= 0 || nameLen > uint64(len(b[w:])) {
			return nil, b, fmt.Errorf("instance: truncated relation name (relation %d of %d)", ri+1, nrels)
		}
		b = b[w:]
		name := string(b[:nameLen])
		b = b[nameLen:]
		arity, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, b, fmt.Errorf("instance: truncated arity of %q", name)
		}
		b = b[w:]
		ntuples, w := binary.Uvarint(b)
		if w <= 0 {
			return nil, b, fmt.Errorf("instance: truncated tuple count of %q", name)
		}
		b = b[w:]
		if out.Relation(name) != nil {
			return nil, b, fmt.Errorf("instance: duplicate relation %q", name)
		}
		// Cheap plausibility bounds before any allocation or loop: every
		// path costs at least one byte, so a tuple costs at least arity
		// bytes, and set semantics admit at most one nullary tuple. A
		// corrupt count fails here instead of spinning or allocating wildly.
		if arity == 0 && ntuples > 1 {
			return nil, b, fmt.Errorf("instance: %d tuples in nullary relation %q", ntuples, name)
		}
		if arity > 0 && ntuples > uint64(len(b))/arity {
			return nil, b, fmt.Errorf("instance: %q claims %d arity-%d tuples in %d remaining bytes", name, ntuples, arity, len(b))
		}
		r := out.Ensure(name, int(arity))
		for ti := uint64(0); ti < ntuples; ti++ {
			t := make(Tuple, arity)
			for c := range t {
				p, rest, err := value.ConsumePath(b)
				if err != nil {
					return nil, rest, fmt.Errorf("instance: %s tuple %d of %d: %w", name, ti+1, ntuples, err)
				}
				t[c] = p
				b = rest
			}
			r.Add(t)
		}
	}
	return out, b, nil
}
