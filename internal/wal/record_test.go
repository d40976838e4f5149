package wal

import "testing"

// FuzzDecodeRecord feeds arbitrary payloads to the record decoder, the
// step of recovery that runs after a frame's checksum matched: it never
// panics, and a record it accepts encodes and decodes again to an equal
// record. The seed corpus under testdata/fuzz holds load, assert and
// retract records of each paper query and a generated EDB for it, with
// truncations and bit flips of them.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeRecord(b)
		if err != nil {
			return
		}
		enc, err := appendRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded %s record does not encode: %v", rec.Op, err)
		}
		again, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decoding a %s record: %v", rec.Op, err)
		}
		if again.Op != rec.Op || again.Program != rec.Program || (again.Batch == nil) != (rec.Batch == nil) ||
			rec.Batch != nil && !again.Batch.Equal(rec.Batch) {
			t.Fatalf("%s record re-decoded differently", rec.Op)
		}
	})
}

// FuzzDecodeCheckpoint feeds arbitrary bytes to the checkpoint decoder,
// which recovery runs on every checkpoint file it finds: it never
// panics, and a checkpoint it accepts encodes and decodes again to the
// same program text and an Equal EDB. The seed corpus under
// testdata/fuzz holds a checkpoint of each paper query with the
// generated EDB of FuzzDecodeInstance's corpus, with truncations and bit
// flips of it.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		program, edb, err := decodeCheckpoint(b)
		if err != nil {
			return
		}
		again, edbAgain, err := decodeCheckpoint(encodeCheckpoint(program, edb))
		if err != nil || again != program || !edbAgain.Equal(edb) {
			t.Fatalf("re-decoded checkpoint differs (%v): program equal %v", err, again == program)
		}
	})
}
