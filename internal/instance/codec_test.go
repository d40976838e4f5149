package instance

import (
	"bytes"
	"testing"

	"seqlog/internal/value"
)

func codecInstance() *Instance {
	inst := New()
	inst.AddPath("E", value.PathOf("a", "b"))
	inst.AddPath("E", value.PathOf("b", "c"))
	inst.Add("Pair", Tuple{value.PathOf("x"), value.PathOf("y", "z")})
	inst.Add("Pair", Tuple{value.Epsilon, value.Path{value.Pack(value.PathOf("p", "q"))}})
	inst.AddFact("Flag")
	inst.Ensure("Empty", 3)
	return inst
}

func roundTrip(t *testing.T, inst *Instance) *Instance {
	t.Helper()
	enc := inst.AppendBinary(nil)
	got, rest, err := DecodeInstance(enc)
	if err != nil {
		t.Fatalf("DecodeInstance: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("DecodeInstance left %d bytes", len(rest))
	}
	return got
}

func TestInstanceCodecRoundTrip(t *testing.T) {
	inst := codecInstance()
	got := roundTrip(t, inst)
	if d := Diff(got, inst); d != "" {
		t.Fatalf("round trip differs: %s", d)
	}
	// Empty relations survive with their arity: schemas are state too.
	if r := got.Relation("Empty"); r == nil || r.Arity != 3 || r.Len() != 0 {
		t.Fatalf("empty relation lost or mangled: %+v", got.Relation("Empty"))
	}
}

// TestInstanceCodecCompactsTombstones: dead positions are maintenance
// residue, not facts — the encoder must skip them, and the decoded
// relation is dense.
func TestInstanceCodecCompactsTombstones(t *testing.T) {
	inst := codecInstance()
	inst.Delete("E", Tuple{value.PathOf("a", "b")})
	if inst.Relation("E").Tombstones() != 1 {
		t.Fatal("setup: expected a tombstone")
	}
	got := roundTrip(t, inst)
	if d := Diff(got, inst); d != "" {
		t.Fatalf("round trip differs: %s", d)
	}
	r := got.Relation("E")
	if r.Tombstones() != 0 || r.Size() != r.Len() || r.Len() != 1 {
		t.Fatalf("decoded relation not dense: size=%d len=%d tombs=%d", r.Size(), r.Len(), r.Tombstones())
	}
}

// TestInstanceCodecFrozenShared: encoding is a pure read, so a frozen,
// snapshot-shared relation encodes without a write-barrier clone and
// the snapshot keeps serving.
func TestInstanceCodecFrozenShared(t *testing.T) {
	inst := codecInstance()
	snap := inst.Snapshot() // freezes every relation
	got := roundTrip(t, inst)
	if d := Diff(got, snap); d != "" {
		t.Fatalf("frozen round trip differs from snapshot: %s", d)
	}
	if !inst.Relation("E").Frozen() {
		t.Fatal("encoding must not thaw or clone the shared relation")
	}
	// The decoded instance is independent and writable.
	if got.Relation("E").Frozen() {
		t.Fatal("decoded relations must start unfrozen")
	}
	got.AddPath("E", value.PathOf("new", "edge"))
	if snap.Relation("E").Len() != 2 {
		t.Fatal("writing the decoded copy disturbed the snapshot")
	}
}

// TestInstanceCodecReinterns: the stream carries atom texts (visible in
// the bytes) and decode goes through value.Intern, so values are
// canonical — Contains probes from freshly parsed facts hit.
func TestInstanceCodecReinterns(t *testing.T) {
	inst := New()
	inst.AddPath("R", value.PathOf("codec_reintern_marker"))
	enc := inst.AppendBinary(nil)
	if !bytes.Contains(enc, []byte("codec_reintern_marker")) {
		t.Fatalf("encoding does not carry atom text: %q", enc)
	}
	got, _, err := DecodeInstance(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Has("R", Tuple{value.PathOf("codec_reintern_marker")}) {
		t.Fatal("decoded atom not canonical: membership probe missed")
	}
}

func TestInstanceCodecRejectsCorruption(t *testing.T) {
	enc := codecInstance().AppendBinary(nil)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeInstance(enc[:i]); err == nil {
			t.Fatalf("truncation at byte %d decoded silently", i)
		}
	}
}

// FuzzDecodeInstance feeds arbitrary bytes to the instance decoder,
// which reads WAL batches and checkpoints: it never panics, and an
// instance it accepts encodes and decodes again to an Equal instance.
// The seed corpus under testdata/fuzz holds a generated EDB for each
// paper query, with truncations and bit flips of it.
func FuzzDecodeInstance(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		inst, _, err := DecodeInstance(b)
		if err != nil {
			return
		}
		again, rest, err := DecodeInstance(inst.AppendBinary(nil))
		if err != nil || len(rest) != 0 || !again.Equal(inst) {
			t.Fatalf("re-decoded instance differs (%v, %d leftover): %s", err, len(rest), Diff(again, inst))
		}
	})
}
