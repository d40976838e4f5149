package value

import (
	"bytes"
	"encoding/hex"
	"testing"
)

func TestPathCodecRoundTrip(t *testing.T) {
	cases := []Path{
		Epsilon,
		PathOf("a"),
		PathOf("a", "b", "c"),
		PathOf("", "quoted atom", "a.b", "x'y", "\x00\xff"),
		{Pack(PathOf("a", "b"))},
		{Intern("a"), Pack(Path{Intern("b"), Pack(PathOf("c", "d"))}), Intern("e")},
		{Pack(Epsilon)},
	}
	for _, p := range cases {
		enc := AppendPath(nil, p)
		got, rest, err := ConsumePath(enc)
		if err != nil {
			t.Fatalf("ConsumePath(%s): %v", p, err)
		}
		if len(rest) != 0 {
			t.Fatalf("ConsumePath(%s): %d leftover bytes", p, len(rest))
		}
		if !got.Equal(p) {
			t.Fatalf("round trip of %s yielded %s", p, got)
		}
	}
}

// TestPathCodecGolden pins the encoding byte for byte: these bytes were
// written by an earlier build, and the WAL fixture of internal/wal
// (testdata/format) holds the same paths. A change to the in-memory
// representation of values must leave them as they are.
func TestPathCodecGolden(t *testing.T) {
	a := Intern
	for _, tc := range []struct {
		p    Path
		want string
	}{
		{Epsilon, "00"},
		{Path{Pack(Epsilon)}, "010100"},
		{Path{a("a"), a("a b"), a("")}, "0300016100036120620000"},
		{Path{a("eps"), Pack(Epsilon)}, "0200036570730100"},
		{Path{Pack(Path{a("a"), Pack(Path{a("it's"), Pack(Path{a("")})})}), a("x.y")},
			"0201020001610102000469742773010100000003782e79"},
		{Path{Pack(Path{Pack(Epsilon)}), a(""), Pack(Path{a("")})}, "0301010100000001010000"},
		{Path{a("not"), a("é")}, "0200036e6f740002c3a9"},
	} {
		if got := hex.EncodeToString(AppendPath(nil, tc.p)); got != tc.want {
			t.Errorf("AppendPath(%s) = %s, want %s", tc.p, got, tc.want)
		}
		want, _ := hex.DecodeString(tc.want)
		if got, rest, err := ConsumePath(want); err != nil || len(rest) != 0 || !got.Equal(tc.p) {
			t.Errorf("ConsumePath(%s) = %s (%v, %d leftover), want %s", tc.want, got, err, len(rest), tc.p)
		}
	}
}

func TestPathCodecSelfDelimiting(t *testing.T) {
	a, b := PathOf("x", "y"), Path{Pack(PathOf("z"))}
	enc := AppendPath(AppendPath(nil, a), b)
	gotA, rest, err := ConsumePath(enc)
	if err != nil {
		t.Fatal(err)
	}
	gotB, rest, err := ConsumePath(rest)
	if err != nil {
		t.Fatal(err)
	}
	if !gotA.Equal(a) || !gotB.Equal(b) || len(rest) != 0 {
		t.Fatalf("concatenated decode: %s / %s (%d leftover)", gotA, gotB, len(rest))
	}
}

// TestPathCodecCarriesTextsNotHandles pins the property recovery
// depends on: the wire format stores atom texts, so a decoding process
// whose symbol table holds different records still reconstructs equal
// values. A same-process test cannot truly reset the global table, so
// it checks the observable halves: the encoded bytes literally contain
// the text, and decoding goes through Intern (canonical atom equality
// even for atoms first seen by the decoder).
func TestPathCodecCarriesTextsNotHandles(t *testing.T) {
	p := PathOf("durability_codec_text_marker")
	enc := AppendPath(nil, p)
	if !bytes.Contains(enc, []byte("durability_codec_text_marker")) {
		t.Fatalf("encoding does not carry the atom text: %q", enc)
	}
	got, _, err := ConsumePath(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != p[0] {
		t.Fatal("decoded atom is not the canonical interned atom")
	}
}

func TestPathCodecRejectsCorruption(t *testing.T) {
	enc := AppendPath(nil, Path{Intern("abc"), Pack(PathOf("d"))})
	// Every strict prefix must fail: the encoding is exact, so any cut
	// lands mid-count, mid-tag or mid-content.
	for i := 0; i < len(enc); i++ {
		if _, _, err := ConsumePath(enc[:i]); err == nil {
			t.Fatalf("truncation at %d decoded silently", i)
		}
	}
	// A bad tag fails.
	bad := append([]byte{}, enc...)
	bad[1] = 0x7f
	if _, _, err := ConsumePath(bad); err == nil {
		t.Fatal("bad tag decoded silently")
	}
	// An absurd element count fails before allocating.
	if _, _, err := ConsumePath([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("absurd count decoded silently")
	}
}

// nested returns the path a packed depth times: <…<a>…>.
func nested(depth int) Path {
	p := PathOf("a")
	for i := 0; i < depth; i++ {
		p = Path{Pack(p)}
	}
	return p
}

// TestPathCodecBoundsNesting: 16 MiB of 01 01 pairs — one packed value
// inside another, eight million deep, well within a WAL payload — used
// to overflow the goroutine stack, a fatal error no caller can recover
// from; it is refused as corrupt. A path packed MaxPackingDepth deep
// round trips and one level deeper is refused.
func TestPathCodecBoundsNesting(t *testing.T) {
	if _, _, err := ConsumePath(bytes.Repeat([]byte{1, 1}, 8<<20)); err == nil {
		t.Fatal("16 MiB of nested packings decoded silently")
	}
	deepest := nested(MaxPackingDepth)
	got, rest, err := ConsumePath(AppendPath(nil, deepest))
	if err != nil || len(rest) != 0 || !got.Equal(deepest) {
		t.Fatalf("depth %d: %v (%d leftover)", MaxPackingDepth, err, len(rest))
	}
	if _, _, err := ConsumePath(AppendPath(nil, nested(MaxPackingDepth+1))); err == nil {
		t.Fatalf("depth %d decoded silently", MaxPackingDepth+1)
	}
}

// FuzzConsumePath feeds arbitrary bytes to the path decoder, which
// reads WAL records and checkpoints: it never panics, and a path it
// accepts encodes and decodes again to an equal path. The seed corpus
// under testdata/fuzz holds the longest path of a generated EDB for
// each paper query, with truncations and bit flips of it.
func FuzzConsumePath(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		p, _, err := ConsumePath(b)
		if err != nil {
			return
		}
		q, rest, err := ConsumePath(AppendPath(nil, p))
		if err != nil || len(rest) != 0 || !q.Equal(p) {
			t.Fatalf("%s re-decoded as %s (%v, %d leftover)", p, q, err, len(rest))
		}
	})
}
