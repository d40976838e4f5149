package value

import (
	"math/rand"
	"strings"
	"testing"
)

// There is one renderer, Path.AppendText, and the form an atom prints
// in is decided when it is interned. These tests pin what it prints —
// the awkward cases literally, generated paths against the rendering
// this package had before the text was cached (a []string per path, a
// Join, a rune scan per atom per call) — so a reply stays byte for byte
// what it was, except for atoms that did not read back: those holding a
// backslash, and `not`.

func TestRenderAwkwardCases(t *testing.T) {
	a := Intern
	for _, tc := range []struct {
		p    Path
		want string
	}{
		{Epsilon, `eps`},
		{nil, `eps`},
		{Path{a("")}, `''`},
		{Path{a("eps")}, `'eps'`},
		{Path{a("a")}, `a`},
		{Path{a("Z_9")}, `Z_9`},
		{Path{a("9")}, `9`},
		{Path{a("x.y")}, `'x.y'`},
		{Path{a("<")}, `'<'`},
		{Path{a(">")}, `'>'`},
		{Path{a("it's")}, `'it\'s'`},
		{Path{a("é")}, `'é'`},
		{Path{a("ε")}, `'ε'`},
		{Path{a("a b")}, `'a b'`},
		{Path{a("a"), a(""), a("eps")}, `a.''.'eps'`},
		{Path{Pack(Epsilon)}, `<eps>`},
		{Path{Pack(Path{a("")})}, `<''>`},
		{Path{Pack(Path{a("a"), a("b")}), a("c")}, `<a.b>.c`},
		{Path{a("x"), Pack(Path{Pack(Path{Pack(Path{a("it's")}), a("eps")}), Pack(Epsilon)}), a("é.")},
			`x.<<<'it\'s'>.'eps'>.<eps>>.'é.'`},
		// The lexer reads a quoted \x as x and a bare not as negation, so
		// the backslash is escaped and the keyword quoted like eps.
		{Path{a(`a\b`)}, `'a\\b'`},
		{Path{a(`\'`)}, `'\\\''`},
		{Path{a("not")}, `'not'`},
	} {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("String() = %s, want %s", got, tc.want)
		}
		if got := string(tc.p.AppendText([]byte("R("))); got != "R("+tc.want {
			t.Errorf("AppendText after %q = %s, want %s", "R(", got, "R("+tc.want)
		}
		if len(tc.p) == 1 {
			if got := tc.p[0].String(); got != tc.want {
				t.Errorf("Value.String() = %s, want %s", got, tc.want)
			}
		}
	}
}

// formerString is the renderer as it was before AppendText.
func formerString(p Path) string {
	if len(p) == 0 {
		return "eps"
	}
	parts := make([]string, len(p))
	for i, v := range p {
		switch v.Kind() {
		case KindAtom:
			s, bare := v.Text(), v.Text() != "" && v.Text() != "eps"
			for _, r := range s {
				bare = bare && (r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '_')
			}
			if !bare {
				s = "'" + strings.ReplaceAll(s, "'", "\\'") + "'"
			}
			parts[i] = s
		case KindPacked:
			parts[i] = "<" + formerString(v.Unpack()) + ">"
		}
	}
	return strings.Join(parts, ".")
}

func TestRenderMatchesFormerRenderer(t *testing.T) {
	atoms := []string{"a", "b1", "Z_9", "", "eps", "x.y", "<", ">", "it's", "é", "a b", "ε", "long_identifier_that_outgrows_a_small_buffer"}
	rng := rand.New(rand.NewSource(23))
	var gen func(depth int) Path
	gen = func(depth int) Path {
		p := make(Path, rng.Intn(5))
		for i := range p {
			if depth < 3 && rng.Intn(4) == 0 {
				p[i] = Pack(gen(depth + 1))
			} else {
				p[i] = Intern(atoms[rng.Intn(len(atoms))])
			}
		}
		return p
	}
	for trial := 0; trial < 5000; trial++ {
		p := gen(0)
		want := formerString(p)
		if got := p.String(); got != want {
			t.Fatalf("String() = %s, the former renderer printed %s", got, want)
		}
		if got := string(p.AppendText(nil)); got != want {
			t.Fatalf("AppendText(nil) = %s, String() = %s", got, want)
		}
	}
}

// TestAppendTextDoesNotAllocate: with room in dst, rendering allocates
// nothing — quoting was done when the atoms were interned.
func TestAppendTextDoesNotAllocate(t *testing.T) {
	p := Path{Intern("a"), Intern("it's"), Pack(Path{Intern("eps"), Pack(Epsilon)}), Intern("")}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = p.AppendText(buf[:0]) }); n != 0 {
		t.Fatalf("AppendText into a large enough buffer: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Intern("it's").String() }); n != 0 {
		t.Fatalf("Value.String of an atom: %v allocs/op, want 0", n)
	}
}
