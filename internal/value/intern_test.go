package value

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestInternCanonical checks the core interning invariant: interning
// the same text twice yields the same Sym (and thus == Atoms), and
// distinct texts yield distinct Syms.
func TestInternCanonical(t *testing.T) {
	texts := []string{"", "a", "b", "ab", "a b", "a.b", "<a>", "\\", "eps", "'q'"}
	for _, s := range texts {
		x, y := Intern(s), Intern(s)
		if x != y || x.Sym() != y.Sym() {
			t.Fatalf("Intern(%q) not canonical: %v vs %v", s, x.Sym(), y.Sym())
		}
		if x.Text() != s {
			t.Fatalf("Intern(%q).Text() = %q", s, x.Text())
		}
	}
	for i, s := range texts {
		for j, u := range texts {
			if (i == j) != (Intern(s) == Intern(u)) {
				t.Fatalf("Sym equality disagrees with text equality: %q vs %q", s, u)
			}
		}
	}
}

// TestInternQuick random-tests Sym equality against text equality.
func TestInternQuick(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a := fmt.Sprintf("t%d", r.Intn(200))
		b := fmt.Sprintf("t%d", r.Intn(200))
		if (a == b) != (Intern(a) == Intern(b)) {
			t.Fatalf("intern equality mismatch for %q vs %q", a, b)
		}
		if (a == b) != (Intern(a).Sym() == Intern(b).Sym()) {
			t.Fatalf("sym mismatch for %q vs %q", a, b)
		}
	}
}

// TestPackHashConsed checks that structurally equal packed values are
// pointer-shared (== on Packed, which compares canonical nodes), carry
// equal cached hashes, and that distinct paths get distinct nodes.
func TestPackHashConsed(t *testing.T) {
	p := Pack(PathOf("a", "b"))
	q := Pack(PathOf("a", "b"))
	if p != q {
		t.Fatal("hash-consing broken: equal packed values are distinct nodes")
	}
	if p.Hash() != q.Hash() {
		t.Fatal("equal packed values disagree on cached hash")
	}
	if Pack(PathOf("a")) == Pack(PathOf("b")) {
		t.Fatal("distinct packed values share a node")
	}
	// Nested packing shares at every level.
	n1 := Pack(Path{Pack(PathOf("x")), Intern("y")})
	n2 := Pack(Path{Pack(PathOf("x")), Intern("y")})
	if n1 != n2 {
		t.Fatal("nested packed values not shared")
	}
	if n1.Unpack()[0].(Packed) != n2.Unpack()[0].(Packed) {
		t.Fatal("inner packed values not shared")
	}
}

// TestPackCopiesScratch checks Pack's buffer-reuse contract: the caller
// may mutate its slice after Pack returns without corrupting the
// canonical node.
func TestPackCopiesScratch(t *testing.T) {
	buf := Path{Intern("a"), Intern("b")}
	p := Pack(buf)
	buf[0] = Intern("z")
	if !p.Unpack().Equal(PathOf("a", "b")) {
		t.Fatalf("Pack aliased a caller buffer: %v", p.Unpack())
	}
}

// TestHashEqualAgree checks that the cached-hash representation keeps
// the fundamental Hash/Equal/String contract: Equal paths hash and
// print identically, and String stays injective on random paths.
func TestHashEqualAgree(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	byText := map[string]Path{}
	for i := 0; i < 20000; i++ {
		p, q := randomPath(r, 2), randomPath(r, 2)
		if p.Equal(q) {
			if p.Hash(HashSeed) != q.Hash(HashSeed) {
				t.Fatalf("equal paths hash differently: %v vs %v", p, q)
			}
			if p.String() != q.String() {
				t.Fatalf("equal paths print differently: %v vs %v", p, q)
			}
		}
		k := p.String()
		if prev, dup := byText[k]; dup && !prev.Equal(p) {
			t.Fatalf("String not injective: %v vs %v", prev, p)
		}
		byText[k] = p
	}
}

// TestZeroValues checks the zero Atom and zero Packed behave as the
// empty atom and <eps>.
func TestZeroValues(t *testing.T) {
	var a Atom
	if a != Intern("") || a.Text() != "" {
		t.Fatal("zero Atom is not the empty atom")
	}
	var p Packed
	if !p.Unpack().Equal(Epsilon) || !Equal(p, Pack(Epsilon)) {
		t.Fatal("zero Packed is not <eps>")
	}
	if p.String() != "<eps>" {
		t.Fatalf("zero Packed renders %q", p.String())
	}
	// Packing a path that contains the zero Packed must behave as
	// packing <eps> in that position (regression: the depth computation
	// once dereferenced the nil node).
	if q := Pack(Path{p}); q != Pack(Path{Pack(Epsilon)}) {
		t.Fatal("Pack of a path holding the zero Packed is not canonical")
	}
}

// TestInternConcurrent hammers the symbol table and the hash-consing
// table from many goroutines with overlapping working sets; run under
// -race (the CI race job does) it checks the read-mostly
// synchronization of both tables.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 16
	const perG = 2000
	var wg sync.WaitGroup
	atoms := make([][]Atom, goroutines)
	packs := make([][]Packed, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			atoms[g] = make([]Atom, perG)
			packs[g] = make([]Packed, perG)
			for i := 0; i < perG; i++ {
				text := fmt.Sprintf("shared-%d", r.Intn(97))
				a := Intern(text)
				if a.Text() != text {
					t.Errorf("goroutine %d: Intern(%q).Text() = %q", g, text, a.Text())
					return
				}
				_ = a.Hash()
				atoms[g][i] = a
				inner := Path{a, Intern(fmt.Sprintf("p-%d", r.Intn(13)))}
				packs[g][i] = Pack(inner)
				if !packs[g][i].Unpack().Equal(inner) {
					t.Errorf("goroutine %d: Pack lost its path", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Cross-goroutine canonicality: equal texts interned on different
	// goroutines must be the same Sym, equal paths the same node.
	index := map[string]Atom{}
	for g := range atoms {
		for _, a := range atoms[g] {
			if prev, ok := index[a.Text()]; ok && prev != a {
				t.Fatalf("text %q interned to two syms", a.Text())
			}
			index[a.Text()] = a
		}
	}
	nodes := map[string]Packed{}
	for g := range packs {
		for _, p := range packs[g] {
			k := Path{p}.String()
			if prev, ok := nodes[k]; ok && prev != p {
				t.Fatalf("packed value %s consed to two nodes", p)
			}
			nodes[k] = p
		}
	}
}
