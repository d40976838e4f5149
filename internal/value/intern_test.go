package value

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"
	"weak"
)

// TestInternCanonical checks the core interning invariant: interning
// the same text twice yields == atoms, and distinct texts distinct ones.
func TestInternCanonical(t *testing.T) {
	texts := []string{"", "a", "b", "ab", "a b", "a.b", "<a>", "\\", "eps", "'q'"}
	for _, s := range texts {
		if x, y := Intern(s), Intern(s); x != y {
			t.Fatalf("Intern(%q) not canonical", s)
		}
		if x := Intern(s); x.Text() != s {
			t.Fatalf("Intern(%q).Text() = %q", s, x.Text())
		}
	}
	for i, s := range texts {
		for j, u := range texts {
			if (i == j) != (Intern(s) == Intern(u)) {
				t.Fatalf("atom equality disagrees with text equality: %q vs %q", s, u)
			}
		}
	}
}

// TestInternQuick random-tests atom equality against text equality.
func TestInternQuick(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		a := fmt.Sprintf("t%d", r.Intn(200))
		b := fmt.Sprintf("t%d", r.Intn(200))
		if (a == b) != (Intern(a) == Intern(b)) {
			t.Fatalf("intern equality mismatch for %q vs %q", a, b)
		}
	}
}

// TestDropKeepsLiveRecords pins the cleanup's contract: it removes the
// dead pointers of its bucket and keeps the live ones, such as a record
// interned again for a value whose old record was reclaimed.
func TestDropKeepsLiveRecords(t *testing.T) {
	tb := &table{m: map[uint64][]weak.Pointer[rec]{}}
	dead := weak.Make(&rec{text: "x"})
	for i := 0; dead.Value() != nil; i++ {
		if i == 10 {
			t.Fatal("an unreferenced record survived ten collections")
		}
		runtime.GC()
	}
	live := &rec{text: "x"}
	tb.m[7], tb.m[8], tb.n = []weak.Pointer[rec]{dead, weak.Make(live)}, []weak.Pointer[rec]{dead}, 3
	tb.drop(7)
	if ws := tb.m[7]; len(ws) != 1 || ws[0].Value() != live || tb.n != 2 {
		t.Fatalf("after the cleanup: bucket %v, %d pointers; want the live record alone, 2 pointers", ws, tb.n)
	}
	tb.drop(8)
	if _, ok := tb.m[8]; ok || tb.n != 1 {
		t.Fatalf("a bucket of dead pointers stays (%d pointers)", tb.n)
	}
	runtime.KeepAlive(live)
}

// TestInternReclaims checks that the tables hold their records weakly:
// once no value references a fresh atom or packed value, a collection
// takes it out of the table, and a value still held keeps its record.
func TestInternReclaims(t *testing.T) {
	packed := func() int {
		packs.mu.RLock()
		defer packs.mu.RUnlock()
		return packs.n
	}
	n0, p0 := Symbols(), packed()
	kept := Intern("reclaim-kept")
	fresh := make([]Value, 0, 2000)
	for i := range 1000 {
		a := Intern(fmt.Sprintf("reclaim-%d", i))
		fresh = append(fresh, a, Pack(Path{kept, a}))
	}
	if Symbols() < 1001 || packed() < 1000 {
		t.Fatalf("%d atoms and %d packed values in the tables with 1001 and 1000 held", Symbols(), packed())
	}
	fresh = nil
	if !settle(func() bool { return Symbols() <= n0+1 && packed() <= p0 }) {
		t.Fatalf("%d atoms and %d packed values after a collection, want at most %d and %d", Symbols(), packed(), n0+1, p0)
	}
	if Intern("reclaim-kept") != kept || kept.Text() != "reclaim-kept" {
		t.Fatal("a held atom lost its record")
	}
}

// settle collects garbage until done holds, waiting for the cleanups
// the collections queue; it reports whether done held within 5 s.
func settle(done func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		runtime.GC()
		if done() {
			return true
		}
	}
	return false
}

// TestPackHashConsed checks that structurally equal packed values are
// pointer-shared (== compares their records), carry equal cached
// hashes, and that distinct paths get distinct records.
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
	if n1.Unpack()[0] != n2.Unpack()[0] {
		t.Fatal("inner packed values not shared")
	}
}

// TestPackCopiesScratch checks Pack's buffer-reuse contract: the caller
// may mutate its slice after Pack returns without corrupting the
// canonical record.
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

// TestZeroValues checks that the zero Value is the empty atom.
func TestZeroValues(t *testing.T) {
	var a Value
	if a != Intern("") || a.Text() != "" || a.Kind() != KindAtom || a.Unpack() != nil {
		t.Fatal("zero Value is not the empty atom")
	}
	if a.String() != "''" || a.Hash() != atomHashOf("") {
		t.Fatalf("zero Value renders %q", a.String())
	}
}

// TestValueIsOneWord pins the representation: a path element is one
// pointer, not an interface's two words.
func TestValueIsOneWord(t *testing.T) {
	if unsafe.Sizeof(Value{}) != unsafe.Sizeof(uintptr(0)) {
		t.Fatalf("a Value is %d bytes, want %d", unsafe.Sizeof(Value{}), unsafe.Sizeof(uintptr(0)))
	}
}

// TestInternConcurrent hammers the symbol table and the hash-consing
// table from many goroutines with overlapping working sets, while
// another goroutine collects garbage; run under -race (the CI race job
// does) it checks the tables' locking and their cleanups. Each round
// draws from one of four rotating sets of texts and drops what it
// interned, so later rounds intern texts whose records were reclaimed,
// or are awaiting their cleanup.
func TestInternConcurrent(t *testing.T) {
	const goroutines = 16
	const rounds = 24
	const perG = 200
	stop := make(chan struct{})
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	defer func() { close(stop); <-collected }()
	for round := range rounds {
		var wg sync.WaitGroup
		heldAtoms := make([][]Value, goroutines)
		heldPacks := make([][]Value, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*goroutines + g)))
				heldAtoms[g] = make([]Value, perG)
				heldPacks[g] = make([]Value, perG)
				for i := 0; i < perG; i++ {
					text := fmt.Sprintf("shared-%d-%d", round%4, r.Intn(97))
					a := Intern(text)
					if a.Text() != text {
						t.Errorf("goroutine %d: Intern(%q).Text() = %q", g, text, a.Text())
						return
					}
					_ = a.Hash()
					heldAtoms[g][i] = a
					inner := Path{a, Intern(fmt.Sprintf("p-%d-%d", round%4, r.Intn(13)))}
					heldPacks[g][i] = Pack(inner)
					if !heldPacks[g][i].Unpack().Equal(inner) {
						t.Errorf("goroutine %d: Pack lost its path", g)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		// Cross-goroutine canonicality: equal texts interned on different
		// goroutines, and held by both, must be one record, equal paths
		// one record.
		index := map[string]Value{}
		for g := range heldAtoms {
			for _, a := range heldAtoms[g] {
				if prev, ok := index[a.Text()]; ok && prev != a {
					t.Fatalf("round %d: text %q interned to two records", round, a.Text())
				}
				index[a.Text()] = a
			}
		}
		nodes := map[string]Value{}
		for g := range heldPacks {
			for _, p := range heldPacks[g] {
				k := Path{p}.String()
				if prev, ok := nodes[k]; ok && prev != p {
					t.Fatalf("round %d: packed value %s consed to two nodes", round, p)
				}
				nodes[k] = p
			}
		}
	}
}
