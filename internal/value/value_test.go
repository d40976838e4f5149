package value

import (
	"math/rand"
	"sort"
	"testing"
)

func TestPathOfAndString(t *testing.T) {
	p := PathOf("a", "b", "a")
	if got := p.String(); got != "a.b.a" {
		t.Fatalf("String = %q, want a.b.a", got)
	}
	if Epsilon.String() != "eps" {
		t.Fatalf("empty path renders %q", Epsilon.String())
	}
}

func TestPackedString(t *testing.T) {
	// c·<a·b·a> from the paper's §2.1 example.
	p := Path{Intern("c"), Pack(PathOf("a", "b", "a"))}
	if got := p.String(); got != "c.<a.b.a>" {
		t.Fatalf("String = %q", got)
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		p, q Path
		want bool
	}{
		{PathOf("a", "b"), PathOf("a", "b"), true},
		{PathOf("a", "b"), PathOf("a"), false},
		{PathOf("a"), Path{Pack(PathOf("a"))}, false},
		{Path{Pack(PathOf("a"))}, Path{Pack(PathOf("a"))}, true},
		{Epsilon, Path{}, true},
		{Path{Pack(Epsilon)}, Path{Pack(Epsilon)}, true},
		{Path{Pack(Epsilon)}, Epsilon, false},
	}
	for i, c := range cases {
		if got := c.p.Equal(c.q); got != c.want {
			t.Errorf("case %d: Equal(%v,%v) = %v, want %v", i, c.p, c.q, got, c.want)
		}
	}
}

func randomPath(r *rand.Rand, depth int) Path {
	n := r.Intn(4)
	p := make(Path, 0, n)
	alphabet := []string{"a", "b", "c", ".", "<", ">", "\\", ""}
	for i := 0; i < n; i++ {
		if depth > 0 && r.Intn(4) == 0 {
			p = append(p, Pack(randomPath(r, depth-1)))
		} else {
			p = append(p, Intern(alphabet[r.Intn(len(alphabet))]))
		}
	}
	return p
}

func TestCompareTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var paths []Path
	for i := 0; i < 200; i++ {
		paths = append(paths, randomPath(r, 2))
	}
	// Reflexive-antisymmetric-ish checks.
	for i := 0; i < 300; i++ {
		p, q := paths[r.Intn(len(paths))], paths[r.Intn(len(paths))]
		cpq, cqp := p.Compare(q), q.Compare(p)
		if cpq != -cqp {
			t.Fatalf("Compare not antisymmetric: %v vs %v -> %d, %d", p, q, cpq, cqp)
		}
		if (cpq == 0) != p.Equal(q) {
			t.Fatalf("Compare==0 iff Equal violated: %v vs %v", p, q)
		}
	}
	// Transitivity via sort: sorting must not panic and must be stable
	// under re-sorting.
	sort.Slice(paths, func(i, j int) bool { return paths[i].Compare(paths[j]) < 0 })
	for i := 1; i < len(paths); i++ {
		if paths[i-1].Compare(paths[i]) > 0 {
			t.Fatalf("sorted order violated at %d", i)
		}
	}
}

func TestIsFlat(t *testing.T) {
	if !PathOf("a", "b").IsFlat() {
		t.Error("flat path reported as not flat")
	}
	if (Path{Intern("a"), Pack(PathOf("b"))}).IsFlat() {
		t.Error("packed path reported flat")
	}
	if !Epsilon.IsFlat() {
		t.Error("epsilon must be flat")
	}
}

func TestConcat(t *testing.T) {
	p := Concat(PathOf("a"), Epsilon, PathOf("b", "c"))
	if !p.Equal(PathOf("a", "b", "c")) {
		t.Fatalf("Concat = %v", p)
	}
	// Concat must not alias inputs.
	q := PathOf("x")
	c := Concat(q)
	c[0] = Intern("y")
	if q[0] != Intern("x") {
		t.Fatal("Concat aliased its input")
	}
}

func TestRepeat(t *testing.T) {
	if !Repeat("a", 3).Equal(PathOf("a", "a", "a")) {
		t.Fatal("Repeat broken")
	}
	if !Repeat("a", 0).Equal(Epsilon) {
		t.Fatal("Repeat(0) should be epsilon")
	}
}

func TestSingletonAndClone(t *testing.T) {
	p := Path{Intern("v")}
	c := p.Clone()
	c[0] = Intern("w")
	if p[0] != Intern("v") {
		t.Fatal("Clone aliases")
	}
}
