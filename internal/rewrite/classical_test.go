package rewrite

import (
	"math/rand"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/value"
)

// randomTwoBounded builds instances holding only length-1/2 paths.
func randomTwoBounded(seed int64, count int, rels []string, alphabet []string, maxPaths int) []*instance.Instance {
	r := rand.New(rand.NewSource(seed))
	var out []*instance.Instance
	for i := 0; i < count; i++ {
		inst := instance.New()
		for _, rel := range rels {
			n := r.Intn(maxPaths + 1)
			for j := 0; j < n; j++ {
				l := 1 + r.Intn(2)
				p := make(value.Path, l)
				for k := range p {
					p[k] = value.Intern(alphabet[r.Intn(len(alphabet))])
				}
				inst.AddPath(rel, p)
			}
			inst.Ensure(rel, 1)
		}
		out = append(out, inst)
	}
	return out
}

// assertClassicalEquivalent runs the original program directly and the
// classical translation through the Lemma 5.4 encoding, comparing the
// decoded outputs.
func assertClassicalEquivalent(t *testing.T, prog ast.Program, output string, instances []*instance.Instance) {
	t.Helper()
	classical, err := ToClassical(prog)
	if err != nil {
		t.Fatal(err)
	}
	// The classical program must not use path variables.
	for _, r := range classical.Rules() {
		for _, v := range r.Vars() {
			if !v.Atomic {
				t.Fatalf("path variable %s survives in classical rule %s", v, r)
			}
		}
	}
	direct, err := eval.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := eval.Compile(classical)
	if err != nil {
		t.Fatalf("classical compile: %v\n%s", err, classical)
	}
	for i, edb := range instances {
		if !TwoBounded(edb) {
			t.Fatalf("instance %d is not two-bounded", i)
		}
		out, err := direct.Eval(edb, eval.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		enc, err := EncodeTwoBounded(edb)
		if err != nil {
			t.Fatal(err)
		}
		encOut, err := encoded.Eval(enc, eval.Limits{})
		if err != nil {
			t.Fatalf("classical eval: %v\n%s", err, classical)
		}
		got := DecodeTwoBounded(encOut, output)
		want := instance.New()
		if r := out.Relation(output); r != nil {
			want.Put(output, r)
		}
		if !want.Equal(got) {
			t.Fatalf("instance %d: outputs differ\ndirect:\n%s\nvia classical:\n%s\nclassical program:\n%s",
				i, want, got, classical)
		}
	}
}

func TestToClassicalReachability(t *testing.T) {
	// Section 5.1.1's reachability program (atomic variables only).
	prog := mustParse(t, `
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).
S :- T(a.b).`)
	assertClassicalEquivalent(t, prog, "S",
		randomTwoBounded(3, 15, []string{"R"}, []string{"a", "b", "c", "d"}, 8))
}

func TestToClassicalBlackNodes(t *testing.T) {
	// The Theorem 5.5 program with stratified negation.
	prog := mustParse(t, `
W(@x) :- R(@x.@y), !B(@y).
---
S(@x) :- R(@x.@y), !W(@x).`)
	assertClassicalEquivalent(t, prog, "S",
		randomTwoBounded(5, 15, []string{"R", "B"}, []string{"a", "b", "c"}, 6))
}

func TestToClassicalPathVariables(t *testing.T) {
	// Path variables expand to at most two atomic variables.
	prog := mustParse(t, `
S($x) :- R($x), Q($x).
S(@a.@b) :- R(@a.@b), R(@b.@a).`)
	assertClassicalEquivalent(t, prog, "S",
		randomTwoBounded(7, 15, []string{"R", "Q"}, []string{"a", "b", "c"}, 6))
}

func TestToClassicalEquationsAndNonequalities(t *testing.T) {
	prog := mustParse(t, `
S($x) :- R($x), $x = @a.@b, @a != @b.
S($x) :- R($x), Q($y), $x != $y.`)
	assertClassicalEquivalent(t, prog, "S",
		randomTwoBounded(11, 15, []string{"R", "Q"}, []string{"a", "b"}, 5))
}

func TestToClassicalRenaming(t *testing.T) {
	prog := mustParse(t, `S(@x) :- R(@x.@y).`)
	classical, err := ToClassical(prog)
	if err != nil {
		t.Fatal(err)
	}
	s := classical.String()
	if s != "S1(@x) :- R2(@x, @y).\n" {
		t.Fatalf("translation = %q", s)
	}
}

func TestToClassicalRejections(t *testing.T) {
	if _, err := ToClassical(mustParse(t, `S(<$x>) :- R($x).`)); err == nil {
		t.Fatal("packing must be rejected")
	}
	if _, err := ToClassical(mustParse(t, `S($x, $y) :- R($x.$y).`)); err == nil {
		t.Fatal("arity must be rejected")
	}
}

func TestEncodeDecodeTwoBounded(t *testing.T) {
	edb := parser.MustParseInstance(`R(a). R(a.b). A.`)
	enc, err := EncodeTwoBounded(edb)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Relation("R1").Len() != 1 || enc.Relation("R2").Len() != 1 {
		t.Fatalf("encoding wrong:\n%s", enc)
	}
	dec := DecodeTwoBounded(enc, "R", "A")
	if !dec.Equal(edb) {
		t.Fatalf("roundtrip differs:\n%s\nvs\n%s", edb, dec)
	}
	if _, err := EncodeTwoBounded(parser.MustParseInstance(`R(a.b.c).`)); err == nil {
		t.Fatal("length-3 path must be rejected")
	}
	if TwoBounded(parser.MustParseInstance(`R(a.b.c).`)) {
		t.Fatal("TwoBounded misdetects")
	}
}
