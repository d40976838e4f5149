package rewrite

import (
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/parser"
	"seqlog/internal/value"
)

func TestStructureExample411(t *testing.T) {
	// e = @a.<<$x.$y>.$z>.<eps>, δ(e) = *<*<*>*>*<*>*, 7 components:
	// @a, eps, $x.$y, $z, eps, eps, eps.
	e := ast.Cat(
		ast.A("a"),
		ast.Packed(ast.Cat(ast.Packed(ast.Cat(ast.P("x"), ast.P("y"))), ast.P("z"))),
		ast.Packed(ast.Eps()),
	)
	d := StructureOf(e)
	if d.Key() != "*<*<*>*>*<*>*" {
		t.Fatalf("δ = %q", d.Key())
	}
	if d.Stars() != 7 {
		t.Fatalf("stars = %d, want 7", d.Stars())
	}
	comps := Components(e)
	want := []string{"@a", "eps", "$x.$y", "$z", "eps", "eps", "eps"}
	if len(comps) != len(want) {
		t.Fatalf("components = %v", comps)
	}
	for i, w := range want {
		if comps[i].String() != w {
			t.Fatalf("component %d = %s, want %s", i, comps[i], w)
		}
	}
	// Reconstruct inverts.
	back := d.Reconstruct(comps)
	if !back.Equal(e) {
		t.Fatalf("Reconstruct = %s, want %s", back, e)
	}
}

func TestStructureFlat(t *testing.T) {
	e := ast.Cat(ast.C("a"), ast.P("x"))
	d := StructureOf(e)
	if !d.IsFlat() || d.Key() != "*" || d.Stars() != 1 {
		t.Fatalf("flat δ = %q", d.Key())
	}
	comps := Components(e)
	if len(comps) != 1 || !comps[0].Equal(e) {
		t.Fatalf("flat components = %v", comps)
	}
}

func TestStructureEquality(t *testing.T) {
	a := StructureOf(ast.Packed(ast.P("x")))
	b := StructureOf(ast.Packed(ast.Cat(ast.C("q"), ast.C("r"))))
	if !a.Equal(b) {
		t.Fatal("structures should be equal (contents do not matter)")
	}
	c := StructureOf(ast.Packed(ast.Packed(ast.P("x"))))
	if a.Equal(c) {
		t.Fatal("different nesting must differ")
	}
}

func TestEliminatePackingExample414(t *testing.T) {
	// Example 2.2 rewritten without packing yields 28 rules
	// (Example 4.14): 1 extraction rule with a ternary T plus 27 copies
	// of the A-rule (3 nonequalities x 3 components each).
	prog := mustParse(t, `
T($u.<$s>.$v) :- R($u.$s.$v), S($s).
A :- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.`)
	got, err := EliminatePackingNonrecursive(prog, "A")
	if err != nil {
		t.Fatal(err)
	}
	if got.Features().Has(ast.FeatPacking) {
		t.Fatalf("packing still present:\n%s", got)
	}
	if n := len(got.Rules()); n != 28 {
		t.Fatalf("rule count = %d, want 28 (Example 4.14):\n%s", n, got)
	}
	// Behavioral equivalence on randomized instances.
	instances := randomFlatInstances(61, 10, []string{"R", "S"}, []string{"a", "b"}, 4, 4)
	instances = append(instances,
		parser.MustParseInstance(`R(a.b.a.b). S(a.b). S(b.a).`),
		parser.MustParseInstance(`R(a.b.a.b). S(a.b).`),
		parser.MustParseInstance(`R(a.a.a). S(a).`),
	)
	for i, edb := range instances {
		want, err1 := holdsOn(prog, edb)
		have, err2 := holdsOn(got, edb)
		if err1 != nil || err2 != nil {
			t.Fatalf("instance %d: %v %v", i, err1, err2)
		}
		if want != have {
			t.Fatalf("instance %d: A differs (orig %v, rewritten %v)\nEDB:\n%s", i, want, have, edb)
		}
	}
}

func TestEliminatePackingFlatHeadsKeepNames(t *testing.T) {
	// A program whose output is produced via a packed intermediate.
	prog := mustParse(t, `
T(<$x>.<$x>) :- R($x).
S($y) :- T(<$y>.<$y>).`)
	got, err := EliminatePackingNonrecursive(prog, "S")
	if err != nil {
		t.Fatal(err)
	}
	if got.Features().Has(ast.FeatPacking) {
		t.Fatalf("packing still present:\n%s", got)
	}
	instances := randomFlatInstances(67, 12, []string{"R"}, []string{"a", "b"}, 4, 4)
	assertEquivalent(t, prog, got, "S", instances...)
}

func TestEliminatePackingHalfPureEquations(t *testing.T) {
	// Equations force the Lemma 4.10 unification machinery: $z is
	// impure (bound via a packing equation).
	prog := mustParse(t, `
T($z) :- R($x), $z = <$x>.$x.
S($y) :- T(<$y>.$y).`)
	got, err := EliminatePackingNonrecursive(prog, "S")
	if err != nil {
		t.Fatal(err)
	}
	if got.Features().Has(ast.FeatPacking) {
		t.Fatalf("packing still present:\n%s", got)
	}
	instances := randomFlatInstances(71, 12, []string{"R"}, []string{"a", "b"}, 4, 4)
	assertEquivalent(t, prog, got, "S", instances...)
}

func TestEliminatePackingMixedStructures(t *testing.T) {
	// T holds values of two different packing structures; references
	// must dispatch per structure, and the flat one keeps the name.
	prog := mustParse(t, `
T(<$x>) :- R($x).
T($x.$x) :- R($x).
S($y) :- T(<$y>).
S2($y.$y) :- T($y.$y), R($y).`)
	got, err := EliminatePackingNonrecursive(prog, "S")
	if err != nil {
		t.Fatal(err)
	}
	instances := randomFlatInstances(73, 12, []string{"R"}, []string{"a", "b"}, 4, 3)
	assertEquivalent(t, prog, got, "S", instances...)
	assertEquivalent(t, prog, got, "S2", instances...)
}

func TestEliminatePackingNegatedReferences(t *testing.T) {
	// Negated reference to a packed relation: matching structure maps
	// to the component relation; non-matching structure is vacuous.
	prog := mustParse(t, `
T(<$x>) :- R($x).
---
S($y) :- R($y), !T(<$y.$y>).`)
	got, err := EliminatePackingNonrecursive(prog, "S")
	if err != nil {
		t.Fatal(err)
	}
	if got.Features().Has(ast.FeatPacking) {
		t.Fatalf("packing still present:\n%s", got)
	}
	instances := randomFlatInstances(79, 12, []string{"R"}, []string{"a", "b"}, 4, 3)
	assertEquivalent(t, prog, got, "S", instances...)
}

func TestEliminatePackingNegatedEquationsWithPacking(t *testing.T) {
	prog := mustParse(t, `
T(<$x>.<$y>) :- R($x), R($y).
S($x.$y) :- T(<$x>.<$y>), <$x> != <$y>.`)
	got, err := EliminatePackingNonrecursive(prog, "S")
	if err != nil {
		t.Fatal(err)
	}
	instances := randomFlatInstances(83, 12, []string{"R"}, []string{"a", "b"}, 4, 3)
	assertEquivalent(t, prog, got, "S", instances...)
}

func TestEliminatePackingEDBPackedPatternsDropped(t *testing.T) {
	// Packed patterns over EDB relations can never match flat input.
	prog := mustParse(t, `
S($x) :- R(<$x>).
S($x) :- R($x), !Q(<$x>).`)
	got, err := EliminatePackingNonrecursive(prog, "S")
	if err != nil {
		t.Fatal(err)
	}
	// First rule drops; second rule's negated literal drops.
	if n := len(got.Rules()); n != 1 {
		t.Fatalf("rules = %d, want 1:\n%s", n, got)
	}
	instances := randomFlatInstances(89, 8, []string{"R", "Q"}, []string{"a"}, 3, 3)
	assertEquivalent(t, prog, got, "S", instances...)
}

func TestDoubledPathCodec(t *testing.T) {
	m := DefaultDoubleMarkers
	paths := []value.Path{
		value.Epsilon,
		value.PathOf("a", "b"),
		value.PathOf("0", "1"), // data colliding with markers
		{value.Pack(value.PathOf("a"))},
		{value.Intern("a"), value.Pack(value.Path{value.Pack(value.Epsilon)}), value.Intern("b")},
		{value.Pack(value.PathOf("0", "1"))},
	}
	seen := map[string]bool{}
	for _, p := range paths {
		e := EncodeDoubledPath(p, m)
		if len(e)%2 != 0 {
			t.Fatalf("odd-length encoding for %v", p)
		}
		back, ok := DecodeDoubledPath(e, m)
		if !ok || !back.Equal(p) {
			t.Fatalf("roundtrip failed: %v -> %v -> %v (%v)", p, e, back, ok)
		}
		if seen[e.String()] {
			t.Fatalf("encoding collision at %v", p)
		}
		seen[e.String()] = true
	}
	// Unbalanced inputs fail to decode.
	if _, ok := DecodeDoubledPath(value.PathOf("0", "1"), m); ok {
		t.Fatal("lone open marker decoded")
	}
	if _, ok := DecodeDoubledPath(value.PathOf("a"), m); ok {
		t.Fatal("odd-length decoded")
	}
	if _, ok := DecodeDoubledPath(value.PathOf("a", "b"), m); ok {
		t.Fatal("mismatched data block decoded")
	}
}

func TestSimulatePackingDoubledRecursive(t *testing.T) {
	// A terminating recursive program using packing: S holds the
	// even-length paths of R, found by consuming two atoms per step
	// while deepening a packed accumulator.
	prog := mustParse(t, `
T($x, $x, eps) :- R($x).
T($x, $y, <$d>) :- T($x, @a.@b.$y, $d).
S($x) :- T($x, eps, $d).`)
	got, err := SimulatePackingDoubled(prog, "S", DefaultDoubleMarkers)
	if err != nil {
		t.Fatal(err)
	}
	f := got.Features()
	if f.Has(ast.FeatPacking) {
		t.Fatalf("packing still present:\n%s", got)
	}
	if f.Has(ast.FeatEquations) {
		t.Fatalf("equations introduced:\n%s", got)
	}
	// Alphabet includes the markers on purpose.
	instances := randomFlatInstances(97, 8, []string{"R"}, []string{"a", "0", "1"}, 3, 3)
	assertEquivalent(t, prog, got, "S", instances...)
}

func TestSimulatePackingDoubledWithNegation(t *testing.T) {
	prog := mustParse(t, `
T(<$x>.<$x>) :- R($x).
---
S($x) :- R($x), !T(<$x>.<$x.$x>).`)
	got, err := SimulatePackingDoubled(prog, "S", DefaultDoubleMarkers)
	if err != nil {
		t.Fatal(err)
	}
	instances := randomFlatInstances(101, 8, []string{"R"}, []string{"a", "b", "0"}, 3, 3)
	assertEquivalent(t, prog, got, "S", instances...)
}

func TestSimulatePackingDoubledRejections(t *testing.T) {
	eq := mustParse(t, `S($x) :- R($x), <$x> = <$x>.`)
	if _, err := SimulatePackingDoubled(eq, "S", DefaultDoubleMarkers); err == nil {
		t.Fatal("equations must be rejected")
	}
	if _, err := SimulatePackingDoubled(mustParse(t, `S($x) :- R($x).`), "S", DoubleMarkers{O: value.Intern("0"), C: value.Intern("0")}); err == nil {
		t.Fatal("identical markers must be rejected")
	}
	if _, err := SimulatePackingDoubled(mustParse(t, `S($x) :- R($x).`), "Z", DefaultDoubleMarkers); err == nil {
		t.Fatal("unknown output must be rejected")
	}
}

func TestEliminatePackingDispatcher(t *testing.T) {
	// Recursive + equations + packing: the dispatcher composes
	// EliminateEquations with the doubling simulation. S holds the
	// even-length paths of R (the seed equation enforces evenness, the
	// recursion re-derives it by peeling pairs).
	prog := mustParse(t, `
T($x, $x, eps) :- R($x), $x = $y.$y.
T($x, $y, <$d>) :- T($x, @a.@b.$y, $d).
S($x) :- T($x, eps, $d).`)
	got, err := EliminatePacking(prog, "S")
	if err != nil {
		t.Fatal(err)
	}
	if got.Features().Has(ast.FeatPacking) {
		t.Fatalf("packing still present")
	}
	instances := randomFlatInstances(103, 6, []string{"R"}, []string{"a", "b"}, 3, 4)
	assertEquivalent(t, prog, got, "S", instances...)
	// No-op on packing-free programs.
	plain := mustParse(t, `S($x) :- R($x).`)
	same, err := EliminatePacking(plain, "S")
	if err != nil || same.String() != plain.String() {
		t.Fatalf("no-op failed: %v\n%s", err, same)
	}
}
