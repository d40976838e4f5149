package algebra

import (
	"math/rand"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/value"
)

func evalExpr(t *testing.T, e Expr, inst *instance.Instance) *instance.Relation {
	t.Helper()
	r, err := Eval(e, inst)
	if err != nil {
		t.Fatalf("Eval(%s): %v", e, err)
	}
	return r
}

func TestSelectGeneralized(t *testing.T) {
	inst := parser.MustParseInstance(`R(a.b, b.a). R(a.b, a.b). R(eps, eps).`)
	// σ_{$1 = $2}(R).
	eq := evalExpr(t, Select{E: Rel{"R", 2}, L: Col(1), R: Col(2)}, inst)
	if eq.Len() != 2 {
		t.Fatalf("σ= : %v", eq.Sorted())
	}
	// σ_{$1.a = a.$1}(R): first component all a's.
	onlyAs := evalExpr(t, Select{E: Rel{"R", 2}, L: ast.Cat(Col(1), ast.C("a")), R: ast.Cat(ast.C("a"), Col(1))}, inst)
	if onlyAs.Len() != 1 { // only (eps, eps)
		t.Fatalf("σ only-a: %v", onlyAs.Sorted())
	}
}

func TestProjectGeneralized(t *testing.T) {
	inst := parser.MustParseInstance(`R(a, b).`)
	// π_{$2.$1, <$1>}(R).
	p := evalExpr(t, Project{E: Rel{"R", 2}, Cols: []ast.Expr{ast.Cat(Col(2), Col(1)), ast.Packed(Col(1))}}, inst)
	want := instance.Tuple{value.PathOf("b", "a"), value.Path{value.Pack(value.PathOf("a"))}}
	if p.Len() != 1 || !p.Contains(want) {
		t.Fatalf("π: %v", p.Sorted())
	}
}

func TestUnionDiffProduct(t *testing.T) {
	inst := parser.MustParseInstance(`R(a). R(b). Q(b). Q(c).`)
	u := evalExpr(t, Union{Rel{"R", 1}, Rel{"Q", 1}}, inst)
	if u.Len() != 3 {
		t.Fatalf("union: %v", u.Sorted())
	}
	d := evalExpr(t, Diff{Rel{"R", 1}, Rel{"Q", 1}}, inst)
	if d.Len() != 1 || !d.Contains(instance.Tuple{value.PathOf("a")}) {
		t.Fatalf("diff: %v", d.Sorted())
	}
	p := evalExpr(t, Product{Rel{"R", 1}, Rel{"Q", 1}}, inst)
	if p.Len() != 4 || p.Arity != 2 {
		t.Fatalf("product: %v", p.Sorted())
	}
	// Arity mismatch errors.
	if _, err := Eval(Union{Rel{"R", 1}, Product{Rel{"R", 1}, Rel{"Q", 1}}}, inst); err == nil {
		t.Fatal("arity mismatch not detected")
	}
}

func TestUnpack(t *testing.T) {
	inst := parser.MustParseInstance(`R(<a.b>, x). R(c, y). R(<eps>, z).`)
	u := evalExpr(t, Unpack{E: Rel{"R", 2}, I: 1}, inst)
	if u.Len() != 2 {
		t.Fatalf("unpack: %v", u.Sorted())
	}
	if !u.Contains(instance.Tuple{value.PathOf("a", "b"), value.PathOf("x")}) {
		t.Fatalf("unpack contents: %v", u.Sorted())
	}
	if !u.Contains(instance.Tuple{value.Epsilon, value.PathOf("z")}) {
		t.Fatalf("unpack eps: %v", u.Sorted())
	}
}

func TestSub(t *testing.T) {
	inst := parser.MustParseInstance(`R(a.b).`)
	s := evalExpr(t, Sub{E: Rel{"R", 1}, I: 1}, inst)
	// Substrings of a.b: eps, a, b, a.b -> 4 distinct.
	if s.Len() != 4 {
		t.Fatalf("sub: %v", s.Sorted())
	}
	if !s.Contains(instance.Tuple{value.PathOf("a", "b"), value.Epsilon}) {
		t.Fatal("missing eps substring")
	}
	if !s.Contains(instance.Tuple{value.PathOf("a", "b"), value.PathOf("a", "b")}) {
		t.Fatal("missing full substring")
	}
}

func TestConstAndMissingRel(t *testing.T) {
	inst := instance.New()
	c := evalExpr(t, Const{NArity: 1, Tuples: []instance.Tuple{{value.PathOf("a")}}}, inst)
	if c.Len() != 1 {
		t.Fatal("const broken")
	}
	m := evalExpr(t, Rel{"Nope", 2}, inst)
	if m.Len() != 0 || m.Arity != 2 {
		t.Fatal("missing relation should be empty")
	}
}

func TestFormOf(t *testing.T) {
	cases := []struct {
		rule string
		want Form
	}{
		{`H($y, $z, @u) :- P1($y.$y, $z.a, @u.d).`, Form1},
		{`N1($y, $z, $x.$y) :- H($y, $z).`, Form2},
		{`H($y, $z, $u, $x) :- H1($y, $z, $u), H2($z, $x).`, Form3},
		{`FN($y, $z) :- N2($y, $z), !N($z).`, Form4},
		{`HN($y) :- FN($y, $z).`, Form5},
		{`T(a.b).`, Form6},
		{`T(<a>.b).`, Form6},
		{`S($x) :- R($x), Q($x), W($x).`, FormNone},
		{`S($x.$x) :- R($x), Q($x).`, FormNone},
		{`S($x) :- R($x), $x = a.`, FormNone},
	}
	for _, c := range cases {
		rules, err := parser.ParseRules(c.rule)
		if err != nil {
			t.Fatalf("%s: %v", c.rule, err)
		}
		if got := FormOf(rules[0]); got != c.want {
			t.Errorf("FormOf(%s) = %v, want %v", c.rule, got, c.want)
		}
	}
}

// randomInstancesArity builds random flat instances for relations with
// explicit arities.
func randomInstancesArity(seed int64, count int, rels map[string]int, alphabet []string, maxTuples, maxLen int) []*instance.Instance {
	r := rand.New(rand.NewSource(seed))
	var out []*instance.Instance
	for i := 0; i < count; i++ {
		inst := instance.New()
		for rel, ar := range rels {
			n := r.Intn(maxTuples + 1)
			for j := 0; j < n; j++ {
				tu := make(instance.Tuple, ar)
				for k := range tu {
					l := r.Intn(maxLen + 1)
					p := make(value.Path, l)
					for q := range p {
						p[q] = value.Intern(alphabet[r.Intn(len(alphabet))])
					}
					tu[k] = p
				}
				inst.Add(rel, tu)
			}
			inst.Ensure(rel, ar)
		}
		out = append(out, inst)
	}
	return out
}

func TestNormalFormWorkedExample(t *testing.T) {
	// The general example from the proof of Lemma 7.2.
	prog, err := parser.ParseProgram(`
T(a.b.c, @x.c.$y, $z.$z) :- P1($y.$y, $z.a, @u.d), P2($z.@x.c, d), !N1(@x.$y.$z, a.@x), !N2(a.b, $y).`)
	if err != nil {
		t.Fatal(err)
	}
	nf, err := NormalForm(prog)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Form]int{}
	for _, r := range nf.Rules() {
		f := FormOf(r)
		if f == FormNone {
			t.Fatalf("rule not in normal form: %s", r)
		}
		counts[f]++
	}
	// The paper's worked derivation uses forms 1-5 (no constants).
	for _, f := range []Form{Form1, Form2, Form3, Form4, Form5} {
		if counts[f] == 0 {
			t.Errorf("form %v unused; counts = %v\n%s", f, counts, nf)
		}
	}
	// Behavioral equivalence.
	rels := map[string]int{"P1": 3, "P2": 2, "N1": 2, "N2": 2}
	source, err := eval.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	normal, err := eval.Compile(nf)
	if err != nil {
		t.Fatalf("normal form compile: %v", err)
	}
	for i, edb := range randomInstancesArity(5, 10, rels, []string{"a", "b", "c", "d"}, 4, 3) {
		want, err := source.Query(edb, "T", eval.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := normal.Query(edb, "T", eval.Limits{})
		if err != nil {
			t.Fatalf("normal form eval: %v", err)
		}
		if !want.Equal(got) {
			t.Fatalf("instance %d: normal form differs\nwant %v\ngot %v", i, want.Sorted(), got.Sorted())
		}
	}
}

func TestNormalFormRejections(t *testing.T) {
	rec, _ := parser.ParseProgram(`
T($x) :- R($x).
T($x.a) :- T($x).`)
	if _, err := NormalForm(rec); err == nil {
		t.Fatal("recursive program must be rejected")
	}
	eq, _ := parser.ParseProgram(`S($x) :- R($x), a.$x = $x.a.`)
	if _, err := NormalForm(eq); err == nil {
		t.Fatal("equations must be rejected")
	}
}

// assertCompileEquivalent compiles the program for the output relation
// and compares algebra evaluation against direct Datalog evaluation.
func assertCompileEquivalent(t *testing.T, src, output string, rels map[string]int, seeds int64) {
	t.Helper()
	prog := parser.MustParseProgram(src)
	e, err := Compile(prog, output)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	prep, err := eval.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, edb := range randomInstancesArity(seeds, 10, rels, []string{"a", "b"}, 4, 3) {
		want, err := prep.Query(edb, output, eval.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Eval(e, edb)
		if err != nil {
			t.Fatalf("algebra eval: %v", err)
		}
		if !want.Equal(got) {
			t.Fatalf("instance %d: algebra differs from Datalog\nwant %v\ngot  %v\nexpr: %s",
				i, want.Sorted(), got.Sorted(), e)
		}
	}
}

func TestCompileSimpleExtraction(t *testing.T) {
	assertCompileEquivalent(t, `S($x) :- R(a.$x.b).`, "S", map[string]int{"R": 1}, 11)
}

func TestCompileJoinAndProjection(t *testing.T) {
	assertCompileEquivalent(t, `
T($x, $y) :- R($x.$y).
S($y) :- T($x, $y), Q($x).`, "S", map[string]int{"R": 1, "Q": 1}, 13)
}

func TestCompileNegation(t *testing.T) {
	assertCompileEquivalent(t, `
B($x) :- R($x.$x).
---
S($x) :- R($x), !B($x).`, "S", map[string]int{"R": 1}, 17)
}

func TestCompileEquationsViaElimination(t *testing.T) {
	assertCompileEquivalent(t, `S($x) :- R($x), a.$x = $x.a.`, "S", map[string]int{"R": 1}, 19)
}

func TestCompilePackingExample22(t *testing.T) {
	// Example 2.2: packing + nonequalities, nonrecursive. The result of
	// T is packed, exercising UNPACK domains.
	src := `
T($u.<$s>.$v) :- R($u.$s.$v), S($s).
A :- T($x), T($y), $x != $y.`
	prog := parser.MustParseProgram(src)
	e, err := Compile(prog, "A")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	prep, err := eval.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i, edb := range randomInstancesArity(23, 8, map[string]int{"R": 1, "S": 1}, []string{"a", "b"}, 3, 3) {
		want, err := prep.Holds(edb, "A", eval.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		rel, err := Eval(e, edb)
		if err != nil {
			t.Fatalf("algebra eval: %v", err)
		}
		got := rel.Len() > 0
		if want != got {
			t.Fatalf("instance %d: A: want %v got %v\n%s", i, want, got, edb)
		}
	}
}

func TestCompileConstantRule(t *testing.T) {
	assertCompileEquivalent(t, `
T(a.b).
S($x) :- T($x.$y).`, "S", map[string]int{}, 29)
}

func TestCompileRejectsRecursion(t *testing.T) {
	prog := parser.MustParseProgram(`
T($x) :- R($x).
T($x.a) :- T($x).`)
	if _, err := Compile(prog, "T"); err == nil {
		t.Fatal("recursive program must be rejected")
	}
}

func TestToDatalogRoundtrip(t *testing.T) {
	exprs := []Expr{
		Select{E: Rel{"R", 2}, L: Col(1), R: Col(2)},
		Project{E: Rel{"R", 2}, Cols: []ast.Expr{ast.Cat(Col(2), Col(1))}},
		Union{Rel{"Q", 1}, Project{E: Rel{"R", 2}, Cols: []ast.Expr{Col(1)}}},
		Diff{Rel{"Q", 1}, Project{E: Rel{"R", 2}, Cols: []ast.Expr{Col(2)}}},
		Product{Rel{"Q", 1}, Rel{"Q", 1}},
		Sub{E: Rel{"Q", 1}, I: 1},
		Project{E: Unpack{E: Project{E: Rel{"Q", 1}, Cols: []ast.Expr{ast.Packed(Col(1))}}, I: 1}, Cols: []ast.Expr{Col(1)}},
		Select{E: Rel{"Q", 1}, L: ast.Cat(Col(1), ast.C("a")), R: ast.Cat(ast.C("a"), Col(1))},
	}
	instances := randomInstancesArity(31, 8, map[string]int{"R": 2, "Q": 1}, []string{"a", "b"}, 4, 3)
	for _, e := range exprs {
		prog, err := ToDatalog(e, "Out")
		if err != nil {
			t.Fatalf("ToDatalog(%s): %v", e, err)
		}
		prep, err := eval.Compile(prog)
		if err != nil {
			t.Fatalf("compile of translation: %v\n%s", err, prog)
		}
		for i, edb := range instances {
			want, err := Eval(e, edb)
			if err != nil {
				t.Fatal(err)
			}
			got, err := prep.Query(edb, "Out", eval.Limits{})
			if err != nil {
				t.Fatalf("eval of translation: %v\n%s", err, prog)
			}
			if !want.Equal(got) {
				t.Fatalf("expr %s instance %d: want %v got %v\nprogram:\n%s",
					e, i, want.Sorted(), got.Sorted(), prog)
			}
		}
	}
}

func TestEvalPosErrors(t *testing.T) {
	inst := parser.MustParseInstance(`R(a).`)
	if _, err := Eval(Select{E: Rel{"R", 1}, L: ast.A("x"), R: Col(1)}, inst); err == nil {
		t.Fatal("atomic variable must be rejected")
	}
	if _, err := Eval(Select{E: Rel{"R", 1}, L: Col(5), R: Col(1)}, inst); err == nil {
		t.Fatal("out-of-range column must be rejected")
	}
	if _, err := Eval(Unpack{E: Rel{"R", 1}, I: 3}, inst); err == nil {
		t.Fatal("out-of-range unpack must be rejected")
	}
}

func TestSizeReporting(t *testing.T) {
	e := Union{Rel{"R", 1}, Project{E: Sub{E: Rel{"R", 1}, I: 1}, Cols: []ast.Expr{Col(2)}}}
	if Size(e) != 5 {
		t.Fatalf("Size = %d", Size(e))
	}
}
