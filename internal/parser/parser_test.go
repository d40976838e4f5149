package parser

import (
	"strings"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/value"
)

func TestParseExample31(t *testing.T) {
	prog, err := ParseProgram(`S($x) :- R($x), a.$x = $x.a.`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Strata) != 1 || len(prog.Strata[0]) != 1 {
		t.Fatalf("shape: %s", prog)
	}
	r := prog.Strata[0][0]
	if r.Head.Name != "S" || len(r.Head.Args) != 1 {
		t.Fatalf("head: %v", r.Head)
	}
	if len(r.Body) != 2 {
		t.Fatalf("body: %v", r.Body)
	}
	eq, ok := r.Body[1].Atom.(ast.Eq)
	if !ok {
		t.Fatalf("second literal is %T", r.Body[1].Atom)
	}
	if !eq.L.Equal(ast.Cat(ast.C("a"), ast.P("x"))) {
		t.Fatalf("eq.L = %s", eq.L)
	}
	if !eq.R.Equal(ast.Cat(ast.P("x"), ast.C("a"))) {
		t.Fatalf("eq.R = %s", eq.R)
	}
	if prog.Features() != ast.FeatureSet(ast.FeatEquations) {
		t.Fatalf("features = %s", prog.Features())
	}
}

func TestParseExample21NFA(t *testing.T) {
	src := `
% Example 2.1: NFA acceptance.
S(@q.$x, eps) :- R($x), N(@q).
S(@q2.$y, $z.@a) :- S(@q1.@a.$y, $z), D(@q1, @a, @q2).
A($x) :- S(@q, $x), F(@q).
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Features()
	for _, feat := range []ast.Feature{ast.FeatArity, ast.FeatIntermediates, ast.FeatRecursion} {
		if !f.Has(feat) {
			t.Errorf("missing feature in %s", f)
		}
	}
	// Second head arg of first rule is eps.
	if got := prog.Rules()[0].Head.Args[1]; len(got) != 0 {
		t.Fatalf("eps arg parsed as %s", got)
	}
}

func TestParsePackingAndNonequality(t *testing.T) {
	src := `
T($u.<$s>.$v) :- R($u.$s.$v), S($s).
A :- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Features()
	if !f.Has(ast.FeatPacking) || !f.Has(ast.FeatNegation) || !f.Has(ast.FeatEquations) {
		t.Fatalf("features = %s", f)
	}
	// Nullary head.
	last := prog.Rules()[1]
	if last.Head.Name != "A" || len(last.Head.Args) != 0 {
		t.Fatalf("nullary head: %v", last.Head)
	}
	neq := last.Body[3]
	if !neq.Neg {
		t.Fatal("nonequality not negated")
	}
}

func TestParseUnicode(t *testing.T) {
	src := "S($x) ← R($x), a·$x = $x·a.\nB($x) ← R($x), ¬Q($x), $x ≠ ε.\n"
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	rules := prog.Rules()
	if len(rules) != 2 {
		t.Fatalf("rules = %d", len(rules))
	}
	if !rules[1].Body[1].Neg {
		t.Fatal("¬ not parsed")
	}
	eq := rules[1].Body[2]
	if !eq.Neg {
		t.Fatal("≠ not parsed as negated equation")
	}
	if len(eq.Atom.(ast.Eq).R) != 0 {
		t.Fatal("ε not parsed as empty path")
	}
}

// parseWritten keeps the strata exactly as written — one stratum when
// the source has no separator, which ParseProgram would auto-stratify —
// and validates them.
func parseWritten(src string) (ast.Program, error) {
	strata, _, err := parseStrata(src)
	if err != nil {
		return ast.Program{}, err
	}
	prog := ast.Program{Strata: strata}
	return prog, prog.Validate()
}

func TestParseExplicitStrata(t *testing.T) {
	src := `
S($x) :- R($x).
---
W($x) :- R($x), !S($x).
`
	prog, err := parseWritten(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Strata) != 2 {
		t.Fatalf("strata = %d", len(prog.Strata))
	}
	// Same source without separator fails explicit validation (negation
	// in the stratum that defines S)...
	bad := strings.ReplaceAll(src, "---", "")
	if _, err := parseWritten(bad); err == nil {
		t.Fatal("unstratified program accepted")
	}
	// ...but auto-stratification fixes it.
	if _, err := ParseProgram(bad); err != nil {
		t.Fatalf("auto-stratification failed: %v", err)
	}
}

func TestParseUnsafeRejected(t *testing.T) {
	if _, err := ParseProgram(`S($x) :- a.$x = $x.a.`); err == nil {
		t.Fatal("unsafe rule accepted")
	}
	if _, err := ParseProgram(`S($x) :- R($y), !Q($x).`); err == nil {
		t.Fatal("unsafe negated variable accepted")
	}
}

func TestParseQuotedAtoms(t *testing.T) {
	prog, err := ParseProgram(`S($x) :- R('complete order'.$x.'receive payment').`)
	if err != nil {
		t.Fatal(err)
	}
	arg := prog.Rules()[0].Body[0].Atom.(ast.Pred).Args[0]
	if c, ok := arg[0].(ast.Const); !ok || c.A != value.Intern("complete order") {
		t.Fatalf("quoted atom parsed as %v", arg[0])
	}
}

func TestRoundTripPrograms(t *testing.T) {
	sources := []string{
		`S($x) :- R($x), a.$x = $x.a.`,
		`T($x, $x) :- R($x).
T($x, $y) :- T($x, $y.a).
S($x) :- T($x, eps).`,
		`T($u.<$s>.$v) :- R($u.$s.$v), S($s).
A :- T($x), T($y), $x != $y.`,
		`S(@q.$x, eps) :- R($x), N(@q).
S(@q2.$y, $z.@a) :- S(@q1.@a.$y, $z), D(@q1, @a, @q2).
A($x) :- S(@q, $x), F(@q).`,
		`W(@x) :- R(@x.@y), !B(@y).
---
S(@x) :- R(@x.@y), !W(@x).`,
		`T('a b'.'c.d').`,
		`U($x, $y) :- U($x, @a.$y.@b), !T($x, $y, @a, @b).`,
	}
	for _, src := range sources {
		p1, err := parseWritten(src)
		if err != nil {
			// Some are unsafe/unstratified alone; parse rules only.
			rs, err2 := ParseRules(src)
			if err2 != nil {
				t.Fatalf("parse %q: %v / %v", src, err, err2)
			}
			for _, r := range rs {
				printed := r.String()
				back, err := ParseRules(printed)
				if err != nil {
					t.Fatalf("reparse %q: %v", printed, err)
				}
				if len(back) != 1 || back[0].String() != printed {
					t.Fatalf("roundtrip %q -> %q", printed, back[0].String())
				}
			}
			continue
		}
		printed := p1.String()
		p2, err := parseWritten(printed)
		if err != nil {
			t.Fatalf("reparse of\n%s: %v", printed, err)
		}
		if p2.String() != printed {
			t.Fatalf("roundtrip mismatch:\n%s\nvs\n%s", printed, p2.String())
		}
	}
}

func TestParseInstance(t *testing.T) {
	inst, err := ParseInstance(`
R(a.b.a).
R(eps).
D(q0, a, q1).
A.
T(a.<b.c>.d).
`)
	if err != nil {
		t.Fatal(err)
	}
	if inst.Relation("R").Len() != 2 {
		t.Fatalf("R = %d", inst.Relation("R").Len())
	}
	if !inst.Has("R", []value.Path{value.Epsilon}) {
		t.Fatal("eps fact missing")
	}
	if inst.Relation("D").Arity != 3 {
		t.Fatalf("D arity = %d", inst.Relation("D").Arity)
	}
	if inst.Relation("A").Arity != 0 || inst.Relation("A").Len() != 1 {
		t.Fatal("nullary fact broken")
	}
	want := value.Path{value.Intern("a"), value.Pack(value.PathOf("b", "c")), value.Intern("d")}
	if !inst.Has("T", []value.Path{want}) {
		t.Fatalf("packed fact missing; have %s", inst)
	}
	// A batch is outside input: every defect is a positioned error, never
	// a panic out of Instance.Add.
	for _, tc := range []struct{ src, want string }{
		{`R($x).`, "1:1: fact R has a non-ground argument $x"},
		{"R(a, b).\nS(c). R(a).", "2:7: relation R used with arity 1 here but arity 2 earlier in the batch"},
		{`A. A(a).`, "1:4: relation A used with arity 1 here but arity 0 earlier in the batch"},
	} {
		if _, err := ParseInstance(tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("ParseInstance(%q): error %v, want %q", tc.src, err, tc.want)
		}
	}
}

func TestInstanceStringRoundTrip(t *testing.T) {
	inst := MustParseInstance(`
R(a.b).
R('x y'.c).
D(q0, a, q1).
A.
P(<a.b>.c).
`)
	back, err := ParseInstance(inst.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, inst)
	}
	if !inst.Equal(back) {
		t.Fatalf("roundtrip mismatch:\n%s\nvs\n%s", inst, back)
	}
}

func TestParsePath(t *testing.T) {
	p, err := ParsePath("a.<b.c>.d")
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "a.<b.c>.d" {
		t.Fatalf("path = %s", p)
	}
	if _, err := ParsePath("a.$x"); err == nil {
		t.Fatal("variable path accepted")
	}
	eps, err := ParsePath("eps")
	if err != nil || len(eps) != 0 {
		t.Fatalf("eps: %v %v", eps, err)
	}
}

func TestParseErrorsHavePositions(t *testing.T) {
	_, err := ParseProgram("S($x) :- R($x)\nT(a).")
	if err == nil {
		t.Fatal("missing terminator accepted")
	}
	if !strings.Contains(err.Error(), ":") {
		t.Fatalf("error lacks position: %v", err)
	}
	for _, bad := range []string{
		"S($x :- R($x).",
		"S($x) :- R($x), .",
		"S($x) :- R($x), a = .",
		"S($) :- R($x).",
		"S('abc) :- R($x).",
		"S(&x) :- R($x).",
	} {
		if _, err := ParseProgram(bad); err == nil {
			t.Fatalf("bad program accepted: %q", bad)
		}
	}
}

func TestFactRule(t *testing.T) {
	prog, err := ParseProgram("T(a).\nT(a.b.c).")
	if err != nil {
		t.Fatal(err)
	}
	rules := prog.Rules()
	if len(rules) != 2 || len(rules[0].Body) != 0 {
		t.Fatalf("facts parsed wrong: %v", rules)
	}
}

func TestEmptyBodyWithArrow(t *testing.T) {
	prog, err := ParseProgram("T(a) :- .")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules()[0].Body) != 0 {
		t.Fatal("expected empty body")
	}
}
