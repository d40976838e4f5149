package ast

import (
	"slices"
	"strings"
	"testing"

	"seqlog/internal/value"
)

// onlyAsEquation is Example 3.1's program in fragment {E}:
// S($x) :- R($x), a.$x = $x.a.
func onlyAsEquation() Program {
	return NewProgram(R(
		Pred{Name: "S", Args: []Expr{P("x")}},
		Pos(Pred{Name: "R", Args: []Expr{P("x")}}),
		Pos(Eq{L: Cat(C("a"), P("x")), R: Cat(P("x"), C("a"))}),
	))
}

// onlyAsRecursion is Example 3.1's program in fragment {A, I, R}.
func onlyAsRecursion() Program {
	return NewProgram(
		R(Pred{Name: "T", Args: []Expr{P("x"), P("x")}},
			Pos(Pred{Name: "R", Args: []Expr{P("x")}})),
		R(Pred{Name: "T", Args: []Expr{P("x"), P("y")}},
			Pos(Pred{Name: "T", Args: []Expr{P("x"), Cat(P("y"), C("a"))}})),
		R(Pred{Name: "S", Args: []Expr{P("x")}},
			Pos(Pred{Name: "T", Args: []Expr{P("x"), Eps()}})),
	)
}

func TestExprString(t *testing.T) {
	e := Cat(C("a"), P("x"), Packed(Cat(A("y"), P("z"))))
	if got := e.String(); got != "a.$x.<@y.$z>" {
		t.Fatalf("String = %q", got)
	}
	if Eps().String() != "eps" {
		t.Fatalf("eps renders %q", Eps().String())
	}
}

func TestExprEvalGround(t *testing.T) {
	e := Cat(C("a"), Packed(Cat(C("b"), C("c"))))
	p := e.Eval()
	want := value.Path{value.Intern("a"), value.Pack(value.PathOf("b", "c"))}
	if !p.Equal(want) {
		t.Fatalf("Eval = %v, want %v", p, want)
	}
	if !e.IsGround() {
		t.Fatal("ground expression reported non-ground")
	}
	if Cat(C("a"), P("x")).IsGround() {
		t.Fatal("non-ground expression reported ground")
	}
}

func TestFromPathRoundtrip(t *testing.T) {
	p := value.Path{value.Intern("a"), value.Pack(value.Path{value.Intern("b"), value.Pack(value.Epsilon)})}
	e := FromPath(p)
	if !e.Eval().Equal(p) {
		t.Fatalf("roundtrip failed: %v -> %s -> %v", p, e, e.Eval())
	}
}

func TestSubstApply(t *testing.T) {
	s := Subst{PVar("x"): Cat(C("a"), P("y")), AVar("u"): C("b")}
	e := Cat(P("x"), A("u"), Packed(P("x")))
	got := s.Apply(e)
	want := Cat(C("a"), P("y"), C("b"), Packed(Cat(C("a"), P("y"))))
	if !got.Equal(want) {
		t.Fatalf("Apply = %s, want %s", got, want)
	}
}

func TestSubstCompose(t *testing.T) {
	s := Subst{PVar("x"): Cat(P("y"), P("y"))}
	u := Subst{PVar("y"): C("a"), PVar("z"): C("b")}
	c := s.Compose(u)
	if !c.Apply(P("x")).Equal(Cat(C("a"), C("a"))) {
		t.Fatalf("compose apply x = %s", c.Apply(P("x")))
	}
	if !c.Apply(P("z")).Equal(C("b")) {
		t.Fatalf("compose should keep later bindings, got %s", c.Apply(P("z")))
	}
}

func TestVarsOrderAndDedup(t *testing.T) {
	e := Cat(P("x"), A("y"), P("x"), Packed(P("z")))
	vs := e.Vars()
	if len(vs) != 3 || vs[0] != PVar("x") || vs[1] != AVar("y") || vs[2] != PVar("z") {
		t.Fatalf("Vars = %v", vs)
	}
}

// safe reports whether all variables occurring in the rule are limited.
func safe(r Rule) bool {
	limited := r.LimitedVars()
	for _, v := range r.Vars() {
		if !limited[v] {
			return false
		}
	}
	return true
}

func TestLimitedVarsAndSafety(t *testing.T) {
	// S($x) :- R($x), a.$x = $x.a : safe.
	p := onlyAsEquation()
	r := p.Strata[0][0]
	if !safe(r) {
		t.Fatal("Example 3.1 rule must be safe")
	}
	// S($x) :- a.$x = $x.a : unsafe (no positive predicate limits $x).
	unsafe := R(
		Pred{Name: "S", Args: []Expr{P("x")}},
		Pos(Eq{L: Cat(C("a"), P("x")), R: Cat(P("x"), C("a"))}),
	)
	if safe(unsafe) {
		t.Fatal("rule with only an equation must be unsafe")
	}
	// Equation propagation: S($y) :- R($x), $x = $y.
	prop := R(
		Pred{Name: "S", Args: []Expr{P("y")}},
		Pos(Pred{Name: "R", Args: []Expr{P("x")}}),
		Pos(Eq{L: P("x"), R: P("y")}),
	)
	if !safe(prop) {
		t.Fatal("equation must propagate limitedness")
	}
	// Negated predicates do not limit: S($x) :- !R($x).
	neg := R(
		Pred{Name: "S", Args: []Expr{P("x")}},
		Neg(Pred{Name: "R", Args: []Expr{P("x")}}),
	)
	if safe(neg) {
		t.Fatal("negated predicate must not make a rule safe")
	}
	// Chained propagation through two equations.
	chain := R(
		Pred{Name: "S", Args: []Expr{P("z")}},
		Pos(Pred{Name: "R", Args: []Expr{P("x")}}),
		Pos(Eq{L: P("x"), R: Cat(P("y"), P("y"))}),
		Pos(Eq{L: P("y"), R: P("z")}),
	)
	if !safe(chain) {
		t.Fatal("chained equations must propagate limitedness")
	}
}

func TestFeaturesDetection(t *testing.T) {
	e := onlyAsEquation()
	if f := e.Features(); f != FeatureSet(FeatEquations) {
		t.Fatalf("Example 3.1 (equation) features = %s, want {E}", f)
	}
	r := onlyAsRecursion()
	want := FeatureSet(FeatArity | FeatIntermediates | FeatRecursion)
	if f := r.Features(); f != want {
		t.Fatalf("Example 3.1 (recursion) features = %s, want {A, I, R}", f)
	}
}

func TestFeaturesPackingAndNegation(t *testing.T) {
	// Example 2.2's first rule: T($u.<$s>.$v) :- R($u.$s.$v), S($s).
	p := NewProgram(
		R(Pred{Name: "T", Args: []Expr{Cat(P("u"), Packed(P("s")), P("v"))}},
			Pos(Pred{Name: "R", Args: []Expr{Cat(P("u"), P("s"), P("v"))}}),
			Pos(Pred{Name: "S", Args: []Expr{P("s")}})),
		R(Pred{Name: "A"},
			Pos(Pred{Name: "T", Args: []Expr{P("x")}}),
			Pos(Pred{Name: "T", Args: []Expr{P("y")}}),
			Pos(Pred{Name: "T", Args: []Expr{P("z")}}),
			Neg(Eq{L: P("x"), R: P("y")}),
			Neg(Eq{L: P("x"), R: P("z")}),
			Neg(Eq{L: P("y"), R: P("z")})),
	)
	f := p.Features()
	for _, feat := range []Feature{FeatPacking, FeatNegation, FeatEquations, FeatIntermediates} {
		if !f.Has(feat) {
			t.Errorf("feature %v not detected in %s", feat, f)
		}
	}
	if f.Has(FeatArity) || f.Has(FeatRecursion) {
		t.Errorf("spurious features in %s", f)
	}
}

func TestRecursionDetection(t *testing.T) {
	if onlyAsEquation().HasRecursion() {
		t.Fatal("equation program is not recursive")
	}
	if !onlyAsRecursion().HasRecursion() {
		t.Fatal("T-loop program is recursive")
	}
	recs := onlyAsRecursion().RecursiveRelations()
	if len(recs) != 1 || recs[0] != "T" {
		t.Fatalf("RecursiveRelations = %v", recs)
	}
	// Mutual recursion.
	m := NewProgram(
		R(Pred{Name: "A", Args: []Expr{P("x")}}, Pos(Pred{Name: "B", Args: []Expr{P("x")}})),
		R(Pred{Name: "B", Args: []Expr{P("x")}}, Pos(Pred{Name: "A", Args: []Expr{P("x")}})),
	)
	if !m.HasRecursion() {
		t.Fatal("mutual recursion not detected")
	}
	if got := m.RecursiveRelations(); len(got) != 2 {
		t.Fatalf("RecursiveRelations = %v", got)
	}
}

func TestIDBAndEDBNames(t *testing.T) {
	p := onlyAsRecursion()
	if got := p.IDBNames(); strings.Join(got, ",") != "S,T" {
		t.Fatalf("IDB = %v", got)
	}
	if got := p.EDBNames(); strings.Join(got, ",") != "R" {
		t.Fatalf("EDB = %v", got)
	}
}

func TestAritiesConsistency(t *testing.T) {
	p := onlyAsRecursion()
	ar, err := p.Arities()
	if err != nil {
		t.Fatal(err)
	}
	if ar["T"] != 2 || ar["S"] != 1 || ar["R"] != 1 {
		t.Fatalf("arities = %v", ar)
	}
	bad := NewProgram(
		R(Pred{Name: "S", Args: []Expr{P("x")}}, Pos(Pred{Name: "R", Args: []Expr{P("x")}})),
		R(Pred{Name: "S", Args: []Expr{P("x"), P("y")}}, Pos(Pred{Name: "R", Args: []Expr{Cat(P("x"), P("y"))}})),
	)
	if _, err := bad.Arities(); err == nil {
		t.Fatal("inconsistent arities not detected")
	}
}

func TestValidateStratification(t *testing.T) {
	// ¬S used in the same stratum that defines S: invalid.
	bad := NewProgram(
		R(Pred{Name: "S", Args: []Expr{P("x")}}, Pos(Pred{Name: "R", Args: []Expr{P("x")}})),
		R(Pred{Name: "W", Args: []Expr{P("x")}},
			Pos(Pred{Name: "R", Args: []Expr{P("x")}}),
			Neg(Pred{Name: "S", Args: []Expr{P("x")}})),
	)
	if err := bad.Validate(); err == nil {
		t.Fatal("unstratified negation not detected")
	}
	// Same rules in two strata: valid.
	good := Program{Strata: []Stratum{
		{R(Pred{Name: "S", Args: []Expr{P("x")}}, Pos(Pred{Name: "R", Args: []Expr{P("x")}}))},
		{R(Pred{Name: "W", Args: []Expr{P("x")}},
			Pos(Pred{Name: "R", Args: []Expr{P("x")}}),
			Neg(Pred{Name: "S", Args: []Expr{P("x")}}))},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestAutoStratify(t *testing.T) {
	// The Theorem 5.5 program:
	// W(@x) :- R(@x.@y), !B(@y).   S(@x) :- R(@x.@y), !W(@x).
	rules := []Rule{
		R(Pred{Name: "W", Args: []Expr{A("x")}},
			Pos(Pred{Name: "R", Args: []Expr{Cat(A("x"), A("y"))}}),
			Neg(Pred{Name: "B", Args: []Expr{A("y")}})),
		R(Pred{Name: "S", Args: []Expr{A("x")}},
			Pos(Pred{Name: "R", Args: []Expr{Cat(A("x"), A("y"))}}),
			Neg(Pred{Name: "W", Args: []Expr{A("x")}})),
	}
	p, err := AutoStratify(rules)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Strata) != 2 {
		t.Fatalf("strata = %d, want 2: %s", len(p.Strata), p)
	}
	if p.Strata[0][0].Head.Name != "W" || p.Strata[1][0].Head.Name != "S" {
		t.Fatalf("wrong stratum assignment: %s", p)
	}
	// Recursion through negation must fail.
	badRules := []Rule{
		R(Pred{Name: "A", Args: []Expr{P("x")}},
			Pos(Pred{Name: "R", Args: []Expr{P("x")}}),
			Neg(Pred{Name: "B", Args: []Expr{P("x")}})),
		R(Pred{Name: "B", Args: []Expr{P("x")}},
			Pos(Pred{Name: "R", Args: []Expr{P("x")}}),
			Neg(Pred{Name: "A", Args: []Expr{P("x")}})),
	}
	if _, err := AutoStratify(badRules); err == nil {
		t.Fatal("recursion through negation must fail stratification")
	}
}

func TestSplitStrataSingleIDB(t *testing.T) {
	p := NewProgram(
		R(Pred{Name: "T", Args: []Expr{P("x")}}, Pos(Pred{Name: "R", Args: []Expr{P("x")}})),
		R(Pred{Name: "U", Args: []Expr{P("x")}}, Pos(Pred{Name: "T", Args: []Expr{P("x")}})),
		R(Pred{Name: "S", Args: []Expr{P("x")}}, Pos(Pred{Name: "U", Args: []Expr{P("x")}}), Pos(Pred{Name: "T", Args: []Expr{P("x")}})),
	)
	split, err := p.SplitStrataSingleIDB()
	if err != nil {
		t.Fatal(err)
	}
	if len(split.Strata) != 3 {
		t.Fatalf("got %d strata, want 3: %s", len(split.Strata), split)
	}
	order := []string{split.Strata[0][0].Head.Name, split.Strata[1][0].Head.Name, split.Strata[2][0].Head.Name}
	if order[0] != "T" || order[1] != "U" || order[2] != "S" {
		t.Fatalf("topological order wrong: %v", order)
	}
	if _, err := onlyAsRecursion().SplitStrataSingleIDB(); err == nil {
		t.Fatal("recursive program must be rejected")
	}
}

func TestRenameRelations(t *testing.T) {
	p := onlyAsRecursion()
	q := p.RenameRelations(map[string]string{"T": "T1"})
	if got := q.IDBNames(); strings.Join(got, ",") != "S,T1" {
		t.Fatalf("rename IDB = %v", got)
	}
	// Original untouched.
	if got := p.IDBNames(); strings.Join(got, ",") != "S,T" {
		t.Fatalf("rename mutated original: %v", got)
	}
}

func TestNameGen(t *testing.T) {
	p := onlyAsRecursion()
	g := NewNameGen(p)
	n1 := g.Fresh("T")
	n2 := g.Fresh("T")
	if n1 == n2 {
		t.Fatal("Fresh returned duplicate")
	}
	if n1 == "T" || n2 == "T" {
		t.Fatal("Fresh returned used name")
	}
	v := g.FreshVar("x", false)
	if v.Name == "x" {
		t.Fatal("FreshVar returned used name")
	}
}

func TestFeatureSetString(t *testing.T) {
	f := FeatureSet(FeatEquations | FeatIntermediates | FeatNegation)
	if f.String() != "{E, I, N}" {
		t.Fatalf("String = %q", f)
	}
	var empty FeatureSet
	if empty.String() != "{}" {
		t.Fatalf("empty = %q", empty)
	}
	parsed, ok := ParseFeatureSet("{E, I, N}")
	if !ok || parsed != f {
		t.Fatalf("ParseFeatureSet failed: %v %v", parsed, ok)
	}
	parsed2, ok := ParseFeatureSet("ein")
	if !ok || parsed2 != f {
		t.Fatalf("ParseFeatureSet lowercase failed")
	}
	if _, ok := ParseFeatureSet("XYZ"); ok {
		t.Fatal("invalid fragment accepted")
	}
}

func TestRuleString(t *testing.T) {
	p := onlyAsEquation()
	got := p.Strata[0][0].String()
	want := "S($x) :- R($x), a.$x = $x.a."
	if got != want {
		t.Fatalf("rule renders %q, want %q", got, want)
	}
	fact := R(Pred{Name: "T", Args: []Expr{C("a")}})
	if fact.String() != "T(a)." {
		t.Fatalf("fact renders %q", fact.String())
	}
	negEq := R(Pred{Name: "A"}, Pos(Pred{Name: "T", Args: []Expr{P("x")}}), Neg(Eq{L: P("x"), R: P("y")}), Pos(Pred{Name: "T", Args: []Expr{P("y")}}))
	if !strings.Contains(negEq.String(), "$x != $y") {
		t.Fatalf("nonequality renders %q", negEq.String())
	}
}

func TestCloneIndependence(t *testing.T) {
	p := onlyAsEquation()
	q := p.Clone()
	q.Strata[0][0].Head.Name = "Z"
	q.Strata[0][0].Body[0] = Pos(Pred{Name: "Q", Args: []Expr{P("w")}})
	if p.Strata[0][0].Head.Name != "S" {
		t.Fatal("Clone shares head")
	}
	if p.Strata[0][0].Body[0].Atom.(Pred).Name != "R" {
		t.Fatal("Clone shares body")
	}
}

func TestConstsCollection(t *testing.T) {
	p := onlyAsEquation()
	cs := p.Consts()
	if len(cs) != 1 || cs[0] != value.Intern("a") {
		t.Fatalf("Consts = %v", cs)
	}
}

func TestExprKeyDistinguishes(t *testing.T) {
	pairs := [][2]Expr{
		{C("ab"), Cat(C("a"), C("b"))},
		{P("x"), A("x")},
		{Packed(Eps()), Eps()},
		{Packed(C("a")), C("a")},
		{Cat(P("x"), P("y")), P("xy")},
	}
	for i, pr := range pairs {
		if pr[0].Key() == pr[1].Key() {
			t.Errorf("pair %d: %s and %s share key", i, pr[0], pr[1])
		}
	}
	if !Cat(C("a"), P("x")).Equal(Cat(C("a"), P("x"))) {
		t.Error("Equal broken")
	}
}

// TestAccessAndJoinOrder pins the planner's pure-syntax decisions: the
// access class a predicate gets under a bound set, and the greedy
// order (best score next, ties in written order, optional pinned-first
// atom) with the bound set visit sees.
func TestAccessAndJoinOrder(t *testing.T) {
	bound := map[Var]bool{AVar("y"): true}
	for _, tc := range []struct {
		pred Pred
		want AccessClass
	}{
		{Pred{Name: "E", Args: []Expr{A("y"), P("z")}}, AccessExact},
		{Pred{Name: "E", Args: []Expr{Cat(A("y"), P("rest"))}}, AccessPrefix},
		{Pred{Name: "E", Args: []Expr{Cat(P("rest"), A("y"))}}, AccessSuffix},
		{Pred{Name: "E", Args: []Expr{Cat(A("y"), P("m"), C("a"), Packed(A("y")))}}, AccessSuffix}, // 2 trailing > 1 leading
		{Pred{Name: "E", Args: []Expr{Cat(P("l"), A("y"), P("r"))}}, AccessScan},
		{Pred{Name: "N"}, AccessScan},
	} {
		if got := tc.pred.Access(bound).Class(); got != tc.want {
			t.Errorf("%s under {@y}: class %d, want %d", tc.pred, got, tc.want)
		}
	}

	// T(@x.@y), E(@y.@z), F($w): from nothing bound everything ties and
	// the written order stands; pinning E first makes T (ground suffix)
	// beat F (nothing shared).
	preds := []Pred{
		{Name: "T", Args: []Expr{Cat(A("x"), A("y"))}},
		{Name: "E", Args: []Expr{Cat(A("y"), A("z"))}},
		{Name: "F", Args: []Expr{P("w")}},
	}
	order := func(first int) (out []int, classes []AccessClass) {
		b := map[Var]bool{}
		JoinOrder(preds, nil, b, first, func(i int, probe Pred) {
			out = append(out, i)
			classes = append(classes, probe.Access(b).Class())
		})
		return out, classes
	}
	if got, _ := order(-1); !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("greedy order = %v, want [0 1 2]", got)
	}
	got, classes := order(1)
	if !slices.Equal(got, []int{1, 0, 2}) || !slices.Equal(classes, []AccessClass{AccessScan, AccessSuffix, AccessScan}) {
		t.Errorf("order with E pinned = %v %v, want [1 0 2] [scan suffix scan]", got, classes)
	}
}
