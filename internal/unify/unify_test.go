package unify

import (
	"math/rand"
	"sort"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/eval"
	"seqlog/internal/value"
)

// eq builds an equation from two expressions.
func eqn(l, r ast.Expr) Equation { return Equation{L: l, R: r} }

func solutionStrings(sols []ast.Subst) []string {
	out := make([]string, len(sols))
	for i, s := range sols {
		out[i] = s.String()
	}
	sort.Strings(out)
	return out
}

func TestFigure2(t *testing.T) {
	// The paper's Example 4.8 / Figure 2:
	//   $x.<@y.$z>.@w = $u.$v.$u
	lhs := ast.Cat(ast.P("x"), ast.Packed(ast.Cat(ast.A("y"), ast.P("z"))), ast.A("w"))
	rhs := ast.Cat(ast.P("u"), ast.P("v"), ast.P("u"))
	e := eqn(lhs, rhs)
	if !e.OneSidedNonlinear() {
		t.Fatal("Figure 2 equation must be one-sided nonlinear")
	}
	res := Solve(e, Options{CollectGraph: true})
	if !res.Complete {
		t.Fatal("solver must terminate on the Figure 2 equation")
	}
	got := solutionStrings(res.Solutions)
	want := []string{
		"{$u->$x.<@y.$z>.@w, $x->$x.<@y.$z>.@w.$v.$x}",
		"{$u-><@y.$z>.@w, $x-><@y.$z>.@w.$v}",
		"{$u->@w, $v->$x.<@y.$z>, $x->@w.$x}",
		"{$u->@w, $v-><@y.$z>, $x->@w}",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d solutions %v, want 4:\n%v", len(got), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("solutions differ:\n got %v\nwant %v", got, want)
		}
	}
	// All are symbolic solutions: applying one to both sides yields
	// syntactically equal expressions.
	for _, s := range res.Solutions {
		if !s.Apply(e.L).Equal(s.Apply(e.R)) {
			t.Fatalf("solution %s does not verify", s)
		}
	}
	// Graph sanity: it has success and fail leaves and a DOT rendering.
	var succ, fail int
	for _, n := range res.Graph.Nodes {
		if n.Success {
			succ++
		}
		if n.Fail {
			fail++
		}
	}
	if succ != 1 || fail == 0 {
		t.Fatalf("graph leaves: %d success, %d fail", succ, fail)
	}
	if dot := res.Graph.DOT(); len(dot) < 100 {
		t.Fatalf("DOT too short:\n%s", dot)
	}
}

func TestOnlyAsEquationCycles(t *testing.T) {
	// $x.a = a.$x is the paper's classic nonterminating example.
	e := eqn(ast.Cat(ast.P("x"), ast.C("a")), ast.Cat(ast.C("a"), ast.P("x")))
	if e.OneSidedNonlinear() {
		t.Fatal("$x occurs on both sides; not one-sided nonlinear")
	}
	res := Solve(e, Options{})
	if res.Complete {
		t.Fatal("pig-pug cannot be complete on $x.a = a.$x")
	}
	got := solutionStrings(res.Solutions)
	if len(got) < 1 || got[0] != "{$x->a}" {
		t.Fatalf("solutions = %v, want at least {$x->a}", got)
	}
}

func TestSimpleWordEquation(t *testing.T) {
	// $x.$y = a.b
	e := eqn(ast.Cat(ast.P("x"), ast.P("y")), ast.Cat(ast.C("a"), ast.C("b")))
	res := Solve(e, Options{})
	if !res.Complete {
		t.Fatal("must be complete")
	}
	got := solutionStrings(res.Solutions)
	if len(got) != 1 || got[0] != "{$x->a, $y->b}" {
		t.Fatalf("nonempty solutions = %v", got)
	}
	resE := Solve(e, Options{AllowEmpty: true})
	gotE := solutionStrings(resE.Solutions)
	wantE := []string{
		"{$x->a, $y->b}",
		"{$x->a.b, $y->eps}",
		"{$x->eps, $y->a.b}",
	}
	if len(gotE) != 3 {
		t.Fatalf("empty-closure solutions = %v, want %v", gotE, wantE)
	}
	for i := range wantE {
		if gotE[i] != wantE[i] {
			t.Fatalf("empty-closure solutions = %v, want %v", gotE, wantE)
		}
	}
}

func TestAtomicVariableRules(t *testing.T) {
	// @x.$y = a.b.c  ->  @x = a, $y = b.c
	e := eqn(ast.Cat(ast.A("x"), ast.P("y")), ast.Cat(ast.C("a"), ast.C("b"), ast.C("c")))
	res := Solve(e, Options{})
	got := solutionStrings(res.Solutions)
	if len(got) != 1 || got[0] != "{@x->a, $y->b.c}" {
		t.Fatalf("solutions = %v", got)
	}
	// Rule (h): @x = @y.
	e2 := eqn(ast.A("x"), ast.A("y"))
	res2 := Solve(e2, Options{})
	got2 := solutionStrings(res2.Solutions)
	if len(got2) != 1 || got2[0] != "{@x->@y}" {
		t.Fatalf("rule (h) solutions = %v", got2)
	}
	// Atomic variable cannot match a packed value.
	e3 := eqn(ast.A("x"), ast.Packed(ast.C("a")))
	res3 := Solve(e3, Options{})
	if len(res3.Solutions) != 0 || !res3.Complete {
		t.Fatalf("@x = <a> should fail: %v", solutionStrings(res3.Solutions))
	}
	// Atomic variable vs constant inside a longer equation.
	e4 := eqn(ast.Cat(ast.C("a"), ast.A("x")), ast.Cat(ast.A("x"), ast.C("a")))
	res4 := Solve(e4, Options{})
	got4 := solutionStrings(res4.Solutions)
	if len(got4) != 1 || got4[0] != "{@x->a}" {
		t.Fatalf("a.@x = @x.a solutions = %v", got4)
	}
}

func TestPackingRuleK(t *testing.T) {
	// <$x>.$y = <a.$z>.c
	e := eqn(
		ast.Cat(ast.Packed(ast.P("x")), ast.P("y")),
		ast.Cat(ast.Packed(ast.Cat(ast.C("a"), ast.P("z"))), ast.C("c")),
	)
	res := Solve(e, Options{})
	if !res.Complete {
		t.Fatal("must be complete")
	}
	got := solutionStrings(res.Solutions)
	if len(got) != 1 || got[0] != "{$x->a.$z, $y->c}" {
		t.Fatalf("solutions = %v", got)
	}
	// Mismatched packing structures fail.
	e2 := eqn(ast.Packed(ast.P("x")), ast.C("a"))
	if res := Solve(e2, Options{}); len(res.Solutions) != 0 {
		t.Fatalf("<$x> = a should fail: %v", solutionStrings(res.Solutions))
	}
	// Identical packs cancel.
	e3 := eqn(
		ast.Cat(ast.Packed(ast.P("x")), ast.C("a")),
		ast.Cat(ast.Packed(ast.P("x")), ast.P("y")),
	)
	res3 := Solve(e3, Options{})
	got3 := solutionStrings(res3.Solutions)
	if len(got3) != 1 || got3[0] != "{$y->a}" {
		t.Fatalf("solutions = %v", got3)
	}
}

func TestPathVarVersusPack(t *testing.T) {
	// $x = <a>.<b>  (AllowEmpty not needed: $x nonempty).
	e := eqn(ast.P("x"), ast.Cat(ast.Packed(ast.C("a")), ast.Packed(ast.C("b"))))
	res := Solve(e, Options{})
	got := solutionStrings(res.Solutions)
	if len(got) != 1 || got[0] != "{$x-><a>.<b>}" {
		t.Fatalf("solutions = %v", got)
	}
}

func TestOneSidedNonlinear(t *testing.T) {
	cases := []struct {
		l, r ast.Expr
		want bool
	}{
		{ast.Cat(ast.P("x"), ast.C("a")), ast.Cat(ast.C("a"), ast.P("x")), false},
		{ast.Cat(ast.P("x"), ast.P("x")), ast.Cat(ast.P("u"), ast.P("v")), true},
		{ast.Cat(ast.P("x"), ast.P("y")), ast.Cat(ast.P("u"), ast.P("u")), true},
		{ast.Cat(ast.P("x"), ast.P("x")), ast.Cat(ast.P("u"), ast.P("u")), true},
		{ast.P("x"), ast.Packed(ast.P("x")), false},
		{ast.Cat(ast.P("x"), ast.Packed(ast.Cat(ast.A("y"), ast.P("z"))), ast.A("w")), ast.Cat(ast.P("u"), ast.P("v"), ast.P("u")), true},
	}
	for i, c := range cases {
		if got := eqn(c.l, c.r).OneSidedNonlinear(); got != c.want {
			t.Errorf("case %d (%s = %s): got %v, want %v", i, c.l, c.r, got, c.want)
		}
	}
}

// atomicBindingsValid reports whether every atomic variable is bound to
// one constant or one atomic variable.
func atomicBindingsValid(s ast.Subst) bool {
	for v, e := range s {
		if !v.Atomic {
			continue
		}
		if len(e) != 1 {
			return false
		}
		switch t := e[0].(type) {
		case ast.Const:
		case ast.VarT:
			if !t.V.Atomic {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func TestAllSolutionsVerify(t *testing.T) {
	eqs := []Equation{
		eqn(ast.Cat(ast.P("x"), ast.P("y")), ast.Cat(ast.C("a"), ast.C("b"), ast.C("c"))),
		eqn(ast.Cat(ast.P("x"), ast.C("a"), ast.P("y")), ast.Cat(ast.P("u"), ast.P("u"))),
		eqn(ast.Cat(ast.A("p"), ast.P("x")), ast.Cat(ast.P("u"), ast.A("q"))),
		eqn(ast.Cat(ast.Packed(ast.P("a")), ast.P("x")), ast.Cat(ast.P("u"), ast.Packed(ast.P("b")))),
	}
	for _, e := range eqs {
		for _, mode := range []bool{false, true} {
			res := Solve(e, Options{AllowEmpty: mode})
			for _, s := range res.Solutions {
				if !s.Apply(e.L).Equal(s.Apply(e.R)) {
					t.Errorf("%s: solution %s does not verify (allowEmpty=%v)", e, s, mode)
				}
				if !atomicBindingsValid(s) {
					t.Errorf("%s: solution %s binds an atomic variable to a non-atomic expression", e, s)
				}
			}
		}
	}
}

// randomGroundPath builds a random flat path over {a,b}.
func randomGroundPath(r *rand.Rand, maxLen int) value.Path {
	n := r.Intn(maxLen + 1)
	p := make(value.Path, n)
	for i := range p {
		p[i] = value.Intern([]string{"a", "b"}[r.Intn(2)])
	}
	return p
}

// TestCompletenessSampling: for random one-sided nonlinear equations and
// random ground valuations that solve them, some symbolic solution must
// cover the valuation.
func TestCompletenessSampling(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	// Patterns: LHS linear with distinct vars; RHS ground or repeats its
	// own vars. One-sided nonlinear by construction.
	mkLHS := func() ast.Expr {
		parts := []ast.Expr{ast.P("x1"), ast.C("a"), ast.P("x2")}
		if r.Intn(2) == 0 {
			parts = append(parts, ast.A("x3"))
		}
		return ast.Cat(parts...)
	}
	mkRHS := func() ast.Expr {
		switch r.Intn(3) {
		case 0:
			return ast.Cat(ast.P("y"), ast.P("y"))
		case 1:
			return ast.Cat(ast.C("a"), ast.P("y"), ast.C("b"))
		default:
			return ast.Cat(ast.P("y"), ast.C("a"), ast.P("y"))
		}
	}
	for trial := 0; trial < 60; trial++ {
		e := eqn(mkLHS(), mkRHS())
		if !e.OneSidedNonlinear() {
			t.Fatalf("generator produced non-one-sided equation %s", e)
		}
		res := Solve(e, Options{AllowEmpty: true})
		if !res.Complete {
			t.Fatalf("solver incomplete on one-sided nonlinear %s", e)
		}
		vars := e.Vars()
		// Random ground valuations; keep the ones that solve e.
		for i := 0; i < 200; i++ {
			nu := map[ast.Var]value.Path{}
			sub := ast.Subst{}
			for _, v := range vars {
				if v.Atomic {
					p := value.Path{value.Intern([]string{"a", "b"}[r.Intn(2)])}
					nu[v] = p
					sub[v] = ast.FromPath(p)
				} else {
					p := randomGroundPath(r, 3)
					nu[v] = p
					sub[v] = ast.FromPath(p)
				}
			}
			if !sub.Apply(e.L).Eval().Equal(sub.Apply(e.R).Eval()) {
				continue
			}
			if !covered(res.Solutions, vars, nu) {
				t.Fatalf("valuation %v solves %s but is not covered by %v",
					nu, e, solutionStrings(res.Solutions))
			}
		}
	}
}

// covered reports whether some symbolic solution generalizes nu: there
// is a grounding of the solution's images reproducing nu exactly.
func covered(sols []ast.Subst, vars []ast.Var, nu map[ast.Var]value.Path) bool {
	for _, s := range sols {
		patterns := make([]ast.Expr, len(vars))
		paths := make([]value.Path, len(vars))
		for i, v := range vars {
			if img, ok := s[v]; ok {
				patterns[i] = img
			} else {
				patterns[i] = ast.Expr{ast.VarT{V: v}}
			}
			paths[i] = nu[v]
		}
		env := eval.NewEnv()
		found := false
		env.MatchTuple(patterns, paths, func() { found = true })
		if found {
			return true
		}
	}
	return false
}

func TestMaxStatesTruncation(t *testing.T) {
	// A both-sided nonlinear equation that blows up; the budget must
	// stop it and report incompleteness.
	e := eqn(
		ast.Cat(ast.P("x"), ast.P("y"), ast.P("x")),
		ast.Cat(ast.P("y"), ast.C("a"), ast.P("x"), ast.C("b"), ast.P("y")),
	)
	res := Solve(e, Options{MaxStates: 50})
	if res.Complete {
		t.Fatal("expected truncation")
	}
}

func TestEpsilonEquation(t *testing.T) {
	res := Solve(eqn(ast.Eps(), ast.Eps()), Options{})
	if len(res.Solutions) != 1 || len(res.Solutions[0]) != 0 {
		t.Fatalf("eps = eps solutions: %v", solutionStrings(res.Solutions))
	}
	res2 := Solve(eqn(ast.Eps(), ast.C("a")), Options{})
	if len(res2.Solutions) != 0 {
		t.Fatal("eps = a must fail")
	}
	// eps = $x succeeds only via the empty closure.
	res3 := Solve(eqn(ast.Eps(), ast.P("x")), Options{})
	if len(res3.Solutions) != 0 {
		t.Fatal("eps = $x must fail in nonempty mode")
	}
	res4 := Solve(eqn(ast.Eps(), ast.P("x")), Options{AllowEmpty: true})
	got := solutionStrings(res4.Solutions)
	if len(got) != 1 || got[0] != "{$x->eps}" {
		t.Fatalf("eps = $x with empties: %v", got)
	}
}
