package rewrite

import (
	"fmt"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/value"
)

// ToClassical translates a Sequence Datalog program (without packing
// and with monadic predicates) into a classical program over the
// two-bounded encoding of Lemma 5.4: every relation R is replaced by a
// unary R1 (length-one paths) and a binary R2 (length-two paths), path
// variables disappear, and all remaining terms are atomic. The
// translation is faithful on two-bounded instances — instances in
// which every relation only ever holds paths of length one or two —
// provided the program also only derives such paths (the lemma's
// premise).
//
// Classical equalities between atomic terms are resolved by
// substitution; atomic nonequalities remain (they are the classical
// "≠" built-in).
func ToClassical(p ast.Program) (ast.Program, error) {
	f := p.Features()
	if f.Has(ast.FeatPacking) {
		return ast.Program{}, errf("classical", "", "packing is not allowed in Lemma 5.4 (fragment {E, N, R})")
	}
	if f.Has(ast.FeatArity) {
		return ast.Program{}, errf("classical", "", "arity > 1 is not allowed in Lemma 5.4 (monadic schemas)")
	}
	gen := ast.NewNameGen(p)
	out, _ := p.ExpandRules(func(r ast.Rule) ([]ast.Rule, error) { // neither step can fail
		var rules []ast.Rule
		for _, er := range expandPathVars(r.Clone(), gen) {
			rules = append(rules, classicalize(er)...)
		}
		return rules, nil
	})
	for i, s := range out.Strata {
		out.Strata[i] = dedupeRules(s)
	}
	return wellFormed("classical", out, 0)
}

// expandPathVars replaces every path variable by ε, @x, or @x1·@x2
// (three rule versions per variable), per the proof of Lemma 5.4.
func expandPathVars(r ast.Rule, gen *ast.NameGen) []ast.Rule {
	var pathVar *ast.Var
	for _, v := range r.Vars() {
		if !v.Atomic {
			pathVar = &v
			break
		}
	}
	if pathVar == nil {
		return []ast.Rule{r}
	}
	a1 := gen.FreshVar("c", true)
	a2 := gen.FreshVar("c", true)
	subs := []ast.Subst{
		{*pathVar: ast.Eps()},
		{*pathVar: ast.Expr{ast.VarT{V: a1}}},
		{*pathVar: ast.Cat(ast.Expr{ast.VarT{V: a1}}, ast.Expr{ast.VarT{V: a2}})},
	}
	var out []ast.Rule
	for _, sub := range subs {
		out = append(out, expandPathVars(r.ApplySubst(sub), gen)...)
	}
	return out
}

// classicalize resolves atomic equations, drops unsatisfiable or
// vacuous literals, and renames predicates to their R1/R2 forms;
// nonequalities between longer sequences split the rule into copies.
// No rules means the rule can never fire on two-bounded instances.
func classicalize(r ast.Rule) []ast.Rule {
	// Resolve positive equations by substitution or constant checks,
	// the first one left each time, until none is.
resolve:
	for {
		for i, eq := range r.Eqs() {
			if r.Body[i].Neg {
				continue
			}
			if len(eq.L) != len(eq.R) {
				return nil // unsatisfiable lengths
			}
			if len(eq.L) == 0 {
				r = r.Splice(i)
				continue resolve
			}
			// Split multi-atom equations into the first pair plus rest.
			sub, ok, sat := resolveAtomicEq(ast.Eq{L: eq.L[:1], R: eq.R[:1]})
			if !sat {
				return nil
			}
			var rest []ast.Literal
			if len(eq.L) > 1 {
				rest = []ast.Literal{ast.Pos(ast.Eq{L: eq.L[1:], R: eq.R[1:]})}
			}
			r = r.Splice(i, rest...)
			if ok {
				r = r.ApplySubst(sub)
			}
			continue resolve
		}
		break
	}
	// Predicates: rename by length; drop impossible/vacuous ones.
	// Equations (only nonequalities are left): drop vacuous ones, keep
	// atomic ones; a nonequality between longer atomic sequences is a
	// disjunction of position-wise nonequalities, so the rule splits into
	// copies.
	head, ok := renameByLength(r.Head)
	if !ok {
		return nil
	}
	out := ast.Rule{Head: head}
	var splits [][]ast.Literal
	for _, l := range r.Body {
		switch x := l.Atom.(type) {
		case ast.Pred:
			np, possible := renameByLength(x)
			if !possible && !l.Neg {
				return nil
			}
			if possible { // a negated impossible predicate is always true
				out.Body = append(out.Body, ast.Literal{Neg: l.Neg, Atom: np})
			}
		case ast.Eq:
			switch {
			case len(x.L) != len(x.R): // always true on atomic sequences
			case len(x.L) == 0:
				return nil // eps != eps never holds
			case len(x.L) == 1:
				c1, ok1 := x.L[0].(ast.Const)
				c2, ok2 := x.R[0].(ast.Const)
				if ok1 && ok2 && c1.A == c2.A {
					return nil
				}
				if !ok1 || !ok2 { // distinct constants are always unequal
					out.Body = append(out.Body, l)
				}
			default:
				var alts []ast.Literal
				for i := range x.L {
					alts = append(alts, ast.Neg(ast.Eq{L: x.L[i : i+1], R: x.R[i : i+1]}))
				}
				splits = append(splits, alts)
			}
		}
	}
	return disjoin(out, splits)
}

// resolveAtomicEq handles an equation between single atomic terms:
// it returns a substitution (when a variable is bound), ok=false when
// nothing to substitute (both constants, equal), sat=false when
// unsatisfiable.
func resolveAtomicEq(eq ast.Eq) (ast.Subst, bool, bool) {
	l, r := eq.L[0], eq.R[0]
	lv, lIsVar := l.(ast.VarT)
	rv, rIsVar := r.(ast.VarT)
	switch {
	case lIsVar && rIsVar:
		if lv.V == rv.V {
			return nil, false, true
		}
		return ast.Subst{lv.V: ast.Expr{rv}}, true, true
	case lIsVar:
		return ast.Subst{lv.V: ast.Expr{r}}, true, true
	case rIsVar:
		return ast.Subst{rv.V: ast.Expr{l}}, true, true
	default:
		lc := l.(ast.Const)
		rc := r.(ast.Const)
		return nil, false, lc.A == rc.A
	}
}

// renameByLength maps P(e) to P1(a) or P2(a1, a2) by the length of e;
// nullary predicates keep their name; lengths 0 (for unary) and > 2
// are impossible on two-bounded instances.
func renameByLength(p ast.Pred) (ast.Pred, bool) {
	if len(p.Args) == 0 {
		return p, true
	}
	e := p.Args[0]
	switch len(e) {
	case 1:
		return ast.Pred{Name: p.Name + "1", Args: []ast.Expr{e}}, true
	case 2:
		return ast.Pred{Name: p.Name + "2", Args: []ast.Expr{e[:1], e[1:]}}, true
	default:
		return ast.Pred{}, false
	}
}

// TwoBounded reports whether the instance only holds paths of length
// one or two (the premise of Lemma 5.4).
func TwoBounded(i *instance.Instance) bool {
	for _, n := range i.Names() {
		for _, t := range i.Relation(n).Tuples() {
			for _, p := range t {
				if len(p) < 1 || len(p) > 2 {
					return false
				}
			}
		}
	}
	return true
}

// EncodeTwoBounded builds the classical instance Ic of Lemma 5.4:
// R1 holds the atoms a with a ∈ I(R), R2 the pairs (a, b) with
// a·b ∈ I(R).
func EncodeTwoBounded(i *instance.Instance) (*instance.Instance, error) {
	out := instance.New()
	for _, n := range i.Names() {
		rel := i.Relation(n)
		if rel.Arity == 0 {
			if rel.Len() > 0 {
				out.AddFact(n)
			}
			continue
		}
		if rel.Arity > 1 {
			return nil, fmt.Errorf("rewrite: EncodeTwoBounded: relation %s has arity %d", n, rel.Arity)
		}
		out.Ensure(n+"1", 1)
		out.Ensure(n+"2", 2)
		for _, t := range rel.Tuples() {
			p := t[0]
			switch len(p) {
			case 1:
				out.Add(n+"1", instance.Tuple{value.Path{p[0]}})
			case 2:
				out.Add(n+"2", instance.Tuple{value.Path{p[0]}, value.Path{p[1]}})
			default:
				return nil, fmt.Errorf("rewrite: EncodeTwoBounded: path %s has length %d", p, len(p))
			}
		}
	}
	return out, nil
}

// DecodeTwoBounded inverts EncodeTwoBounded for the named relations:
// S1(a) becomes S(a) and S2(a,b) becomes S(a·b).
func DecodeTwoBounded(classical *instance.Instance, names ...string) *instance.Instance {
	out := instance.New()
	for _, n := range names {
		if r0 := classical.Relation(n); r0 != nil && r0.Arity == 0 {
			if r0.Len() > 0 {
				out.AddFact(n)
			} else {
				out.Ensure(n, 0)
			}
			continue
		}
		out.Ensure(n, 1)
		if r1 := classical.Relation(n + "1"); r1 != nil {
			for _, t := range r1.Tuples() {
				out.AddPath(n, t[0])
			}
		}
		if r2 := classical.Relation(n + "2"); r2 != nil {
			for _, t := range r2.Tuples() {
				out.AddPath(n, value.Concat(t[0], t[1]))
			}
		}
		if r0 := classical.Relation(n); r0 != nil && r0.Arity == 0 && r0.Len() > 0 {
			out.AddFact(n)
		}
	}
	return out
}
