package rewrite

import (
	"slices"

	"seqlog/internal/ast"
)

// EliminatePositiveEquations removes every positive equation using the
// auxiliary-predicate method of Example 4.4: a rule
//
//	H :- B, e1 = e2            (vars of e1 limited by B)
//
// becomes
//
//	T(e1, v1, ..., vk) :- B.   H :- T(e2, v1, ..., vk), Negs.
//
// where v1..vk are the variables limited so far. Equations are
// processed in the limited-closure order of §2.2, so chained equations
// work; negated equations are left untouched (see
// EliminateNegatedEquations). The rewriting is valid with or without
// negation and recursion, because the auxiliary rules contain only
// positive predicates.
func EliminatePositiveEquations(p ast.Program) (ast.Program, error) {
	gen := ast.NewNameGen(p)
	return p.ExpandRules(func(r ast.Rule) ([]ast.Rule, error) { return elimPosEqRule(r.Clone(), gen) })
}

func elimPosEqRule(r ast.Rule, gen *ast.NameGen) ([]ast.Rule, error) {
	parts := r.Parts()
	if len(parts.Eqs) == 0 {
		return []ast.Rule{r}, nil
	}
	// Current positive subgoals; after each replacement this collapses
	// to the single auxiliary subgoal, which carries all bound
	// variables (the paper drops the original body, as in Example 4.4).
	cur := make([]ast.Literal, 0, len(parts.Preds))
	bound := map[ast.Var]bool{}
	for _, pp := range parts.Preds {
		cur = append(cur, ast.Pos(pp))
		for _, v := range ast.VarsOf(pp.Args...) {
			bound[v] = true
		}
	}
	// One auxiliary predicate per equation, in binding order. An
	// equation ground on both sides gets one too: that keeps the
	// rewriting uniform and correct.
	var aux []ast.Rule
	stuck := ast.BindOrder(parts.Eqs, bound, func(ground, pattern ast.Expr) bool {
		vars := varExprs(sortedVars(bound))
		name := gen.Fresh("Eq")
		aux = append(aux, ast.Rule{
			Head: ast.Pred{Name: name, Args: append([]ast.Expr{ground}, vars...)},
			Body: cur,
		})
		cur = []ast.Literal{ast.Pos(ast.Pred{Name: name, Args: append([]ast.Expr{pattern}, vars...)})}
		return true
	})
	if len(stuck) > 0 {
		return nil, errf("equations", r.String(), "positive equations cannot be ordered; rule is unsafe")
	}
	main := ast.Rule{Head: r.Head, Body: cur}
	for _, l := range r.Body {
		if l.Neg {
			main.Body = append(main.Body, l)
		}
	}
	return append(aux, main), nil
}

// EliminateNegatedEquations removes every nonequality with the
// stratum-splitting method of Lemma 4.5. For each stratum ∆ containing
// nonequalities, a new stratum ∆′ is inserted right before ∆, under a
// renaming ρ of ∆'s head relation names to fresh names:
//
//   - every rule H :- B of ∆ contributes ρ(H) :- ρ(B′) to ∆′, where B′
//     is B without its nonequalities;
//   - a rule with nonequalities e_i ≠ e'_i additionally contributes, for
//     a fresh T and each i, the rule T(v1,...,vm) :- ρ(B′), e_i = e'_i
//     (v1..vm the variables of B′);
//   - in ∆ the rule's nonequalities are replaced by ¬T(v1,...,vm).
//
// The resulting program still uses positive equations; compose with
// EliminatePositiveEquations to remove all equations (Theorem 4.7).
func EliminateNegatedEquations(p ast.Program) (ast.Program, error) {
	gen := ast.NewNameGen(p)
	var out []ast.Stratum
	for _, s := range p.Strata {
		if !slices.ContainsFunc(s, func(r ast.Rule) bool { return len(r.Parts().NegEqs) > 0 }) {
			out = append(out, s)
			continue
		}
		// Renaming of ∆'s head names to fresh names.
		rho := map[string]string{}
		for _, r := range s {
			if _, ok := rho[r.Head.Name]; !ok {
				rho[r.Head.Name] = gen.Fresh(r.Head.Name + "_pre")
			}
		}
		var pre, cur ast.Stratum
		for _, r := range s {
			// B′: each Splice moves the later nonequalities one to the left.
			posAndNegPreds, negEqs := r.Clone(), []ast.Eq(nil)
			for i, eq := range r.Eqs() {
				if r.Body[i].Neg {
					posAndNegPreds = posAndNegPreds.Splice(i - len(negEqs))
					negEqs = append(negEqs, eq)
				}
			}
			// ρ(H) :- ρ(B′), for every rule.
			pre = append(pre, posAndNegPreds.RenameRelations(rho))
			if len(negEqs) == 0 {
				cur = append(cur, r)
				continue
			}
			// v1..vm: the variables of B′ in first-occurrence order.
			vars := ast.Rule{Body: posAndNegPreds.Body}.Vars()
			tName := gen.Fresh("Neq")
			for _, eq := range negEqs {
				tRule := posAndNegPreds.RenameRelations(rho)
				tRule.Head = ast.Pred{Name: tName, Args: varExprs(vars)}
				tRule.Body = append(tRule.Body, ast.Pos(eq))
				pre = append(pre, tRule)
			}
			guarded := posAndNegPreds.Clone()
			guarded.Body = append(guarded.Body, ast.Neg(ast.Pred{Name: tName, Args: varExprs(vars)}))
			cur = append(cur, guarded)
		}
		out = append(out, pre, cur)
	}
	return wellFormed("equations", ast.Program{Strata: out}, 0)
}

// EliminateEquations removes all equations, positive and negated, per
// Theorem 4.7 (E is redundant in the presence of I): first the
// Lemma 4.5 stratum splitting for nonequalities, then the auxiliary-
// predicate folding for positive equations. The result uses
// intermediate predicates and arity; compose with EliminateArity for an
// arity-free program.
func EliminateEquations(p ast.Program) (ast.Program, error) {
	q, err := EliminateNegatedEquations(p)
	if err != nil {
		return ast.Program{}, err
	}
	return EliminatePositiveEquations(q)
}

// EliminateIntermediates folds away every intermediate predicate by
// unfolding rule bodies, per Theorem 4.16 (I is redundant in the
// presence of E and the absence of N and R). The designated output
// relation remains; a subgoal T(e1,...,en) is replaced by each defining
// body of T (variables freshly renamed) plus equations e_i = f_i
// against the defining head's components.
func EliminateIntermediates(p ast.Program, output string) (ast.Program, error) {
	f := p.Features()
	if f.Has(ast.FeatRecursion) {
		return ast.Program{}, errf("intermediates", "", "program is recursive; I is primitive in the presence of R (Theorem 5.6)")
	}
	if f.Has(ast.FeatNegation) {
		return ast.Program{}, errf("intermediates", "", "program uses negation; I is primitive in the presence of N (Theorem 5.5)")
	}
	idb := p.IDB()
	if !idb[output] {
		return ast.Program{}, errf("intermediates", "", "output relation %s is not an IDB relation", output)
	}
	gen := ast.NewNameGen(p)
	defs := map[string][]ast.Rule{}
	for _, r := range p.Rules() {
		defs[r.Head.Name] = append(defs[r.Head.Name], r)
	}
	var done []ast.Rule
	work := append([]ast.Rule{}, defs[output]...)
	guard := 0
	for len(work) > 0 {
		guard++
		if guard > 1_000_000 {
			return ast.Program{}, errf("intermediates", "", "unfolding did not terminate (program too large or recursive)")
		}
		r := work[0]
		work = work[1:]
		// Find the first intermediate subgoal.
		idx := -1
		var sub ast.Pred
		for i, l := range r.Body {
			if pr, ok := l.Atom.(ast.Pred); ok && idb[pr.Name] {
				idx, sub = i, pr
				break
			}
		}
		if idx < 0 {
			done = append(done, r)
			continue
		}
		for _, def := range defs[sub.Name] {
			fresh := renameRuleVars(def, gen)
			body := append(r.Splice(idx).Body, fresh.Body...)
			for i := range sub.Args {
				body = append(body, ast.Pos(ast.Eq{L: sub.Args[i], R: fresh.Head.Args[i]}))
			}
			work = append(work, ast.Rule{Head: r.Head, Body: body})
		}
		// No defining rules: the subgoal is unsatisfiable; drop the rule.
	}
	return wellFormed("intermediates", ast.NewProgram(done...), 0)
}
