package algebra

import (
	"fmt"

	"seqlog/internal/ast"
)

// Form classifies a rule against the six normal forms of Lemma 7.2.
type Form int

// The six forms (FormNone for rules outside the normal form).
const (
	FormNone Form = iota
	Form1         // R1(v...) :- R2(e...)            extraction
	Form2         // R1(v..., e) :- R2(v...)         computed column
	Form3         // R1(v...) :- R2(x...), R3(y...)  join
	Form4         // R1(v...) :- R2(v...), !R3(v'...) antijoin
	Form5         // R1(v'...) :- R2(v...)           projection
	Form6         // R(p) :- .                       constant
)

// FormOf classifies a rule, returning FormNone when it fits no form.
func FormOf(r ast.Rule) Form {
	if len(r.Body) == 0 {
		for _, a := range r.Head.Args {
			if !a.IsGround() {
				return FormNone
			}
		}
		return Form6
	}
	parts := r.Parts()
	if len(parts.Eqs)+len(parts.NegEqs) > 0 {
		return FormNone
	}
	pos, neg := parts.Preds, parts.NegPreds
	switch {
	case len(pos) == 1 && len(neg) == 0:
		b := pos[0]
		if distinctVars(r.Head.Args) && allPathVars(r.Head.Args) && distinctVars(b.Args) && allPathVars(b.Args) {
			if subsetVars(r.Head.Args, b.Args) {
				// Both Form5 and the identity case of Form2/1; report 5.
				return Form5
			}
		}
		// Form 2: head = body vars plus one extra column.
		if len(r.Head.Args) == len(b.Args)+1 && distinctVars(b.Args) && allPathVars(b.Args) &&
			sameVars(r.Head.Args[:len(b.Args)], b.Args) {
			return Form2
		}
		// Form 1: head is a list of distinct variables (any sort).
		if distinctVars(r.Head.Args) {
			return Form1
		}
		return FormNone
	case len(pos) == 2 && len(neg) == 0:
		if distinctVars(r.Head.Args) && allPathVars(r.Head.Args) &&
			distinctVars(pos[0].Args) && allPathVars(pos[0].Args) &&
			distinctVars(pos[1].Args) && allPathVars(pos[1].Args) &&
			subsetVars(r.Head.Args, append(append([]ast.Expr{}, pos[0].Args...), pos[1].Args...)) {
			return Form3
		}
		return FormNone
	case len(pos) == 1 && len(neg) == 1:
		if distinctVars(r.Head.Args) && allPathVars(r.Head.Args) &&
			sameVars(r.Head.Args, pos[0].Args) &&
			distinctVars(neg[0].Args) && allPathVars(neg[0].Args) &&
			subsetVars(neg[0].Args, pos[0].Args) {
			return Form4
		}
		return FormNone
	}
	return FormNone
}

func distinctVars(args []ast.Expr) bool {
	seen := map[ast.Var]bool{}
	for _, a := range args {
		v, ok := a.SoleVar()
		if !ok || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func allPathVars(args []ast.Expr) bool {
	for _, a := range args {
		v, ok := a.SoleVar()
		if !ok || v.Atomic {
			return false
		}
	}
	return true
}

func subsetVars(args, of []ast.Expr) bool {
	set := map[ast.Var]bool{}
	for _, a := range of {
		if v, ok := a.SoleVar(); ok {
			set[v] = true
		}
	}
	for _, a := range args {
		v, ok := a.SoleVar()
		if !ok || !set[v] {
			return false
		}
	}
	return true
}

func sameVars(args, of []ast.Expr) bool {
	if len(args) != len(of) {
		return false
	}
	for i := range args {
		v1, ok1 := args[i].SoleVar()
		v2, ok2 := of[i].SoleVar()
		if !ok1 || !ok2 || v1 != v2 {
			return false
		}
	}
	return true
}

// NormalForm rewrites a nonrecursive, equation-free program into an
// equivalent one where every rule has one of the six forms of
// Lemma 7.2, following the proof's four steps (the worked example of
// the paper is reproduced in the tests).
func NormalForm(p ast.Program) (ast.Program, error) {
	if p.HasRecursion() {
		return ast.Program{}, fmt.Errorf("algebra: NormalForm requires a nonrecursive program")
	}
	if p.Features().Has(ast.FeatEquations) {
		return ast.Program{}, fmt.Errorf("algebra: NormalForm requires an equation-free program (Lemma 7.2); eliminate equations first")
	}
	gen := ast.NewNameGen(p)
	out, err := p.ExpandRules(func(r ast.Rule) ([]ast.Rule, error) { return normalizeRule(r.Clone(), gen) })
	if err != nil {
		return ast.Program{}, err
	}
	if err := out.Validate(); err != nil {
		return ast.Program{}, fmt.Errorf("algebra: normal form produced an invalid program: %w", err)
	}
	return out, nil
}

// normalizeRule implements steps 1–4 of the Lemma 7.2 proof on one
// rule; all generated rules land in the same stratum as the original
// ("the main stratum").
func normalizeRule(r ast.Rule, gen *ast.NameGen) ([]ast.Rule, error) {
	if FormOf(r) != FormNone {
		return []ast.Rule{r}, nil
	}
	var acc []ast.Rule

	// Atomic variables of the main rule become path variables (their
	// extraction-rule columns hold the atomic values).
	avToPv := ast.Subst{}
	for _, v := range r.Vars() {
		if v.Atomic {
			avToPv[v] = ast.Expr{ast.VarT{V: gen.FreshVar(v.Name+"_p", false)}}
		}
	}

	parts := r.Parts()
	if len(parts.Eqs)+len(parts.NegEqs) > 0 {
		return nil, fmt.Errorf("algebra: equation in rule %s; eliminate equations first", r)
	}
	negLits := make([]ast.Pred, len(parts.NegPreds))
	for i, pr := range parts.NegPreds {
		negLits[i] = pr.MapArgs(avToPv.Apply)
	}
	// Step 1.1: one extraction rule per positive atom.
	var posAtoms []ast.Pred // the H predicates, over main-rule variables
	for _, pr := range parts.Preds {
		vars := ast.VarsOf(pr.Args...)
		h := gen.Fresh("H")
		if len(vars) == 0 {
			// H' :- P(e...).   H(a) :- H'.
			h0 := gen.Fresh("H")
			acc = append(acc,
				ast.Rule{Head: ast.Pred{Name: h0}, Body: []ast.Literal{ast.Pos(pr)}},
				ast.Rule{Head: ast.Pred{Name: h, Args: []ast.Expr{ast.C("a")}}, Body: []ast.Literal{ast.Pos(ast.Pred{Name: h0})}},
			)
			posAtoms = append(posAtoms, ast.Pred{Name: h, Args: []ast.Expr{ast.Expr{ast.VarT{V: gen.FreshVar("v", false)}}}})
			continue
		}
		headArgs := make([]ast.Expr, len(vars))
		mainArgs := make([]ast.Expr, len(vars))
		for i, v := range vars {
			headArgs[i] = ast.Expr{ast.VarT{V: v}}
			mainArgs[i] = avToPv.Apply(headArgs[i])
		}
		acc = append(acc, ast.Rule{Head: ast.Pred{Name: h, Args: headArgs}, Body: []ast.Literal{ast.Pos(pr)}})
		posAtoms = append(posAtoms, ast.Pred{Name: h, Args: mainArgs})
	}
	if len(posAtoms) == 0 {
		// Step 1.2, empty case: R(a) :- .  and use R($v).
		cst := gen.Fresh("Cst")
		acc = append(acc, ast.Rule{Head: ast.Pred{Name: cst, Args: []ast.Expr{ast.C("a")}}})
		posAtoms = append(posAtoms, ast.Pred{Name: cst, Args: []ast.Expr{ast.Expr{ast.VarT{V: gen.FreshVar("v", false)}}}})
	}

	// Step 1.2: join positive atoms pairwise until one remains.
	joined, joinRules := joinAtoms(posAtoms, gen)
	acc = append(acc, joinRules...)

	// Step 2: separate each negated literal.
	if len(negLits) > 0 {
		var hns []ast.Pred
		for _, n := range negLits {
			hn := gen.Fresh("HN")
			hnPred := ast.Pred{Name: hn, Args: joined.Args}
			// Step 3.1: generate the negated expressions by a chain of
			// form-2 rules.
			chainRules, finalPred, valueVars := buildChain(joined, n.Args, gen)
			acc = append(acc, chainRules...)
			// Step 3.2: FN(v..., v'...) :- Nm(v..., v'...), !N(v'...).
			fn := gen.Fresh("FN")
			fnPred := ast.Pred{Name: fn, Args: finalPred.Args}
			acc = append(acc, ast.Rule{
				Head: fnPred,
				Body: []ast.Literal{
					ast.Pos(finalPred),
					ast.Neg(ast.Pred{Name: n.Name, Args: valueVars, Pos: n.Pos}),
				},
			})
			// HN(v...) :- FN(v..., v'...). (form 5)
			acc = append(acc, ast.Rule{Head: hnPred, Body: []ast.Literal{ast.Pos(fnPred)}})
			hns = append(hns, hnPred)
		}
		// Step 2.2: join the HN predicates.
		var joinRules2 []ast.Rule
		joined, joinRules2 = joinAtoms(hns, gen)
		acc = append(acc, joinRules2...)
	}

	// Step 4: generate the head expressions by a chain of form-2 rules.
	head := r.Head.MapArgs(avToPv.Apply)
	chainRules, finalPred, valueVars := buildChain(joined, head.Args, gen)
	acc = append(acc, chainRules...)
	acc = append(acc, ast.Rule{Head: ast.Pred{Name: head.Name, Args: valueVars, Pos: head.Pos}, Body: []ast.Literal{ast.Pos(finalPred)}})

	for _, nr := range acc {
		if FormOf(nr) == FormNone {
			return nil, fmt.Errorf("algebra: internal: rule %s is not in normal form", nr)
		}
	}
	return acc, nil
}

// joinAtoms merges predicates pairwise with form-3 rules until one
// predicate remains, per steps 1.2 and 2.2.
func joinAtoms(atoms []ast.Pred, gen *ast.NameGen) (ast.Pred, []ast.Rule) {
	var rules []ast.Rule
	for len(atoms) > 1 {
		a, b := atoms[0], atoms[1]
		seen := map[ast.Var]bool{}
		var mergedArgs []ast.Expr
		for _, arg := range append(append([]ast.Expr{}, a.Args...), b.Args...) {
			v, _ := arg.SoleVar()
			if !seen[v] {
				seen[v] = true
				mergedArgs = append(mergedArgs, arg)
			}
		}
		h := ast.Pred{Name: gen.Fresh("H"), Args: mergedArgs}
		rules = append(rules, ast.Rule{Head: h, Body: []ast.Literal{ast.Pos(a), ast.Pos(b)}})
		atoms = append([]ast.Pred{h}, atoms[2:]...)
	}
	return atoms[0], rules
}

// buildChain produces the form-2 chains of steps 3.1 and 4: starting
// from base(v...), one rule per expression adds a computed column; it
// returns the chain rules, the final predicate, and the variables
// holding the computed values.
func buildChain(base ast.Pred, exprs []ast.Expr, gen *ast.NameGen) ([]ast.Rule, ast.Pred, []ast.Expr) {
	var rules []ast.Rule
	cur := base
	var valueVars []ast.Expr
	for _, e := range exprs {
		v := gen.FreshVar("t", false)
		next := ast.Pred{
			Name: gen.Fresh("N"),
			Args: append(append([]ast.Expr{}, cur.Args...), e),
		}
		rules = append(rules, ast.Rule{Head: next, Body: []ast.Literal{ast.Pos(cur)}})
		// In subsequent rules the new column is referred to by v.
		renamed := ast.Pred{Name: next.Name, Args: append(append([]ast.Expr{}, cur.Args...), ast.Expr{ast.VarT{V: v}})}
		cur = renamed
		valueVars = append(valueVars, ast.Expr{ast.VarT{V: v}})
	}
	return rules, cur, valueVars
}
