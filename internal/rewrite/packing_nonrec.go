package rewrite

import (
	"slices"

	"seqlog/internal/ast"
	"seqlog/internal/unify"
)

// psEntry records that a rewritten relation holds, for one packing
// structure, the component tuples of the original relation's values.
type psEntry struct {
	ps   Structure
	name string // relation holding the components; arity = ps.Stars()
}

// EliminatePackingNonrecursive removes the P feature from a
// nonrecursive program computing a flat unary query, following
// Lemmas 4.10–4.13:
//
//  1. normalize to one IDB relation per stratum (and eliminate arity,
//     which the proof of Lemma 4.13 assumes);
//  2. expand references to already-rewritten relations into
//     per-packing-structure relations plus structure equations;
//  3. purify: drop rules whose positive flat predicates carry packing;
//     solve half-pure equations by one-sided nonlinear associative
//     unification, keeping only valid solutions (Lemma 4.10);
//  4. decompose pure equations and nonequalities along packing
//     structures (Lemma 4.12);
//  5. split head predicates per packing structure; the flat structure ∗
//     keeps the original relation name, so the output relation of a
//     flat query is preserved.
//
// The result may use intermediate predicates, arity and equations even
// if the input did not; compose with the other eliminations as in the
// paper's Figure 3 to reach a target fragment.
func EliminatePackingNonrecursive(p ast.Program, output string) (ast.Program, error) {
	if p.HasRecursion() {
		return ast.Program{}, errf("packing", "", "program is recursive; use SimulatePackingDoubled (Theorem 4.15)")
	}
	if !p.Features().Has(ast.FeatPacking) {
		return p.Clone(), nil
	}
	// "Since arity is redundant, we may assume that P does not use
	// arity, but feel free to use arity in the rewriting."
	var err error
	if p.Features().Has(ast.FeatArity) {
		p, err = EliminateArity(p, DefaultArityMarkers)
		if err != nil {
			return ast.Program{}, err
		}
	}
	p, err = p.SplitStrataSingleIDB()
	if err != nil {
		return ast.Program{}, err
	}
	gen := ast.NewNameGen(p)
	// structs[Q] lists the per-structure relations of rewritten IDB Q.
	structs := map[string][]psEntry{}
	// flat relations (the EDB ones to begin with): positive predicates
	// over them bind variables to flat values on flat instances.
	flat := map[string]bool{}
	for _, n := range p.EDBNames() {
		flat[n] = true
	}

	var strata []ast.Stratum
	for _, stratum := range p.Strata {
		rules, err := ast.Expand(stratum, func(rule ast.Rule) ([]ast.Rule, error) {
			return ast.Expand(expandStructRefs(rule.Clone(), 0, structs, gen), func(r ast.Rule) ([]ast.Rule, error) {
				return processPackingRule(r, flat, structs, gen)
			})
		})
		if err != nil {
			return ast.Program{}, err
		}
		// Head rewriting: register structures and rename heads.
		for i, r := range rules {
			if rules[i], err = rewriteHead(r, structs, flat, gen); err != nil {
				return ast.Program{}, err
			}
		}
		strata = append(strata, dedupeRules(rules))
	}
	return wellFormed("packing", ast.Stratified(strata...), ast.FeatureSet(ast.FeatPacking))
}

// expandStructRefs replaces positive references to already-rewritten
// relations by their per-structure relations plus a structure equation
// (step 2 above); one rule copy per combination of structures. It scans
// body literals starting at index from; replacements are final (the ∗
// structure keeps the original relation name, so a replaced literal
// must not be rescanned).
func expandStructRefs(r ast.Rule, from int, structs map[string][]psEntry, gen *ast.NameGen) []ast.Rule {
	for i := from; i < len(r.Body); i++ {
		l := r.Body[i]
		pr, ok := l.Atom.(ast.Pred)
		if !ok || l.Neg {
			continue
		}
		entries, rewritten := structs[pr.Name]
		if !rewritten {
			continue
		}
		if len(pr.Args) == 0 {
			// Nullary relations keep their name; nothing to expand.
			continue
		}
		var out []ast.Rule
		for _, ent := range entries {
			cp := r.Clone()
			if ent.ps.IsFlat() && !pr.Args[0].HasPacking() {
				// Optimization: Q_∗(e) for packing-free e needs no
				// equation; the ∗ relation keeps the name Q.
				cp.Body[i] = ast.Pos(ast.Pred{Name: ent.name, Args: []ast.Expr{pr.Args[0].Clone()}})
			} else {
				fresh := make([]ast.Expr, ent.ps.Stars())
				for k := range fresh {
					fresh[k] = ast.Expr{ast.VarT{V: gen.FreshVar("pc", false)}}
				}
				cp.Body[i] = ast.Pos(ast.Pred{Name: ent.name, Args: fresh})
				cp.Body = append(cp.Body, ast.Pos(ast.Eq{L: pr.Args[0].Clone(), R: ent.ps.Reconstruct(fresh)}))
			}
			out = append(out, expandStructRefs(cp, i+1, structs, gen)...)
		}
		// Zero entries: the relation can never hold a fact; the rule is
		// unsatisfiable.
		return out
	}
	return []ast.Rule{r}
}

// processPackingRule applies purification (Lemma 4.10), trivial-
// equation simplification, and structure decomposition (Lemma 4.12),
// including negated references to rewritten relations.
func processPackingRule(r ast.Rule, flat map[string]bool, structs map[string][]psEntry, gen *ast.NameGen) ([]ast.Rule, error) {
	work := []ast.Rule{r}
	var out []ast.Rule
	guard := 0
	for len(work) > 0 {
		guard++
		if guard > 100000 {
			return nil, errf("packing", r.String(), "purification did not terminate")
		}
		cur := work[0]
		work = work[1:]
		// Simplify first: substituting trivial bindings can move packing
		// into flat predicates, which cleaning must then see.
		cur = simplifyTrivialEquations(cur)
		cur, alive := cleanFlatPredicates(cur, flat)
		if !alive {
			continue
		}
		pure := pureVars(cur, flat)
		if idx, e1, e2 := findHalfPure(cur, pure); idx >= 0 {
			branches, err := solveHalfPure(cur, idx, e1, e2, pure, gen)
			if err != nil {
				return nil, err
			}
			work = append(work, branches...)
			continue
		}
		// No half-pure equations: all variables must be pure (§4.3.3).
		if v, ok := firstImpureVar(cur, pure); ok {
			return nil, errf("packing", cur.String(), "internal: variable %s is impure after purification", v)
		}
		for _, d := range decomposeStructures(cur, structs) {
			out = append(out, simplifyTrivialEquations(d))
		}
	}
	return out, nil
}

// cleanFlatPredicates handles packing in predicates over flat relations
// on flat instances: positive ones can never match (drop the rule);
// negated ones are always true (drop the literal).
func cleanFlatPredicates(r ast.Rule, flat map[string]bool) (ast.Rule, bool) {
	var body []ast.Literal
	for _, l := range r.Body {
		pr, ok := l.Atom.(ast.Pred)
		if !ok || !flat[pr.Name] {
			body = append(body, l)
			continue
		}
		if !slices.ContainsFunc(pr.Args, ast.Expr.HasPacking) {
			body = append(body, l)
			continue
		}
		if !l.Neg {
			return ast.Rule{}, false
		}
		// Negated: drop the literal.
	}
	return ast.Rule{Head: r.Head, Body: body}, true
}

// pureVars computes the pure variables of the rule (§4.3.3): source
// variables (in positive predicates over flat relations), closed under
// "other side of a positive equation is all-pure and packing-free" —
// §2.2's binding order, with a packed side never taken as ground.
func pureVars(r ast.Rule, flat map[string]bool) map[ast.Var]bool {
	parts := r.Parts()
	pure := map[ast.Var]bool{}
	for _, pr := range parts.Preds {
		if flat[pr.Name] {
			for _, v := range ast.VarsOf(pr.Args...) {
				pure[v] = true
			}
		}
	}
	ast.BindOrder(parts.Eqs, pure, func(from, _ ast.Expr) bool { return !from.HasPacking() })
	return pure
}

func firstImpureVar(r ast.Rule, pure map[ast.Var]bool) (ast.Var, bool) {
	for _, v := range r.Vars() {
		if !pure[v] {
			return v, true
		}
	}
	return ast.Var{}, false
}

// findHalfPure locates a positive equation with one all-pure side and
// at least one impure variable on the other; it returns the literal
// index (-1 when there is none), the pure side and the other side.
func findHalfPure(r ast.Rule, pure map[ast.Var]bool) (idx int, e1, e2 ast.Expr) {
	for i, eq := range r.Eqs() {
		lPure, rPure := eq.L.BoundIn(pure), eq.R.BoundIn(pure)
		if r.Body[i].Neg || lPure == rPure {
			continue
		}
		if lPure {
			return i, eq.L, eq.R
		}
		return i, eq.R, eq.L
	}
	return -1, nil, nil
}

// solveHalfPure implements one induction step of Lemma 4.10: linearize
// the pure side, solve the one-sided nonlinear equation by associative
// unification, and instantiate the rule with every valid solution. The
// pure set is the rule's pure variables; in r” the fresh linearization
// variables v_i are also pure, and a solution is valid when it maps
// every pure variable to a packing-free expression.
func solveHalfPure(r ast.Rule, idx int, e1, e2 ast.Expr, pure map[ast.Var]bool, gen *ast.NameGen) ([]ast.Rule, error) {
	lin, bindEqs := linearize(e1, gen)
	uniEq := unify.Equation{L: lin, R: e2}
	if !uniEq.OneSidedNonlinear() {
		return nil, errf("packing", r.String(), "internal: linearized equation %s is not one-sided nonlinear", uniEq)
	}
	res := unify.Solve(uniEq, unify.Options{AllowEmpty: true, MaxStates: 200000})
	if !res.Complete {
		return nil, errf("packing", r.String(), "associative unification did not terminate on %s", uniEq)
	}
	// r'' = r with the half-pure equation replaced by the occurrence
	// bindings u_i = v_i.
	base := r.Splice(idx)
	for _, be := range bindEqs {
		base.Body = append(base.Body, ast.Pos(be))
	}
	pureSet := map[ast.Var]bool{}
	for v := range pure {
		pureSet[v] = true
	}
	for _, be := range bindEqs {
		for _, v := range be.R.Vars() { // the fresh v_i
			pureSet[v] = true
		}
	}
	var out []ast.Rule
	for _, rho := range res.Solutions {
		if !validSolution(rho, pureSet) {
			continue
		}
		out = append(out, base.ApplySubst(rho))
	}
	return out, nil
}

func validSolution(rho ast.Subst, pure map[ast.Var]bool) bool {
	for v, e := range rho {
		if pure[v] && e.HasPacking() {
			return false
		}
	}
	return true
}

// linearize replaces every variable occurrence in e with a fresh
// variable of the same sort, returning the linearized expression and
// the binding equations u_i = v_i.
func linearize(e ast.Expr, gen *ast.NameGen) (ast.Expr, []ast.Eq) {
	var eqs []ast.Eq
	out := linearizeExpr(e, gen, &eqs)
	return out, eqs
}

func linearizeExpr(e ast.Expr, gen *ast.NameGen, eqs *[]ast.Eq) ast.Expr {
	out := make(ast.Expr, 0, len(e))
	for _, t := range e {
		switch x := t.(type) {
		case ast.VarT:
			nv := gen.FreshVar("lv", x.V.Atomic)
			*eqs = append(*eqs, ast.Eq{
				L: ast.Expr{ast.VarT{V: x.V}},
				R: ast.Expr{ast.VarT{V: nv}},
			})
			out = append(out, ast.VarT{V: nv})
		case ast.Pack:
			out = append(out, ast.Pack{E: linearizeExpr(x.E, gen, eqs)})
		default:
			out = append(out, t)
		}
	}
	return out
}

// decomposeStructures applies Lemma 4.12 and the negated-reference step
// of Lemma 4.13 to a rule whose variables are all pure. It returns the
// resulting rules (one per nonequality disjunct), none when the rule
// is unsatisfiable on flat instances.
func decomposeStructures(r ast.Rule, structs map[string][]psEntry) []ast.Rule {
	var body []ast.Literal
	var splits [][]ast.Literal // alternatives from nonequalities
	for _, l := range r.Body {
		switch x := l.Atom.(type) {
		case ast.Eq:
			if !x.L.HasPacking() && !x.R.HasPacking() {
				body = append(body, l)
				continue
			}
			dl, dr := StructureOf(x.L), StructureOf(x.R)
			if !dl.Equal(dr) {
				if l.Neg {
					continue // always true on flat instances
				}
				return nil // unsatisfiable
			}
			compsL, compsR := Components(x.L), Components(x.R)
			if !l.Neg {
				for i := range compsL {
					body = append(body, ast.Pos(ast.Eq{L: compsL[i], R: compsR[i]}))
				}
				continue
			}
			// Negated: disjunction of component nonequalities.
			var alts []ast.Literal
			for i := range compsL {
				alts = append(alts, ast.Neg(ast.Eq{L: compsL[i], R: compsR[i]}))
			}
			splits = append(splits, alts)
		case ast.Pred:
			if !l.Neg {
				body = append(body, l)
				continue
			}
			entries, rewritten := structs[x.Name]
			if !rewritten || len(x.Args) == 0 {
				body = append(body, l)
				continue
			}
			d := StructureOf(x.Args[0])
			matched := false
			for _, ent := range entries {
				if ent.ps.Equal(d) {
					comps := Components(x.Args[0])
					body = append(body, ast.Neg(ast.Pred{Name: ent.name, Args: comps}))
					matched = true
					break
				}
			}
			if !matched {
				continue // no structure matches: literal is true on flat instances
			}
		}
	}
	return disjoin(ast.Rule{Head: r.Head, Body: body}, splits)
}

// rewriteHead splits the head per its packing structure (Lemma 4.13),
// registering the structure. The flat structure keeps the relation
// name, so flat query outputs stay where callers expect them.
func rewriteHead(r ast.Rule, structs map[string][]psEntry, flat map[string]bool, gen *ast.NameGen) (ast.Rule, error) {
	h := r.Head
	if len(h.Args) == 0 {
		if !hasEntry(structs, h.Name) {
			structs[h.Name] = append(structs[h.Name], psEntry{ps: nil, name: h.Name})
		}
		return r, nil
	}
	if len(h.Args) > 1 {
		return ast.Rule{}, errf("packing", r.String(), "internal: arity slipped through")
	}
	d := StructureOf(h.Args[0])
	name := ""
	for _, ent := range structs[h.Name] {
		if ent.ps != nil && ent.ps.Equal(d) {
			name = ent.name
			break
		}
	}
	if name == "" {
		if d.IsFlat() {
			name = h.Name
			flat[name] = true
		} else {
			name = gen.Fresh(h.Name + "_ps")
			flat[name] = true // components are packing-free
		}
		structs[h.Name] = append(structs[h.Name], psEntry{ps: d, name: name})
	}
	comps := Components(h.Args[0])
	return ast.Rule{Head: ast.Pred{Name: name, Args: comps}, Body: r.Body}, nil
}

func hasEntry(structs map[string][]psEntry, name string) bool {
	_, ok := structs[name]
	return ok
}

// simplifyTrivialEquations substitutes away positive equations of the
// form v = e where v is a variable not occurring in e (and e is a
// single atomic term when v is atomic). This keeps rewritten programs
// close to the paper's hand-derived outputs (Example 4.14).
func simplifyTrivialEquations(r ast.Rule) ast.Rule {
next:
	for {
		for i, eq := range r.Eqs() {
			if r.Body[i].Neg {
				continue
			}
			for _, side := range [2][2]ast.Expr{{eq.L, eq.R}, {eq.R, eq.L}} {
				if sub, ok := trivialBinding(side[0], side[1]); ok {
					r = r.Splice(i).ApplySubst(sub)
					continue next
				}
			}
		}
		return r
	}
}

func trivialBinding(side, other ast.Expr) (ast.Subst, bool) {
	v, ok := side.SoleVar()
	if !ok || slices.Contains(other.Vars(), v) {
		return nil, false
	}
	if v.Atomic {
		if len(other) != 1 {
			return nil, false
		}
		switch o := other[0].(type) {
		case ast.Const:
		case ast.VarT:
			if !o.V.Atomic {
				return nil, false
			}
		default:
			return nil, false
		}
	}
	return ast.Subst{v: other}, true
}
