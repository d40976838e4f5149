package eval_test

// This file is the reference semantics the evaluator is checked
// against. It is written from the paper's definition (§2.3) and shares
// no code with the engine: it sits outside package eval, and
// TestSpecImports holds its imports to ast, value, instance, unify and
// the standard library. Paths are matched by associative unification
// (internal/unify, pig-pug), not by the engine's slot matcher; the
// instance is only a set of facts to it.

import (
	"fmt"
	"maps"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/unify"
	"seqlog/internal/value"
)

// specMaxRounds bounds the naive rounds of one stratum; every program
// specEval is given terminates well within it.
const specMaxRounds = 1000

// specEval computes P(I) by naive evaluation, stratum by stratum as the
// program writes them: a round instantiates every rule of the stratum
// over the whole instance as it stood when the round began, and the
// stratum is done when a round adds nothing.
func specEval(prog ast.Program, edb *instance.Instance) (*instance.Instance, error) {
	inst := edb.Clone()
	for si, stratum := range prog.Strata {
		for round := 0; ; round++ {
			if round == specMaxRounds {
				return nil, fmt.Errorf("stratum %d: no fixpoint after %d rounds", si+1, round)
			}
			type fact struct {
				name string
				t    instance.Tuple
			}
			var derived []fact
			for _, r := range stratum {
				subs, err := specBody(r, inst)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", r, err)
				}
				for _, s := range subs {
					t := make(instance.Tuple, len(r.Head.Args))
					for i, a := range r.Head.Args {
						t[i] = s.Apply(a).Eval()
					}
					derived = append(derived, fact{r.Head.Name, t})
				}
			}
			grew := false
			for _, f := range derived {
				grew = inst.Add(f.name, f.t) || grew
			}
			if !grew {
				break
			}
		}
	}
	return inst, nil
}

// specBody returns every substitution of the rule's variables that
// satisfies its body in inst (§2.2's reading): the positive predicates
// in body order, each argument unified with the facts' paths; then the
// equations in ast.BindOrder, each solved once one side is ground;
// then the negated predicates and the nonequalities, checked ground.
func specBody(r ast.Rule, inst *instance.Instance) ([]ast.Subst, error) {
	parts := r.Parts()
	subs := []ast.Subst{{}}
	bound := map[ast.Var]bool{}
	for _, p := range parts.Preds {
		var facts []instance.Tuple
		if rel := inst.Relation(p.Name); rel != nil {
			facts = rel.Tuples()
		}
		var next []ast.Subst
		for _, s := range subs {
			for _, t := range facts {
				if len(t) != len(p.Args) {
					return nil, fmt.Errorf("%s has a fact of arity %d", p, len(t))
				}
				ext := []ast.Subst{s}
				for i, a := range p.Args {
					var err error
					if ext, err = specSolve(ext, a, t[i]); err != nil {
						return nil, err
					}
				}
				next = append(next, ext...)
			}
		}
		subs = next
		for _, a := range p.Args {
			for _, v := range a.Vars() {
				bound[v] = true
			}
		}
	}
	var order [][2]ast.Expr // (ground, pattern)
	if stuck := ast.BindOrder(parts.Eqs, bound, func(ground, pattern ast.Expr) bool {
		order = append(order, [2]ast.Expr{ground, pattern})
		return true
	}); len(stuck) > 0 {
		return nil, fmt.Errorf("equation %s never has a ground side", stuck[0])
	}
	for _, eq := range order {
		var next []ast.Subst
		for _, s := range subs {
			ext, err := specSolve([]ast.Subst{s}, eq[1], s.Apply(eq[0]).Eval())
			if err != nil {
				return nil, err
			}
			next = append(next, ext...)
		}
		subs = next
	}
	out := subs[:0]
candidates:
	for _, s := range subs {
		for _, p := range parts.NegPreds {
			t := make(instance.Tuple, len(p.Args))
			for i, a := range p.Args {
				t[i] = s.Apply(a).Eval()
			}
			if inst.Has(p.Name, t) {
				continue candidates
			}
		}
		for _, e := range parts.NegEqs {
			if s.Apply(e.L).Eval().Equal(s.Apply(e.R).Eval()) {
				continue candidates
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// specSolve extends each substitution by every solution of pattern =
// path (the pattern under the substitution, ε allowed for path
// variables). One side is ground, so pig-pug's solution set is finite
// and complete; a result that says otherwise, or a solution that does
// not make the pattern the path, is an error, never "no match".
func specSolve(subs []ast.Subst, pattern ast.Expr, path value.Path) ([]ast.Subst, error) {
	var out []ast.Subst
	for _, s := range subs {
		eq := unify.Equation{L: s.Apply(pattern), R: ast.FromPath(path)}
		res := unify.Solve(eq, unify.Options{AllowEmpty: true})
		if !res.Complete {
			return nil, fmt.Errorf("unify: incomplete solution set for %s", eq)
		}
		for _, sol := range res.Solutions {
			ext := maps.Clone(s)
			maps.Copy(ext, sol)
			if got := ext.Apply(pattern); !got.IsGround() || !got.Eval().Equal(path) {
				return nil, fmt.Errorf("unify: solution %s of %s gives %s", sol, eq, got)
			}
			out = append(out, ext)
		}
	}
	return out, nil
}
