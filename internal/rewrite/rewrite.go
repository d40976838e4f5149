// Package rewrite implements the paper's redundancy theorems as program
// transformations:
//
//   - EliminateArity        — Theorem 4.2 via the Lemma 4.1 encoding
//   - EliminatePositiveEquations — the Example 4.4 auxiliary-predicate trick
//   - EliminateNegatedEquations  — Lemma 4.5's stratum-splitting method
//   - EliminateEquations    — Theorem 4.7 (composition of the above)
//   - EliminateIntermediates — Theorem 4.16 folding (needs E, no N/R)
//   - EliminatePackingNonrecursive — Lemmas 4.10–4.13
//   - SimulatePackingDoubled — Theorem 4.15's doubling construction
//   - EliminatePacking      — dispatcher for the two packing cases
//   - ToClassical           — Lemma 5.4 on two-bounded instances
//
// Each transformation preserves the computed query (for the designated
// output relation) on flat instances; the test suite verifies this by
// evaluating source and target programs on randomized instances.
package rewrite

import (
	"fmt"
	"maps"
	"slices"

	"seqlog/internal/ast"
)

// varExprs renders variables as single-term expressions, for use as
// predicate arguments.
func varExprs(vars []ast.Var) []ast.Expr {
	out := make([]ast.Expr, len(vars))
	for i, v := range vars {
		out[i] = ast.Expr{ast.VarT{V: v}}
	}
	return out
}

// sortedVars returns the variables of the set in deterministic order
// (atomic variables first, then by name).
func sortedVars(set map[ast.Var]bool) []ast.Var {
	return slices.SortedFunc(maps.Keys(set), ast.Var.Compare)
}

// renameRuleVars renames every variable in the rule with fresh names,
// avoiding capture when rule bodies are inlined (Theorem 4.16).
func renameRuleVars(r ast.Rule, g *ast.NameGen) ast.Rule {
	sub := ast.Subst{}
	for _, v := range r.Vars() {
		nv := g.FreshVar(v.Name+"_", v.Atomic)
		sub[v] = ast.Expr{ast.VarT{V: nv}}
	}
	return r.ApplySubst(sub)
}

// splitBody partitions a body into positive predicates, positive
// equations, negated predicates and negated equations.
func splitBody(body []ast.Literal) (posPreds []ast.Pred, posEqs []ast.Eq, negPreds []ast.Pred, negEqs []ast.Eq) {
	for _, l := range body {
		switch x := l.Atom.(type) {
		case ast.Pred:
			if l.Neg {
				negPreds = append(negPreds, x)
			} else {
				posPreds = append(posPreds, x)
			}
		case ast.Eq:
			if l.Neg {
				negEqs = append(negEqs, x)
			} else {
				posEqs = append(posEqs, x)
			}
		}
	}
	return
}

// hasNegatedEquations reports whether any rule of the stratum contains
// a nonequality.
func hasNegatedEquations(s ast.Stratum) bool {
	for _, r := range s {
		if _, _, _, negEqs := splitBody(r.Body); len(negEqs) > 0 {
			return true
		}
	}
	return false
}

// Error wraps transformation failures with the offending rule.
type Error struct {
	Op   string
	Rule string
	Msg  string
}

func (e *Error) Error() string {
	if e.Rule == "" {
		return fmt.Sprintf("rewrite/%s: %s", e.Op, e.Msg)
	}
	return fmt.Sprintf("rewrite/%s: %s (rule: %s)", e.Op, e.Msg, e.Rule)
}

func errf(op string, rule string, format string, args ...any) *Error {
	return &Error{Op: op, Rule: rule, Msg: fmt.Sprintf(format, args...)}
}
