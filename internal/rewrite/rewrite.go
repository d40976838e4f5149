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

// disjoin distributes a rule over disjunctions its body must also
// satisfy: one copy of r per way of choosing one alternative from each
// split, the chosen literals appended to the body.
func disjoin(r ast.Rule, splits [][]ast.Literal) []ast.Rule {
	rules := []ast.Rule{r}
	for _, alts := range splits {
		var next []ast.Rule
		for _, base := range rules {
			for _, alt := range alts {
				cp := base.Clone()
				cp.Body = append(cp.Body, alt)
				next = append(next, cp)
			}
		}
		rules = next
	}
	return rules
}

// dedupeRules drops the textual repetitions of a stratum's rules.
func dedupeRules(s ast.Stratum) ast.Stratum {
	seen := map[string]bool{}
	var out ast.Stratum
	for _, r := range s {
		if k := r.String(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// wellFormed is the last step of a rewrite that builds rules: what it
// built must be free of the features it exists to remove (gone) and a
// program in the sense of §2.2. A failure is a defect of the rewrite,
// not of its input.
func wellFormed(op string, p ast.Program, gone ast.FeatureSet) (ast.Program, error) {
	if left := p.Features() & gone; left != 0 {
		return ast.Program{}, errf(op, "", "internal: %s survived the rewriting:\n%s", left, p)
	}
	if err := p.Validate(); err != nil {
		return ast.Program{}, errf(op, "", "internal: rewriting produced an invalid program: %v\n%s", err, p)
	}
	return p, nil
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
