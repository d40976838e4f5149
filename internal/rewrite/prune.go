package rewrite

import "seqlog/internal/ast"

// PruneUnreachable removes rules whose head relation is not needed,
// directly or transitively (through positive or negated body
// predicates), to compute the output relation. Rewritings can leave
// auxiliary relations behind (e.g. packing-structure relations no rule
// references); pruning keeps programs in the smallest fragment they
// actually need.
func PruneUnreachable(p ast.Program, output string) ast.Program {
	needed := p.Needed(output)
	out, _ := p.ExpandRules(func(r ast.Rule) ([]ast.Rule, error) { // a filter; it cannot fail
		if !needed[r.Head.Name] {
			return nil, nil
		}
		return []ast.Rule{r.Clone()}, nil
	})
	return out
}
