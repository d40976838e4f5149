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
	var strata []ast.Stratum
	for _, s := range p.Strata {
		var keep ast.Stratum
		for _, r := range s {
			if needed[r.Head.Name] {
				keep = append(keep, r.Clone())
			}
		}
		if len(keep) > 0 {
			strata = append(strata, keep)
		}
	}
	if len(strata) == 0 {
		strata = []ast.Stratum{{}}
	}
	return ast.Program{Strata: strata}
}
