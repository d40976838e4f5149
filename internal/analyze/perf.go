package analyze

import (
	"slices"
	"strings"

	"seqlog/internal/ast"
)

// PerfAnalyzer reads the planner's delta-variant join orders — it
// calls ast.JoinOrder and ast.Pred.Access, the functions eval compiles
// its plans from, so it cannot disagree with them. For every positive
// predicate occurrence Δ of a multi-join rule it asks: when maintenance
// is driven by a delta on Δ (only Δ's variables bound up front), can the
// remaining predicates all be joined through an exact index probe
// (some argument position fully bound), a prefix probe (a ground
// leading term) or a suffix probe (a ground trailing term)? A
// predicate that qualifies for none is matched by a full relation
// scan per delta tuple — the join degenerates to nested loops exactly
// when the engine is supposed to be incremental.
//
// Code: full-scan-delta (warning), reported at the scanned predicate.
var PerfAnalyzer = &Analyzer{
	Name: "performance",
	Doc:  "joins that full-scan a relation under delta-driven incremental maintenance",
	Run:  runPerf,
}

func runPerf(p *Pass) {
	for _, r := range p.Rules {
		checkRulePerf(p, r)
	}
}

func checkRulePerf(p *Pass, r ast.Rule) {
	preds := r.Parts().Preds
	if len(preds) < 2 {
		return // single-predicate bodies have no join to index
	}
	// scanned[i] collects the delta predicates under which preds[i] is
	// joined by a full scan, in body order.
	scanned := make(map[int][]string)
	for d := range preds {
		// The planner's own delta-variant order: preds[d] pinned first,
		// the rest greedy (ast.JoinOrder is what eval compiles from).
		delta := "Δ" + preds[d].Name
		bound := map[ast.Var]bool{}
		ast.JoinOrder(preds, bound, d, func(i int) {
			pr := preds[i]
			if i != d && len(pr.Args) > 0 && pr.Access(bound).Class() == ast.AccessScan &&
				!slices.Contains(scanned[i], delta) {
				scanned[i] = append(scanned[i], delta)
			}
		})
	}
	for i, pr := range preds {
		if deltas := scanned[i]; len(deltas) > 0 {
			p.Reportf(pr.Pos, Warning, "full-scan-delta",
				"%s is joined by a full scan when maintenance is driven by %s: no argument position becomes fully bound, prefix-ground or suffix-ground, so no index applies (consider reordering shared variables)",
				pr.Name, strings.Join(deltas, ", "))
		}
	}
}
