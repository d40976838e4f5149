package analyze

import (
	"slices"
	"strings"

	"seqlog/internal/ast"
)

// PerfAnalyzer reads the planner's delta-variant join orders — it
// calls ast.Rule.DeltaVariants, ast.JoinOrder and ast.Pred.Access on
// the probe form, the functions eval compiles its plans from, so it
// cannot disagree with them. For every body predicate occurrence Δ,
// positive or negated (ΔR and Δ!R, as Explain labels the variants), it
// asks: when maintenance is driven by a delta on Δ (only Δ's variables
// bound up front), can the remaining predicates all be joined through
// an exact index probe (some argument position fully bound), a prefix
// probe (a ground leading term) or a suffix probe (a ground trailing
// term), counting an argument that an equation defines as its
// definition? A predicate that qualifies for none is matched by a full
// relation scan per delta tuple — the join degenerates to nested loops
// exactly when the engine is supposed to be incremental.
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
	defs := ast.Definitions(r.Parts().Eqs)
	// scanned[i] collects the deltas under which body literal i is
	// joined by a full scan, in body order.
	scanned := make(map[int][]string)
	r.DeltaVariants(func(d, hoist int, v ast.Rule) bool {
		name := r.Body[d].Atom.(ast.Pred).Name
		delta := "Δ" + name
		if r.Body[d].Neg {
			delta = "Δ!" + name
		}
		// The variant's positive predicates, each with its body index.
		var preds []ast.Pred
		var at []int
		for i, l := range v.Body {
			if pr, ok := l.Atom.(ast.Pred); ok && !l.Neg {
				preds, at = append(preds, pr), append(at, i)
			}
		}
		bound := map[ast.Var]bool{}
		ast.JoinOrder(preds, defs, bound, hoist, func(i int, probe ast.Pred) {
			if at[i] != d && len(probe.Args) > 0 && probe.Access(bound).Class() == ast.AccessScan &&
				!slices.Contains(scanned[at[i]], delta) {
				scanned[at[i]] = append(scanned[at[i]], delta)
			}
		})
		return true
	})
	for i, l := range r.Body {
		if deltas := scanned[i]; len(deltas) > 0 {
			pr := l.Atom.(ast.Pred)
			p.Reportf(pr.Pos, Warning, "full-scan-delta",
				"%s is joined by a full scan when maintenance is driven by %s: no argument position becomes fully bound, prefix-ground or suffix-ground, so no index applies (consider reordering shared variables)",
				pr.Name, strings.Join(deltas, ", "))
		}
	}
}
