package analyze

// SafetyAnalyzer reports the per-rule half of ast.Program.Check — the
// definition of §2.2 lives there, this pass only gives each violation
// error severity:
//
//   - arity-mismatch (error): a relation used with two arities;
//   - unbound-head-var (error): a head variable never bound by the
//     positive body — with a note when its only head occurrence
//     constructs a sequence (`T($p.@x)`), where binding cannot come
//     from the head by definition;
//   - unbound-neg-var (error): a variable whose only predicate
//     occurrences are under negation (negation does not bind);
//   - unbound-var (error): a variable floating in equations only,
//     with no positive side ever fully limited.
var SafetyAnalyzer = &Analyzer{
	Name:   "safety",
	Doc:    "range restriction: head and negated variables must be bound by positive body atoms",
	Errors: true,
	Run:    func(p *Pass) { p.reportViolations(false) },
}

// StratificationAnalyzer reports the strata-order half of
// ast.Program.Check and adds the one policy that is the analyzer's own:
//
//   - stratum-order, unstratified-negation (errors, explicit strata
//     only): the written order is not a stratification (see Check);
//   - negation-cycle: a negated atom whose predicate sits in the same
//     dependency-graph strongly connected component as the rule's head
//     — no stratification exists. An error for auto-stratified
//     programs (Check reports it); a warning when the author wrote
//     explicit strata (the written order still fixes an operational
//     meaning).
var StratificationAnalyzer = &Analyzer{
	Name:   "stratification",
	Doc:    "negation must be stratified",
	Errors: true,
	Run:    runStratification,
}

func runStratification(p *Pass) {
	p.reportViolations(true)
	if !p.Written {
		return
	}
	if head, atom, ok := p.Deps.NegationCycleWitness(p.Rules); ok {
		p.Reportf(atom.Pos, Warning, "negation-cycle",
			"recursion through negation (!%s is reachable from %s): the written strata fix an evaluation order, but no stratification exists", atom.Name, head)
	}
}

// reportViolations turns the §2.2 violations into error diagnostics:
// those about the order of strata when strata is set, the per-rule
// ones otherwise.
func (p *Pass) reportViolations(strata bool) {
	for _, v := range p.Violations {
		if (v.Code == "stratum-order" || v.Code == "unstratified-negation" || v.Code == "negation-cycle") == strata {
			p.Report(Diagnostic{Pos: v.Pos, Severity: Error, Code: v.Code, Message: v.Message, Related: v.Notes})
		}
	}
}
