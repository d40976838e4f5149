package analyze

import (
	"fmt"
	"strings"

	"seqlog/internal/ast"
)

// DeadCodeAnalyzer flags rules and relations that cannot contribute to
// the program's result:
//
//   - duplicate-rule (warning): a rule structurally identical to an
//     earlier one (identical derivations, pure overhead);
//   - singleton-var (warning): a variable occurring exactly once in a
//     rule — usually a typo; a leading underscore ($_x, @_x) marks a
//     deliberate don't-care and suppresses the warning;
//   - never-derived (warning): an IDB relation none of whose rules can
//     ever fire, because every one of them depends positively on a
//     relation that itself derives nothing and is defined by no rule
//     (not an EDB name — EDB relations may hold facts at runtime);
//   - unreachable-rule (warning, needs Options.Outputs): a rule whose
//     head is not needed — directly or transitively, through positive
//     or negated atoms — to compute any declared output.
var DeadCodeAnalyzer = &Analyzer{
	Name: "deadcode",
	Doc:  "unreachable rules, never-derivable relations, duplicate rules, singleton variables",
	Run:  runDeadCode,
}

func runDeadCode(p *Pass) {
	checkDuplicates(p)
	for _, r := range p.Rules {
		checkSingletons(p, r)
	}
	checkNeverDerived(p)
	checkUnreachable(p)
}

func checkDuplicates(p *Pass) {
	first := map[string]ast.Position{}
	for _, r := range p.Rules {
		key := r.String()
		if pos, ok := first[key]; ok {
			p.Report(Diagnostic{
				Pos:      r.Head.Pos,
				Severity: Warning,
				Code:     "duplicate-rule",
				Message:  fmt.Sprintf("rule duplicates an earlier rule: %s", key),
				Related:  []Related{{Pos: pos, Message: "first occurrence"}},
			})
			continue
		}
		first[key] = r.Head.Pos
	}
}

func checkSingletons(p *Pass, r ast.Rule) {
	occ := map[ast.Var]int{}
	for e := range r.Exprs() {
		e.VarOccurrences(occ)
	}
	// Report in the rule's first-occurrence order for determinism.
	for _, v := range r.Vars() {
		if occ[v] != 1 || strings.HasPrefix(v.Name, "_") {
			continue
		}
		marked := v
		marked.Name = "_" + v.Name
		p.Reportf(r.FirstOccurrence(v), Warning, "singleton-var",
			"variable %s occurs only once in the rule (rename to %s to mark it deliberate)", v, marked)
	}
}

// checkNeverDerived runs a fixpoint over "can derive at least one
// fact": EDB names can (facts may be loaded), a rule can fire when all
// its positive body predicates can derive (equations and negation are
// treated as satisfiable — this is an over-approximation, so every
// report is sound).
func checkNeverDerived(p *Pass) {
	derivable := map[string]bool{}
	for _, r := range p.Rules {
		for _, pr := range r.Preds() {
			if !p.IDB[pr.Name] {
				derivable[pr.Name] = true
			}
		}
	}
	canFire := func(r ast.Rule) bool {
		for l, pr := range r.Preds() {
			if !l.Neg && !derivable[pr.Name] {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, r := range p.Rules {
			if !derivable[r.Head.Name] && canFire(r) {
				derivable[r.Head.Name] = true
				changed = true
			}
		}
	}
	reported := map[string]bool{}
	for _, r := range p.Rules {
		if derivable[r.Head.Name] || reported[r.Head.Name] {
			continue
		}
		reported[r.Head.Name] = true
		p.Reportf(r.Head.Pos, Warning, "never-derived",
			"relation %s can never derive a fact: every rule for it depends on a relation that derives nothing", r.Head.Name)
	}
}

// checkUnreachable flags rules whose head is not among the relations
// needed to evaluate the declared outputs (ast.Program.Needed: through
// positive and negated body atoms alike).
func checkUnreachable(p *Pass) {
	if len(p.Opts.Outputs) == 0 {
		return
	}
	needed := p.Prog.Needed(p.Opts.Outputs...)
	outputs := strings.Join(p.Opts.Outputs, ", ")
	for _, r := range p.Rules {
		if needed[r.Head.Name] {
			continue
		}
		p.Reportf(r.Head.Pos, Warning, "unreachable-rule",
			"rule for %s is unreachable: not needed to compute output %s", r.Head.Name, outputs)
	}
}
