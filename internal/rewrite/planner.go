package rewrite

import (
	"fmt"

	"seqlog/internal/ast"
	"seqlog/internal/core"
)

// PlanResult is the outcome of ToFragment.
type PlanResult struct {
	// Program is the rewritten program.
	Program ast.Program
	// Achieved is the fragment the rewritten program actually uses.
	Achieved core.Fragment
	// Steps names the transformation passes applied, in order.
	Steps []string
	// Exact reports whether Achieved ⊆ target. When false, the
	// subsumption holds by Theorem 6.1 but the constructive pipeline
	// could not reach the exact target (see Note); this arises for
	// recursive packing programs targeting I-free fragments, where the
	// paper's Theorem 4.15 proof sketch likewise routes through
	// intermediate predicates.
	Exact bool
	// Note explains an inexact result.
	Note string
}

// ToFragment moves a program into the target fragment, following the
// Figure 3 composition of the paper's redundancy results: packing
// first (Theorem 4.15), then equations (Theorem 4.7), then
// intermediate predicates (Theorem 4.16), then arity (Theorem 4.2),
// finally pruning auxiliary relations that are not needed for the
// output. It fails when Theorem 6.1 says the target cannot express the
// source fragment's queries.
func ToFragment(p ast.Program, output string, target core.Fragment) (PlanResult, error) {
	src := p.Features()
	if why := core.Violated(src, target); why != "" {
		return PlanResult{}, fmt.Errorf("core: %s is not subsumed by %s (%s)", src, target, why)
	}
	res := PlanResult{Program: p.Clone(), Exact: true}
	step := func(name string, f func(ast.Program) (ast.Program, error)) error {
		q, err := f(res.Program)
		if err != nil {
			return err
		}
		res.Program = q
		res.Steps = append(res.Steps, name)
		return nil
	}

	if res.Program.Features().Has(core.P) && !target.Has(core.P) {
		if err := step("eliminate-packing (Thm 4.15)", func(q ast.Program) (ast.Program, error) {
			return EliminatePacking(q, output)
		}); err != nil {
			return PlanResult{}, err
		}
	}
	if res.Program.Features().Has(core.E) && !target.Has(core.E) {
		if err := step("eliminate-equations (Thm 4.7)", EliminateEquations); err != nil {
			return PlanResult{}, err
		}
	}
	if res.Program.Features().Has(core.I) && !target.Has(core.I) {
		q, err := EliminateIntermediates(res.Program, output)
		if err != nil {
			// Constructive gap: the decision procedure says F1 ≤ F2,
			// but folding needs E present and N, R absent.
			res.Exact = false
			res.Note = fmt.Sprintf("intermediate predicates could not be folded away constructively: %v", err)
		} else {
			res.Program = q
			res.Steps = append(res.Steps, "eliminate-intermediates (Thm 4.16)")
		}
	}
	if res.Program.Features().Has(core.A) && !target.Has(core.A) {
		if err := step("eliminate-arity (Thm 4.2)", func(q ast.Program) (ast.Program, error) {
			return EliminateArity(q, DefaultArityMarkers)
		}); err != nil {
			return PlanResult{}, err
		}
	}
	res.Program = PruneUnreachable(res.Program, output)
	res.Steps = append(res.Steps, "prune-unreachable")
	res.Achieved = res.Program.Features()
	if !res.Achieved.SubsetOf(target) {
		res.Exact = false
		if res.Note == "" {
			res.Note = fmt.Sprintf("achieved fragment %s exceeds target %s", res.Achieved, target)
		}
	}
	return res, nil
}
