package analyze

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"seqlog/internal/ast"
	"seqlog/internal/core"
)

// runTermination implements the paper's central observation as a
// diagnostic (Example 2.3, §3): Sequence Datalog evaluation need not
// terminate precisely because recursion can construct ever-longer
// sequences. It reports:
//
//   - fragment (info): the program's minimal fragment of {A, E, I, N,
//     P, R} and its expressiveness class under Theorem 6.1;
//   - seq-growth (warning): a recursive rule whose head (or an
//     equation defining a head variable) builds a sequence strictly
//     longer than a path variable it recurses on. Such a rule can grow
//     sequences without bound; termination is not guaranteed on
//     arbitrary inputs. Rules that recurse through atomic variables
//     only are bounded by the input alphabet and stay clean.
func runTermination(p *Pass) {
	if len(p.Rules) == 0 {
		return
	}
	reportFragment(p)
	for _, r := range p.Rules {
		cycle := recursionCycle(p, r)
		if cycle == nil {
			continue
		}
		through, pos := growthWitness(r)
		if through == "" {
			continue
		}
		p.Report(Diagnostic{
			Pos:      pos,
			Severity: Warning,
			Code:     "seq-growth",
			Message: fmt.Sprintf("recursive rule grows sequences through %s: evaluation is not guaranteed to terminate on all inputs (Example 2.3)",
				through),
			Related: []Related{{
				Pos:     r.Head.Pos,
				Message: "recursion cycle: " + strings.Join(cycle, " -> ") + " -> " + cycle[0],
			}},
		})
	}
}

func reportFragment(p *Pass) {
	f := p.Prog.FeaturesWith(p.Deps)
	p.Reportf(p.Rules[0].Head.Pos, Info, "fragment", "program is in fragment %s; expressiveness class: %s", f, core.ClassOf(f).Label())
}

// recursionCycle returns the sorted members of the head's recursive
// dependency-graph component when the rule itself closes a cycle (some
// positive body predicate is in the head's component), else nil.
func recursionCycle(p *Pass, r ast.Rule) []string {
	scc := p.Deps.SCC
	hid, ok := scc[r.Head.Name]
	if !ok {
		return nil
	}
	closes := false
	for l, pr := range r.Preds() {
		if pid, pok := scc[pr.Name]; !l.Neg && pok && pid == hid {
			closes = true
			break
		}
	}
	if !closes {
		return nil
	}
	var members []string
	for n, id := range scc {
		if id == hid {
			members = append(members, n)
		}
	}
	sort.Strings(members)
	return members
}

// growthWitness looks for the term through which the rule grows
// sequences: a head argument that embeds a path variable in a longer
// constructed expression, or a positive equation that defines a head
// variable as such an expression. It returns a description of the
// witness and its position, or "" when the rule only rearranges
// bounded material (atomic variables, bare path variables).
func growthWitness(r ast.Rule) (string, ast.Position) {
	for _, a := range r.Head.Args {
		if constructsLongerPath(a) {
			return fmt.Sprintf("head term %s", a), r.Head.Pos
		}
	}
	headVars := ast.VarsOf(r.Head.Args...)
	for _, eq := range r.Parts().Eqs {
		for _, side := range [][2]ast.Expr{{eq.L, eq.R}, {eq.R, eq.L}} {
			v, isVar := side[0].SoleVar()
			if isVar && slices.Contains(headVars, v) && !v.Atomic && constructsLongerPath(side[1]) {
				return fmt.Sprintf("equation %s", eq), eq.Pos
			}
		}
	}
	return "", ast.Position{}
}

// constructsLongerPath reports whether the expression builds a path
// strictly containing a path variable: a concatenation or packing
// around $x grows, while a bare $x, constants, and atomic variables
// (bounded by the input alphabet) do not.
func constructsLongerPath(e ast.Expr) bool {
	if v, bare := e.SoleVar(); bare && !v.Atomic {
		return false // bare $x: pass-through, no growth
	}
	for _, t := range e.Terms() {
		if vt, ok := t.(ast.VarT); ok && !vt.V.Atomic {
			return true
		}
	}
	return false
}
