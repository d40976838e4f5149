package ast

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Violation is one way a program breaks the well-formedness conditions
// of Section 2.2 — consistent arities, limited variables, stratified
// negation. Check enumerates them; Validate turns the first into an
// error, and the analyzers turn each into a diagnostic. The codes and
// their wording are catalogued in docs/analysis.md.
type Violation struct {
	Pos     Position
	Code    string
	Message string
	// Notes point at other source positions that explain the violation
	// (the first use of a relation, ...).
	Notes []Note
}

// Note is a secondary position attached to a violation.
type Note struct {
	Pos     Position
	Message string
}

// Err renders the violation as the positioned error Validate returns.
func (v Violation) Err() *PosError { return &PosError{Pos: v.Pos, Msg: v.Message} }

func (v Violation) compare(w Violation) int {
	return cmp.Or(v.Pos.Compare(w.Pos), strings.Compare(v.Code, w.Code), strings.Compare(v.Message, w.Message))
}

// Check is the definition of Section 2.2 well-formedness: it returns
// the arity of every relation name (its first use wins) and every
// violation, ordered by source position, then code and message:
//
//   - arity-mismatch: a relation used with two arities, with a note at
//     its first use (schemas fix arities, §2.1);
//   - unbound-head-var, unbound-neg-var, unbound-var: a variable that
//     is not limited, classified by why it escapes binding;
//   - stratum-order (written strata): a relation defined in two strata,
//     or read positively before the stratum that defines it;
//   - unstratified-negation (written strata): a negated predicate
//     defined in its own or a later stratum;
//   - negation-cycle (derived strata): recursion through negation.
//
// written says whose order the strata are. Every negation is checked
// against them either way — evaluation follows them. When they fail
// and nobody wrote them (StratifyLevels gave up), the defect is that no
// order exists, and the negated atom on the cycle is reported instead.
func (p Program) Check(written bool) (map[string]int, []Violation) {
	rules := p.Rules()
	arities, vs := arityTable(rules)
	for _, r := range rules {
		vs = append(vs, r.unlimited()...)
	}
	strata := p.unstratified()
	if !written && len(strata) > 0 {
		if head, atom, ok := p.Deps().NegationCycleWitness(rules); ok {
			strata = []Violation{NegationCycle(head, atom)}
		}
	}
	vs = append(vs, strata...)
	slices.SortStableFunc(vs, Violation.compare)
	return arities, vs
}

// Validate checks the well-formedness conditions of Section 2.2 for the
// strata as given and returns the first violation as a *PosError,
// positioned at the offending rule or atom when the program was parsed
// from source.
func (p Program) Validate() error {
	if _, vs := p.Check(true); len(vs) > 0 {
		return vs[0].Err()
	}
	return nil
}

// arityTable records every relation's arity at its first use and reports
// each later use that disagrees.
func arityTable(rules []Rule) (map[string]int, []Violation) {
	arity := map[string]int{}
	first := map[string]Position{}
	var vs []Violation
	record := func(pr Pred) {
		prev, ok := arity[pr.Name]
		switch {
		case !ok:
			arity[pr.Name], first[pr.Name] = len(pr.Args), pr.Pos
		case prev != len(pr.Args):
			vs = append(vs, Violation{
				Pos:     pr.Pos,
				Code:    "arity-mismatch",
				Message: fmt.Sprintf("relation %s used with arity %d here but arity %d elsewhere", pr.Name, len(pr.Args), prev),
				Notes:   []Note{{Pos: first[pr.Name], Message: fmt.Sprintf("%s first used with arity %d", pr.Name, prev)}},
			})
		}
	}
	for _, r := range rules {
		record(r.Head)
		for _, pr := range r.Preds() {
			record(pr)
		}
	}
	return arity, vs
}

// Arities returns the arity of every relation name, or an error if a
// name is used with inconsistent arities (schemas fix arities, §2.1).
// The error is a *PosError positioned at the conflicting use when the
// program was parsed from source.
func (p Program) Arities() (map[string]int, error) {
	table, vs := arityTable(p.Rules())
	if len(vs) > 0 {
		return nil, vs[0].Err()
	}
	return table, nil
}

// unlimited reports every variable of the rule that is not limited
// (range restriction, §2.2), with the reason it escapes binding: a head
// variable the positive body never binds — with a note when the head
// only mentions it inside a constructed sequence term (`T($p.@x)`),
// where binding cannot come from the head by definition; a variable
// whose body occurrences are all under negation (negation does not
// bind); or a variable floating in equations neither side of which
// ever becomes fully limited.
func (r Rule) unlimited() []Violation {
	limited := r.LimitedVars()
	headVars := VarsOf(r.Head.Args...)
	var vs []Violation
	for _, v := range r.Vars() {
		if limited[v] {
			continue
		}
		if slices.Contains(headVars, v) {
			viol := Violation{
				Pos:     r.Head.Pos,
				Code:    "unbound-head-var",
				Message: fmt.Sprintf("head variable %s is not bound by any positive body atom (rule is unsafe, §2.2)", v),
			}
			bare := func(a Expr) bool { u, ok := a.SoleVar(); return ok && u == v }
			if !slices.ContainsFunc(r.Head.Args, bare) {
				viol.Notes = []Note{{
					Pos:     r.Head.Pos,
					Message: fmt.Sprintf("%s occurs in the head only inside a constructed sequence term, which cannot bind it", v),
				}}
			}
			vs = append(vs, viol)
			continue
		}
		// Where v occurs in the body: the first negated literal with it,
		// and whether any positive literal has it.
		var negated *Literal
		positive := false
		for i, l := range r.Body {
			if !slices.Contains(VarsOf(l.Atom.Exprs()...), v) {
				continue
			}
			if !l.Neg {
				positive = true
			} else if negated == nil {
				negated = &r.Body[i]
			}
		}
		if negated != nil && !positive {
			vs = append(vs, Violation{
				Pos:     negated.Atom.Position(),
				Code:    "unbound-neg-var",
				Message: fmt.Sprintf("variable %s occurs under negation in %s but is not bound by any positive body atom (negation does not bind, §2.2)", v, negated),
			})
			continue
		}
		vs = append(vs, Violation{
			Pos:     r.FirstOccurrence(v),
			Code:    "unbound-var",
			Message: fmt.Sprintf("variable %s is not limited: no positive predicate contains it and no positive equation side containing it ever becomes fully bound (§2.2)", v),
		})
	}
	return vs
}

// unstratified reports where the strata break the classical
// stratification (Abiteboul–Hull–Vianu, Def. 15.2.1): a relation
// defined by a second stratum, a positive body atom whose relation only
// a later stratum defines, and a negated predicate defined in its own
// or a later stratum. first and last are the first and the last
// stratum defining each head.
func (p Program) unstratified() []Violation {
	first, last := map[string]int{}, map[string]int{}
	for si, s := range p.Strata {
		for _, r := range s {
			if _, ok := first[r.Head.Name]; !ok {
				first[r.Head.Name] = si
			}
			last[r.Head.Name] = si
		}
	}
	var vs []Violation
	add := func(pos Position, code, format string, args ...any) {
		vs = append(vs, Violation{Pos: pos, Code: code, Message: fmt.Sprintf(format, args...)})
	}
	for si, s := range p.Strata {
		for _, r := range s {
			if d := first[r.Head.Name]; d < si {
				add(r.Head.Pos, "stratum-order", "stratum %d: %s is already defined in stratum %d, and all rules for a relation belong to one stratum (give this definition its own name, §2.2)", si+1, r.Head.Name, d+1)
			}
			for l, pr := range r.Preds() {
				if d, ok := first[pr.Name]; ok && !l.Neg && d > si {
					add(pr.Pos, "stratum-order", "stratum %d: predicate %s is read before stratum %d, which defines it (move this rule to stratum %d or later, §2.2)", si+1, pr.Name, d+1, d+1)
				}
				if d, ok := last[pr.Name]; ok && l.Neg && d >= si {
					add(pr.Pos, "unstratified-negation", "stratum %d: negated predicate %s is defined in this or a later stratum (negation not stratified, §2.2)", si+1, pr.Name)
				}
			}
		}
	}
	return vs
}

// NegationCycleWitness finds a negated body atom whose predicate is in
// the same dependency-graph strongly connected component as the rule's
// head — the witness that no stratification exists (recursion through
// negation). It returns false when every negation leaves its component.
func (d Deps) NegationCycleWitness(rules []Rule) (head string, atom Pred, ok bool) {
	for _, r := range rules {
		hid, hok := d.SCC[r.Head.Name]
		for l, pr := range r.Preds() {
			if pid, pok := d.SCC[pr.Name]; l.Neg && hok && pok && pid == hid {
				return r.Head.Name, pr, true
			}
		}
	}
	return "", Pred{}, false
}

// NegationCycle is the violation for a NegationCycleWitness when no
// written order gives the program a meaning.
func NegationCycle(head string, atom Pred) Violation {
	return Violation{
		Pos:     atom.Pos,
		Code:    "negation-cycle",
		Message: fmt.Sprintf("no stratification exists: recursion through negation (!%s is reachable from %s)", atom.Name, head),
	}
}
