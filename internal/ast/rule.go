package ast

import (
	"maps"
	"slices"
	"strings"

	"seqlog/internal/value"
)

// Pred is a predicate P(e1,...,en) over path expressions.
type Pred struct {
	Name string
	Args []Expr
	// Pos is the source position of the predicate name (zero when the
	// predicate was built programmatically). It does not participate in
	// structural equality or rendering.
	Pos Position
}

// Eq is an equation e1 = e2 between path expressions (the E feature).
type Eq struct {
	L, R Expr
	// Pos is the source position where the equation starts (zero when
	// built programmatically).
	Pos Position
}

// Atom is a body atom: a predicate or an equation.
type Atom interface {
	isAtom()
	String() string
	// Exprs returns the atom's expressions: a predicate's arguments, an
	// equation's two sides.
	Exprs() []Expr
	// Position returns the atom's source position.
	Position() Position
}

func (Pred) isAtom() {}
func (Eq) isAtom()   {}

// String renders the predicate.
func (p Pred) String() string {
	if len(p.Args) == 0 {
		return p.Name
	}
	parts := make([]string, len(p.Args))
	for i, a := range p.Args {
		parts[i] = a.String()
	}
	return p.Name + "(" + strings.Join(parts, ", ") + ")"
}

// String renders the equation.
func (e Eq) String() string { return e.L.String() + " = " + e.R.String() }

// Literal is a positive or negated atom.
type Literal struct {
	Neg  bool
	Atom Atom
}

// Pos wraps an atom as a positive literal.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Neg wraps an atom as a negated literal (the N feature).
func Neg(a Atom) Literal { return Literal{Neg: true, Atom: a} }

// String renders the literal; negated equations print as nonequalities.
func (l Literal) String() string {
	if !l.Neg {
		return l.Atom.String()
	}
	if eq, ok := l.Atom.(Eq); ok {
		return eq.L.String() + " != " + eq.R.String()
	}
	return "!" + l.Atom.String()
}

// Rule is H ← B with H a predicate (the head) and B a finite set of
// literals (the body), represented as an ordered slice for determinism.
type Rule struct {
	Head Pred
	Body []Literal
}

// R is a convenience constructor for rules.
func R(head Pred, body ...Literal) Rule { return Rule{Head: head, Body: body} }

// String renders the rule; facts (empty bodies) print as "H.".
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Stratum is a finite set of safe rules (ordered for determinism).
type Stratum []Rule

// Program is a finite sequence of strata such that negation is
// stratified (paper §2.2); Validate checks the side conditions.
type Program struct {
	Strata []Stratum
}

// NewProgram builds a single-stratum program from rules.
func NewProgram(rules ...Rule) Program {
	return Program{Strata: []Stratum{rules}}
}

// Stratified builds a program from strata in evaluation order. A
// stratum without rules computes nothing and is dropped; a program
// without rules is one empty stratum.
func Stratified(strata ...Stratum) Program {
	strata = slices.DeleteFunc(slices.Clone(strata), func(s Stratum) bool { return len(s) == 0 })
	if len(strata) == 0 {
		strata = []Stratum{{}}
	}
	return Program{Strata: strata}
}

// Rules returns all rules of the program in stratum order.
func (p Program) Rules() []Rule {
	var out []Rule
	for _, s := range p.Strata {
		out = append(out, s...)
	}
	return out
}

// String renders the program with strata separated by "---" lines.
func (p Program) String() string {
	var b strings.Builder
	for i, s := range p.Strata {
		if i > 0 {
			b.WriteString("---\n")
		}
		for _, r := range s {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Clone returns a deep copy of the rule.
func (r Rule) Clone() Rule { return r.MapExprs(Expr.Clone) }

// Clone returns a deep copy of the program.
func (p Program) Clone() Program { return p.MapRules(Rule.Clone) }

// Vars returns the variables of the rule in first-occurrence order
// (head first, then body).
func (r Rule) Vars() []Var { return VarsOf(slices.Collect(r.Exprs())...) }

// FirstOccurrence returns the position of the first atom mentioning v:
// a body atom when there is one (more precise than the rule head), the
// head otherwise.
func (r Rule) FirstOccurrence(v Var) Position {
	for _, l := range r.Body {
		if slices.Contains(VarsOf(l.Atom.Exprs()...), v) {
			return l.Atom.Position()
		}
	}
	return r.Head.Pos
}

// ApplySubst applies a substitution to every expression in the rule.
func (r Rule) ApplySubst(s Subst) Rule { return r.MapExprs(s.Apply) }

// LimitedVars computes the limited variables of the rule per §2.2:
// variables in positive predicates are limited, and if all variables on
// one side of a positive equation are limited then so are those on the
// other side (BindOrder).
func (r Rule) LimitedVars() map[Var]bool {
	parts := r.Parts()
	limited := map[Var]bool{}
	for _, p := range parts.Preds {
		for _, v := range VarsOf(p.Args...) {
			limited[v] = true
		}
	}
	BindOrder(parts.Eqs, limited, nil)
	return limited
}

// IDB returns the set of relation names defined by some rule head.
func (p Program) IDB() map[string]bool {
	set := map[string]bool{}
	for _, r := range p.Rules() {
		set[r.Head.Name] = true
	}
	return set
}

// IDBNames returns the relation names used in some head, sorted.
func (p Program) IDBNames() []string { return sortedKeys(p.IDB()) }

// EDBNames returns the relation names used in bodies but never in heads,
// sorted.
func (p Program) EDBNames() []string {
	idb := p.IDB()
	set := map[string]bool{}
	for _, r := range p.Rules() {
		for _, pr := range r.Preds() {
			if !idb[pr.Name] {
				set[pr.Name] = true
			}
		}
	}
	return sortedKeys(set)
}

// RelationNames returns every relation name in the program, sorted.
func (p Program) RelationNames() []string {
	set := p.IDB()
	for _, r := range p.Rules() {
		for _, pr := range r.Preds() {
			set[pr.Name] = true
		}
	}
	return sortedKeys(set)
}

// Needed returns the relation names needed to compute the outputs: the
// outputs themselves and, transitively, every name in the body — under
// negation or not — of a rule whose head is needed.
func (p Program) Needed(outputs ...string) map[string]bool {
	needed := map[string]bool{}
	for _, o := range outputs {
		needed[o] = true
	}
	rules := p.Rules()
	for changed := true; changed; {
		changed = false
		for _, r := range rules {
			if !needed[r.Head.Name] {
				continue
			}
			for _, pr := range r.Preds() {
				if !needed[pr.Name] {
					needed[pr.Name] = true
					changed = true
				}
			}
		}
	}
	return needed
}

func sortedKeys(set map[string]bool) []string { return slices.Sorted(maps.Keys(set)) }

// Consts returns the distinct atomic constants used in the program.
func (p Program) Consts() []value.Value {
	set := map[value.Value]bool{}
	for _, r := range p.Rules() {
		for e := range r.Exprs() {
			e.Consts(set)
		}
	}
	return slices.SortedFunc(maps.Keys(set), func(a, b value.Value) int { return strings.Compare(a.Text(), b.Text()) })
}

// RenameRelations renames the relation names of the rule's head and
// body predicates according to the mapping; unmapped names stay.
func (r Rule) RenameRelations(m map[string]string) Rule {
	return r.MapPreds(func(pr Pred) Pred {
		if n, ok := m[pr.Name]; ok {
			pr.Name = n
		}
		return pr
	})
}

// RenameRelations renames relation names throughout the program
// according to the mapping; unmapped names stay.
func (p Program) RenameRelations(m map[string]string) Program {
	return p.MapRules(func(r Rule) Rule { return r.RenameRelations(m) })
}
