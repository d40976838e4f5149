package ast

import (
	"fmt"
	"sort"
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
func (r Rule) Clone() Rule {
	out := Rule{Head: clonePred(r.Head)}
	out.Body = make([]Literal, len(r.Body))
	for i, l := range r.Body {
		out.Body[i] = Literal{Neg: l.Neg, Atom: cloneAtom(l.Atom)}
	}
	return out
}

func clonePred(p Pred) Pred {
	args := make([]Expr, len(p.Args))
	for i, a := range p.Args {
		args[i] = a.Clone()
	}
	return Pred{Name: p.Name, Args: args, Pos: p.Pos}
}

func cloneAtom(a Atom) Atom {
	switch x := a.(type) {
	case Pred:
		return clonePred(x)
	case Eq:
		return Eq{L: x.L.Clone(), R: x.R.Clone(), Pos: x.Pos}
	}
	return a
}

// Clone returns a deep copy of the program.
func (p Program) Clone() Program {
	out := Program{Strata: make([]Stratum, len(p.Strata))}
	for i, s := range p.Strata {
		cs := make(Stratum, len(s))
		for j, r := range s {
			cs[j] = r.Clone()
		}
		out.Strata[i] = cs
	}
	return out
}

// Vars returns the variables of the rule in first-occurrence order
// (head first, then body).
func (r Rule) Vars() []Var {
	var out []Var
	seen := map[Var]bool{}
	for _, a := range r.Head.Args {
		a.collectVars(&out, seen)
	}
	for _, l := range r.Body {
		switch x := l.Atom.(type) {
		case Pred:
			for _, a := range x.Args {
				a.collectVars(&out, seen)
			}
		case Eq:
			x.L.collectVars(&out, seen)
			x.R.collectVars(&out, seen)
		}
	}
	return out
}

// ApplySubst applies a substitution to every expression in the rule.
func (r Rule) ApplySubst(s Subst) Rule {
	out := Rule{Head: applySubstPred(r.Head, s)}
	out.Body = make([]Literal, len(r.Body))
	for i, l := range r.Body {
		out.Body[i] = Literal{Neg: l.Neg, Atom: applySubstAtom(l.Atom, s)}
	}
	return out
}

func applySubstPred(p Pred, s Subst) Pred {
	args := make([]Expr, len(p.Args))
	for i, a := range p.Args {
		args[i] = s.Apply(a)
	}
	return Pred{Name: p.Name, Args: args, Pos: p.Pos}
}

func applySubstAtom(a Atom, s Subst) Atom {
	switch x := a.(type) {
	case Pred:
		return applySubstPred(x, s)
	case Eq:
		return Eq{L: s.Apply(x.L), R: s.Apply(x.R), Pos: x.Pos}
	}
	return a
}

// LimitedVars computes the limited variables of the rule per §2.2:
// variables in positive predicates are limited, and if all variables on
// one side of a positive equation are limited then so are those on the
// other side.
func (r Rule) LimitedVars() map[Var]bool {
	limited := map[Var]bool{}
	for _, l := range r.Body {
		if l.Neg {
			continue
		}
		if p, ok := l.Atom.(Pred); ok {
			for _, a := range p.Args {
				for _, v := range a.Vars() {
					limited[v] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, l := range r.Body {
			if l.Neg {
				continue
			}
			eq, ok := l.Atom.(Eq)
			if !ok {
				continue
			}
			if eq.L.BoundIn(limited) && !eq.R.BoundIn(limited) {
				for _, v := range eq.R.Vars() {
					limited[v] = true
				}
				changed = true
			}
			if eq.R.BoundIn(limited) && !eq.L.BoundIn(limited) {
				for _, v := range eq.L.Vars() {
					limited[v] = true
				}
				changed = true
			}
		}
	}
	return limited
}

// Safe reports whether all variables occurring in the rule are limited.
func (r Rule) Safe() bool {
	limited := r.LimitedVars()
	for _, v := range r.Vars() {
		if !limited[v] {
			return false
		}
	}
	return true
}

// IDBNames returns the relation names used in some head, sorted.
func (p Program) IDBNames() []string {
	set := map[string]bool{}
	for _, r := range p.Rules() {
		set[r.Head.Name] = true
	}
	return sortedKeys(set)
}

// EDBNames returns the relation names used in bodies but never in heads,
// sorted.
func (p Program) EDBNames() []string {
	idb := map[string]bool{}
	for _, r := range p.Rules() {
		idb[r.Head.Name] = true
	}
	set := map[string]bool{}
	for _, r := range p.Rules() {
		for _, l := range r.Body {
			if pr, ok := l.Atom.(Pred); ok && !idb[pr.Name] {
				set[pr.Name] = true
			}
		}
	}
	return sortedKeys(set)
}

// RelationNames returns every relation name in the program, sorted.
func (p Program) RelationNames() []string {
	set := map[string]bool{}
	for _, r := range p.Rules() {
		set[r.Head.Name] = true
		for _, l := range r.Body {
			if pr, ok := l.Atom.(Pred); ok {
				set[pr.Name] = true
			}
		}
	}
	return sortedKeys(set)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Arities returns the arity of every relation name, or an error if a
// name is used with inconsistent arities (schemas fix arities, §2.1).
// The error is a *PosError positioned at the conflicting use when the
// program was parsed from source.
func (p Program) Arities() (map[string]int, error) {
	out := map[string]int{}
	first := map[string]Position{}
	record := func(pr Pred) error {
		if prev, ok := out[pr.Name]; ok && prev != len(pr.Args) {
			msg := fmt.Sprintf("relation %s used with arities %d and %d", pr.Name, prev, len(pr.Args))
			if fp := first[pr.Name]; fp.IsValid() {
				msg += fmt.Sprintf(" (first used at %s)", fp)
			}
			return posErrorf(pr.Pos, "%s", msg)
		}
		if _, ok := out[pr.Name]; !ok {
			first[pr.Name] = pr.Pos
		}
		out[pr.Name] = len(pr.Args)
		return nil
	}
	for _, r := range p.Rules() {
		if err := record(r.Head); err != nil {
			return nil, err
		}
		for _, l := range r.Body {
			if pr, ok := l.Atom.(Pred); ok {
				if err := record(pr); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// Consts returns the distinct atomic constants used in the program.
func (p Program) Consts() []value.Atom {
	set := map[value.Atom]bool{}
	collect := func(e Expr) { e.Consts(set) }
	for _, r := range p.Rules() {
		for _, a := range r.Head.Args {
			collect(a)
		}
		for _, l := range r.Body {
			switch x := l.Atom.(type) {
			case Pred:
				for _, a := range x.Args {
					collect(a)
				}
			case Eq:
				collect(x.L)
				collect(x.R)
			}
		}
	}
	out := make([]value.Atom, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Text() < out[j].Text() })
	return out
}

// RenameRelations renames relation names throughout the program
// according to the mapping; unmapped names stay.
func (p Program) RenameRelations(m map[string]string) Program {
	out := p.Clone()
	ren := func(name string) string {
		if n, ok := m[name]; ok {
			return n
		}
		return name
	}
	for si, s := range out.Strata {
		for ri, r := range s {
			r.Head.Name = ren(r.Head.Name)
			for li, l := range r.Body {
				if pr, ok := l.Atom.(Pred); ok {
					pr.Name = ren(pr.Name)
					r.Body[li] = Literal{Neg: l.Neg, Atom: pr}
				}
			}
			out.Strata[si][ri] = r
		}
	}
	return out
}
