package ast

import (
	"iter"
	"slices"
)

// The traversal family. Every compile-time pass — the §2.2 check, the
// analyzers, the rewrites, the algebra translation, eval's planning —
// enumerates and rebuilds a program's parts through the functions in
// this file: Atom.Exprs and Atom.Position, Expr.Terms, Rule.Exprs,
// Rule.Preds and Rule.Eqs, Pred.MapArgs, Rule.MapExprs, Rule.MapPreds
// and Rule.Splice, Program.MapRules and ExpandRules. So is §2.2's
// reading of a rule body, which they all start from: Rule.Parts (the
// body by sign and kind) and BindOrder (the order in which positive
// equations bind). A dispatch on l.Atom.(type) elsewhere marks a place
// where predicates and equations genuinely get different treatment.
//
// Per-tuple code does not come through here: Expr.Hash, Equal and Key,
// Subst.Apply, eval's matcher and unify's solver loop recurse over
// terms directly, because an indirect call per term is measurable on
// the paths that run once per derived fact.

// Exprs returns the predicate's arguments.
func (p Pred) Exprs() []Expr { return p.Args }

// Exprs returns the two sides of the equation.
func (e Eq) Exprs() []Expr { return []Expr{e.L, e.R} }

// Position returns the source position of the predicate name.
func (p Pred) Position() Position { return p.Pos }

// Position returns the source position where the equation starts.
func (e Eq) Position() Position { return e.Pos }

// Terms yields every term of the expression in written order,
// descending into packing: a packed term is yielded before the terms
// inside it. The first value is the packing depth of the term (0 at
// the top level).
func (e Expr) Terms() iter.Seq2[int, Term] {
	return func(yield func(int, Term) bool) { e.walk(0, yield) }
}

func (e Expr) walk(depth int, yield func(int, Term) bool) bool {
	for _, t := range e {
		if !yield(depth, t) {
			return false
		}
		if p, ok := t.(Pack); ok && !p.E.walk(depth+1, yield) {
			return false
		}
	}
	return true
}

// VarsOf returns the variables of the expressions in first-occurrence
// order, without duplicates.
func VarsOf(es ...Expr) []Var {
	var out []Var
	seen := map[Var]bool{}
	for _, e := range es {
		for _, t := range e.Terms() {
			if vt, ok := t.(VarT); ok && !seen[vt.V] {
				seen[vt.V] = true
				out = append(out, vt.V)
			}
		}
	}
	return out
}

// Exprs yields every expression of the rule: the head arguments, then
// each body atom's expressions in body order.
func (r Rule) Exprs() iter.Seq[Expr] {
	return func(yield func(Expr) bool) {
		for _, a := range r.Head.Args {
			if !yield(a) {
				return
			}
		}
		for _, l := range r.Body {
			for _, e := range l.Atom.Exprs() {
				if !yield(e) {
					return
				}
			}
		}
	}
}

// Preds yields every body predicate with the literal it occurs in
// (for its sign), in body order. The head is not included.
func (r Rule) Preds() iter.Seq2[Literal, Pred] {
	return func(yield func(Literal, Pred) bool) {
		for _, l := range r.Body {
			if p, ok := l.Atom.(Pred); ok && !yield(l, p) {
				return
			}
		}
	}
}

// Eqs yields every body equation with its index in the body:
// r.Body[i].Neg is its sign, r.Splice(i) the rule without it.
func (r Rule) Eqs() iter.Seq2[int, Eq] {
	return func(yield func(int, Eq) bool) {
		for i, l := range r.Body {
			if e, ok := l.Atom.(Eq); ok && !yield(i, e) {
				return
			}
		}
	}
}

// Parts is a rule body partitioned by sign and kind, each part in body
// order. §2.2 reads the four differently: positive predicates limit
// their variables, positive equations limit in BindOrder, negated
// predicates and nonequalities only test.
type Parts struct {
	Preds, NegPreds []Pred
	Eqs, NegEqs     []Eq
}

// Parts partitions the rule's body.
func (r Rule) Parts() Parts {
	var p Parts
	for _, l := range r.Body {
		switch x := l.Atom.(type) {
		case Pred:
			if l.Neg {
				p.NegPreds = append(p.NegPreds, x)
			} else {
				p.Preds = append(p.Preds, x)
			}
		case Eq:
			if l.Neg {
				p.NegEqs = append(p.NegEqs, x)
			} else {
				p.Eqs = append(p.Eqs, x)
			}
		}
	}
	return p
}

// BindOrder is §2.2's reading of positive equations as assignments:
// once every variable on one side is bound that side is ground, and
// matching the other side, the pattern, against its value binds the
// pattern's variables. It repeatedly offers try the first equation of
// eqs with a bound side (the left one first), as (ground, pattern) and
// with bound holding exactly the variables bound before the equation
// runs; when try accepts — nil accepts everything — the pattern's
// variables join bound. It returns the equations that never got an
// accepted ground side, in the given order: none, for the body of a
// safe rule under the variables of its positive predicates.
func BindOrder(eqs []Eq, bound map[Var]bool, try func(ground, pattern Expr) bool) (stuck []Eq) {
	stuck = slices.Clone(eqs)
	for i := 0; i < len(stuck); i++ {
		eq := stuck[i]
		for _, side := range [2][2]Expr{{eq.L, eq.R}, {eq.R, eq.L}} {
			if ground, pattern := side[0], side[1]; ground.BoundIn(bound) && (try == nil || try(ground, pattern)) {
				for _, v := range pattern.Vars() {
					bound[v] = true
				}
				stuck = slices.Delete(stuck, i, i+1)
				i = -1 // start over: the new bindings may ground an earlier equation
				break
			}
		}
	}
	return stuck
}

// mapSlice rebuilds a slice elementwise, keeping nil nil.
func mapSlice[T any](xs []T, f func(T) T) []T {
	if xs == nil {
		return nil
	}
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// MapArgs rebuilds the predicate with f applied to every argument;
// name and position carry over.
func (p Pred) MapArgs(f func(Expr) Expr) Pred {
	p.Args = mapSlice(p.Args, f)
	return p
}

// MapExprs rebuilds the rule with f applied to every expression (head
// arguments, predicate arguments, equation sides). Names, signs and
// positions carry over; the result shares no slice with r beyond what
// f itself returns.
func (r Rule) MapExprs(f func(Expr) Expr) Rule {
	return Rule{Head: r.Head.MapArgs(f), Body: mapSlice(r.Body, func(l Literal) Literal {
		switch x := l.Atom.(type) {
		case Pred:
			l.Atom = x.MapArgs(f)
		case Eq:
			x.L, x.R = f(x.L), f(x.R)
			l.Atom = x
		}
		return l
	})}
}

// MapPreds rebuilds the rule with f applied to the head and to every
// body predicate; equations and signs carry over. Expressions f does
// not replace are shared with r (they are immutable by convention).
func (r Rule) MapPreds(f func(Pred) Pred) Rule {
	return Rule{Head: f(r.Head), Body: mapSlice(r.Body, func(l Literal) Literal {
		if p, ok := l.Atom.(Pred); ok {
			l.Atom = f(p)
		}
		return l
	})}
}

// Splice returns the rule with body literal i replaced by lits — by
// nothing: the rule without literal i. The body is a fresh slice.
func (r Rule) Splice(i int, lits ...Literal) Rule {
	return Rule{Head: r.Head, Body: slices.Concat(r.Body[:i], lits, r.Body[i+1:])}
}

// MapRules rebuilds the program with f applied to every rule, keeping
// the strata.
func (p Program) MapRules(f func(Rule) Rule) Program {
	return Program{Strata: mapSlice(p.Strata, func(s Stratum) Stratum { return mapSlice(s, f) })}
}

// Expand is the one-to-many map: the concatenation of f(x) over xs,
// stopping at the first error. Rewrites use it at every level — the
// rules a rule expands to, the strata a stratum splits into.
func Expand[S ~[]E, E any](xs S, f func(E) ([]E, error)) (S, error) {
	var out S
	for _, x := range xs {
		ys, err := f(x)
		if err != nil {
			return nil, err
		}
		out = append(out, ys...)
	}
	return out, nil
}

// ExpandRules is the one-to-many companion of MapRules: the program
// with every rule replaced by the rules f returns for it (none drops
// the rule), stratum by stratum, as Stratified arranges them.
func (p Program) ExpandRules(f func(Rule) ([]Rule, error)) (Program, error) {
	strata, err := Expand(p.Strata, func(s Stratum) ([]Stratum, error) {
		out, err := Expand(s, f)
		return []Stratum{out}, err
	})
	return Stratified(strata...), err
}
