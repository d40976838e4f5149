package ast

import "slices"

// The join planner's pure-syntax decisions: what a predicate can be
// probed with once a set of variables is bound, how candidates for the
// next join step rank, and the greedy order that ranking produces. eval
// compiles its plans from these functions and analyze's performance
// lint reads the same ones, so a diagnostic about a plan is a statement
// about the plan the engine runs.

// BoundIn reports whether every variable of the expression is in
// bound: the expression is ground once those variables have values.
func (e Expr) BoundIn(bound map[Var]bool) bool {
	for _, t := range e.Terms() {
		if vt, ok := t.(VarT); ok && !bound[vt.V] {
			return false
		}
	}
	return true
}

// GroundPrefix counts the leading terms of the expression whose
// variables are all bound (a packed term counts when its subexpression
// is fully bound).
func (e Expr) GroundPrefix(bound map[Var]bool) int {
	n := 0
	for n < len(e) && termGround(e[n], bound) {
		n++
	}
	return n
}

// GroundSuffix counts the trailing terms of the expression whose
// variables are all bound.
func (e Expr) GroundSuffix(bound map[Var]bool) int {
	n := 0
	for n < len(e) && termGround(e[len(e)-1-n], bound) {
		n++
	}
	return n
}

func termGround(t Term, bound map[Var]bool) bool {
	switch x := t.(type) {
	case Const:
		return true
	case VarT:
		return bound[x.V]
	case Pack:
		return x.E.BoundIn(bound)
	}
	return false
}

// Access describes how a join step can reach a predicate's relation
// under the variables bound when the step runs.
type Access struct {
	// BoundCols lists the argument positions whose expressions are fully
	// ground: the step can probe an exact hash index on those columns
	// instead of scanning.
	BoundCols []int
	// PrefixCol/PrefixLen describe the best ground term-prefix of a not
	// fully bound argument (e.g. @y.$rest with @y bound has a length-1
	// ground prefix): any matching tuple's column must start with the
	// prefix's value, so the step can probe a prefix index. SuffixCol/
	// SuffixLen are the mirror image for ground term-suffixes ($rest.@y
	// with @y bound — the paper's bound-suffix patterns, §2.2). At most
	// one of the two is kept — a step probes a single secondary index —
	// preferring the longer (prefix on ties); the other's Col is -1.
	PrefixCol, PrefixLen int
	SuffixCol, SuffixLen int
}

// AccessClass is the access path a step takes: the best its Access
// offers.
type AccessClass int

const (
	AccessScan   AccessClass = iota // no argument helps: full relation scan
	AccessExact                     // exact index over BoundCols
	AccessPrefix                    // ground-prefix index on PrefixCol
	AccessSuffix                    // ground-suffix index on SuffixCol
)

// Class ranks exact before prefix before suffix; a scan when nothing is
// ground.
func (a Access) Class() AccessClass {
	switch {
	case len(a.BoundCols) > 0:
		return AccessExact
	case a.PrefixCol >= 0:
		return AccessPrefix
	case a.SuffixCol >= 0:
		return AccessSuffix
	}
	return AccessScan
}

// Access computes the predicate's access paths under bound.
func (p Pred) Access(bound map[Var]bool) Access {
	a := Access{PrefixCol: -1, SuffixCol: -1}
	for k, arg := range p.Args {
		if arg.BoundIn(bound) {
			a.BoundCols = append(a.BoundCols, k)
			continue
		}
		if n := arg.GroundPrefix(bound); n > a.PrefixLen {
			a.PrefixCol, a.PrefixLen = k, n
		}
		if n := arg.GroundSuffix(bound); n > a.SuffixLen {
			a.SuffixCol, a.SuffixLen = k, n
		}
	}
	if a.SuffixLen > a.PrefixLen {
		a.PrefixCol, a.PrefixLen = -1, 0
	} else {
		a.SuffixCol, a.SuffixLen = -1, 0
	}
	return a
}

// JoinScore ranks a candidate next join step under a bound set, most
// significant component first: fully bound argument positions, longest
// ground argument term prefix, longest ground argument term suffix,
// bound variable occurrences.
type JoinScore [4]int

// Less reports whether s ranks strictly below t.
func (s JoinScore) Less(t JoinScore) bool {
	for i := range s {
		if s[i] != t[i] {
			return s[i] < t[i]
		}
	}
	return false
}

// JoinScore computes the predicate's rank as the next join step.
func (p Pred) JoinScore(bound map[Var]bool) JoinScore {
	var s JoinScore
	occ := map[Var]int{}
	for _, arg := range p.Args {
		arg.VarOccurrences(occ)
		if arg.BoundIn(bound) {
			s[0]++
			continue
		}
		s[1] = max(s[1], arg.GroundPrefix(bound))
		s[2] = max(s[2], arg.GroundSuffix(bound))
	}
	for v, n := range occ {
		if bound[v] {
			s[3] += n
		}
	}
	return s
}

// Defs maps each variable a positive equation of a rule body defines to
// its definition: $x = E, either side, where $x is a single variable
// that does not occur in E (so $x = a.$x defines nothing). The first
// equation defining a variable wins.
type Defs map[Var]Expr

// Definitions reads the definitions off a body's positive equations.
func Definitions(eqs []Eq) Defs {
	d := Defs{}
	for _, eq := range eqs {
		for _, side := range [2][2]Expr{{eq.L, eq.R}, {eq.R, eq.L}} {
			v, ok := side[0].SoleVar()
			if _, dup := d[v]; ok && !dup && !slices.Contains(side[1].Vars(), v) {
				d[v] = side[1]
			}
		}
	}
	return d
}

// Probe is the predicate's probe form under bound: every argument that
// is one unbound defined variable replaced by its definition. The form
// keys index probes — any valuation satisfying the body makes such a
// column equal its definition's value — while matching still uses the
// predicate's own arguments, so the variable is bound from the tuple
// and the equation is still checked.
func (d Defs) Probe(p Pred, bound map[Var]bool) Pred {
	if len(d) == 0 {
		return p
	}
	return p.MapArgs(func(arg Expr) Expr {
		if v, ok := arg.SoleVar(); ok && !bound[v] {
			if def, ok := d[v]; ok {
				return def
			}
		}
		return arg
	})
}

// JoinOrder visits preds in the planner's greedy join order: at each
// point the predicate whose probe form (defs.Probe) has the highest
// JoinScore under the variables bound so far, ties keeping the given
// order, so later steps arrive with bindings an index can exploit.
// first >= 0 pins preds[first] to the first position (the delta-hoisted
// shape, where that atom iterates a change window); the greedy order
// governs the rest. Join order never changes the derived set, only the
// work to derive it.
//
// visit(i, probe) runs with bound holding exactly the variables bound
// when preds[i]'s step executes and probe its probe form under them;
// JoinOrder adds preds[i]'s own variables to bound after visit returns.
func JoinOrder(preds []Pred, defs Defs, bound map[Var]bool, first int, visit func(i int, probe Pred)) {
	rest := make([]int, len(preds))
	for i := range rest {
		rest[i] = i
	}
	for len(rest) > 0 {
		best := 0
		if first >= 0 {
			best, first = first, -1
		} else {
			bestScore := defs.Probe(preds[rest[0]], bound).JoinScore(bound)
			for k := 1; k < len(rest); k++ {
				if s := defs.Probe(preds[rest[k]], bound).JoinScore(bound); bestScore.Less(s) {
					best, bestScore = k, s
				}
			}
		}
		i := rest[best]
		rest = append(rest[:best], rest[best+1:]...)
		visit(i, defs.Probe(preds[i], bound))
		for _, v := range VarsOf(preds[i].Args...) {
			bound[v] = true
		}
	}
}

// DeltaVariants visits the rule's delta variants in body order, one
// per body predicate i: the rule with literal i made positive (a
// negated atom is spliced in positive, so the variant joins the changes
// of the negated relation against the rest of the body) and hoist, i's
// index among the variant's positive predicates — the atom JoinOrder
// pins first. It stops when visit returns false.
func (r Rule) DeltaVariants(visit func(i, hoist int, v Rule) bool) {
	hoist := 0
	for i, l := range r.Body {
		pr, ok := l.Atom.(Pred)
		if !ok {
			continue
		}
		v := r
		if l.Neg {
			v = r.Splice(i, Pos(pr))
		}
		if !visit(i, hoist, v) {
			return
		}
		if !l.Neg {
			hoist++
		}
	}
}
