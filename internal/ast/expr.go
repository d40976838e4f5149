// Package ast defines the abstract syntax of Sequence Datalog programs
// from Section 2.2 of "Expressiveness within Sequence Datalog"
// (PODS 2021): path expressions over atomic variables (@x), path
// variables ($x), atomic-value constants, and packing (<e>); predicates,
// equations, literals, safe rules, strata, and programs.
package ast

import (
	"fmt"
	"slices"
	"strings"

	"seqlog/internal/value"
)

// Var is a variable: atomic variables range over atomic values, path
// variables over paths (paper §2.2).
type Var struct {
	Name   string
	Atomic bool
}

// String renders the variable with its sigil (@ for atomic, $ for path).
func (v Var) String() string {
	if v.Atomic {
		return "@" + v.Name
	}
	return "$" + v.Name
}

// Compare orders variables deterministically: atomic variables first,
// then by name.
func (v Var) Compare(w Var) int {
	if v.Atomic != w.Atomic {
		if v.Atomic {
			return -1
		}
		return 1
	}
	return strings.Compare(v.Name, w.Name)
}

// AVar returns the atomic variable @name.
func AVar(name string) Var { return Var{Name: name, Atomic: true} }

// PVar returns the path variable $name.
func PVar(name string) Var { return Var{Name: name, Atomic: false} }

// Term is one element of a path expression: a constant atomic value, a
// variable occurrence, or a packed subexpression.
type Term interface {
	isTerm()
	String() string
	appendKey(b *strings.Builder)
}

// Const is an atomic-value constant occurring in an expression; A is
// an atom.
type Const struct {
	A value.Value
}

func (Const) isTerm() {}

// String implements Term.
func (c Const) String() string { return value.Path{c.A}.String() }

// VarT is a variable occurrence in an expression.
type VarT struct {
	V Var
}

func (VarT) isTerm() {}

// String implements Term.
func (t VarT) String() string { return t.V.String() }

// Pack is a packed subexpression <e> (the P feature).
type Pack struct {
	E Expr
}

func (Pack) isTerm() {}

// String implements Term.
func (p Pack) String() string { return "<" + p.E.String() + ">" }

// Expr is a path expression: a finite concatenation of terms. The empty
// expression denotes ε.
type Expr []Term

// C builds a constant term expression from an atom text.
func C(atom string) Expr { return Expr{Const{A: value.Intern(atom)}} }

// A builds the expression consisting of the single atomic variable @name.
func A(name string) Expr { return Expr{VarT{V: AVar(name)}} }

// P builds the expression consisting of the single path variable $name.
func P(name string) Expr { return Expr{VarT{V: PVar(name)}} }

// Packed builds the expression <e>.
func Packed(e Expr) Expr { return Expr{Pack{E: e}} }

// Eps is the empty path expression ε.
func Eps() Expr { return Expr{} }

// Cat concatenates expressions, flattening into a single Expr.
func Cat(es ...Expr) Expr {
	n := 0
	for _, e := range es {
		n += len(e)
	}
	out := make(Expr, 0, n)
	for _, e := range es {
		out = append(out, e...)
	}
	return out
}

// FromPath converts a concrete path into the ground expression denoting it.
func FromPath(p value.Path) Expr {
	out := make(Expr, len(p))
	for i, v := range p {
		if v.Kind() == value.KindAtom {
			out[i] = Const{A: v}
		} else {
			out[i] = Pack{E: FromPath(v.Unpack())}
		}
	}
	return out
}

// String renders the expression in dotted notation, ε as "eps".
func (e Expr) String() string {
	if len(e) == 0 {
		return "eps"
	}
	parts := make([]string, len(e))
	for i, t := range e {
		parts[i] = t.String()
	}
	return strings.Join(parts, ".")
}

// Key returns a canonical injective encoding of the expression, usable
// as a map key (e.g. for memoizing unification states).
func (e Expr) Key() string {
	var b strings.Builder
	e.appendKey(&b)
	return b.String()
}

func (e Expr) appendKey(b *strings.Builder) {
	for _, t := range e {
		t.appendKey(b)
	}
}

func (c Const) appendKey(b *strings.Builder) {
	text := c.A.Text()
	b.WriteByte('c')
	b.WriteString(fmt.Sprintf("%d:", len(text)))
	b.WriteString(text)
}

func (t VarT) appendKey(b *strings.Builder) {
	if t.V.Atomic {
		b.WriteByte('a')
	} else {
		b.WriteByte('p')
	}
	b.WriteString(fmt.Sprintf("%d:", len(t.V.Name)))
	b.WriteString(t.V.Name)
}

func (p Pack) appendKey(b *strings.Builder) {
	b.WriteByte('<')
	p.E.appendKey(b)
	b.WriteByte('>')
}

// Hash folds a structural hash of the expression into h, mirroring the
// Key encoding without allocating: equal expressions hash equally, and
// the per-kind tags keep constants, variable occurrences, and packing
// distinct. Constants contribute their atoms' cached interned hashes;
// distinct expressions may collide, so callers confirm with Equal.
func (e Expr) Hash(h uint64) uint64 {
	for _, t := range e {
		switch x := t.(type) {
		case Const:
			h = value.HashWord(h, x.A.Hash())
		case VarT:
			if x.V.Atomic {
				h = value.HashByte(h, 0x04)
			} else {
				h = value.HashByte(h, 0x05)
			}
			for i := 0; i < len(x.V.Name); i++ {
				h = value.HashByte(h, x.V.Name[i])
			}
			h = value.HashByte(h, 0x06)
		case Pack:
			h = value.HashByte(h, 0x07)
			h = x.E.Hash(h)
			h = value.HashByte(h, 0x08)
		}
	}
	return h
}

// Equal reports syntactic equality of expressions.
func (e Expr) Equal(f Expr) bool {
	if len(e) != len(f) {
		return false
	}
	for i := range e {
		if !termEqual(e[i], f[i]) {
			return false
		}
	}
	return true
}

func termEqual(a, b Term) bool {
	switch x := a.(type) {
	case Const:
		y, ok := b.(Const)
		return ok && x.A == y.A
	case VarT:
		y, ok := b.(VarT)
		return ok && x.V == y.V
	case Pack:
		y, ok := b.(Pack)
		return ok && x.E.Equal(y.E)
	}
	return false
}

// IsGround reports whether the expression contains no variables.
func (e Expr) IsGround() bool {
	for _, t := range e.Terms() {
		if _, ok := t.(VarT); ok {
			return false
		}
	}
	return true
}

// HasPacking reports whether a packed subexpression <e> occurs anywhere.
func (e Expr) HasPacking() bool {
	for _, t := range e {
		if _, ok := t.(Pack); ok {
			return true
		}
	}
	return false
}

// Eval converts a ground expression to the path it denotes.
// It panics if the expression contains variables; use IsGround first.
func (e Expr) Eval() value.Path {
	out := make(value.Path, 0, len(e))
	for _, t := range e {
		switch x := t.(type) {
		case Const:
			out = append(out, x.A)
		case Pack:
			out = append(out, value.Pack(x.E.Eval()))
		case VarT:
			panic(fmt.Sprintf("ast: Eval on non-ground expression %s (variable %s)", e, x.V))
		}
	}
	return out
}

// Vars returns the variables of the expression in first-occurrence
// order, without duplicates.
func (e Expr) Vars() []Var { return VarsOf(e) }

// SoleVar reports the variable when the expression is exactly one bare
// variable occurrence.
func (e Expr) SoleVar() (Var, bool) {
	if len(e) == 1 {
		if vt, ok := e[0].(VarT); ok {
			return vt.V, true
		}
	}
	return Var{}, false
}

// VarOccurrences counts occurrences of each variable (including inside
// packing). Used for the one-sided nonlinearity check of §4.3.1.
func (e Expr) VarOccurrences(into map[Var]int) {
	for _, t := range e.Terms() {
		if vt, ok := t.(VarT); ok {
			into[vt.V]++
		}
	}
}

// Consts collects the distinct atomic constants occurring in the
// expression (including inside packing).
func (e Expr) Consts(into map[value.Value]bool) {
	for _, t := range e.Terms() {
		if c, ok := t.(Const); ok {
			into[c.A] = true
		}
	}
}

// Clone returns a deep copy of the expression.
func (e Expr) Clone() Expr {
	out := make(Expr, len(e))
	for i, t := range e {
		if p, ok := t.(Pack); ok {
			out[i] = Pack{E: p.E.Clone()}
		} else {
			out[i] = t
		}
	}
	return out
}

// Subst is a variable substitution: a partial map from variables to path
// expressions (paper §4.3.1). Atomic variables must map to expressions
// consisting of a single atomic term (a constant or an atomic variable).
type Subst map[Var]Expr

// Apply applies the substitution to an expression, leaving unmapped
// variables in place.
func (s Subst) Apply(e Expr) Expr {
	out := make(Expr, 0, len(e))
	for _, t := range e {
		switch x := t.(type) {
		case VarT:
			if rep, ok := s[x.V]; ok {
				out = append(out, rep...)
			} else {
				out = append(out, x)
			}
		case Pack:
			out = append(out, Pack{E: s.Apply(x.E)})
		default:
			out = append(out, t)
		}
	}
	return out
}

// Compose returns the substitution equivalent to applying s first and
// then t: (t ∘ s)(x) = t(s(x)), with t's own bindings kept for variables
// not bound by s.
func (s Subst) Compose(t Subst) Subst {
	out := Subst{}
	for v, e := range s {
		out[v] = t.Apply(e)
	}
	for v, e := range t {
		if _, ok := out[v]; !ok {
			out[v] = e
		}
	}
	return out
}

// String renders the substitution deterministically.
func (s Subst) String() string {
	// unify's solver keys its solution sets by this string, once per
	// candidate: one exact-size allocation, no iterator.
	keys := make([]Var, 0, len(s))
	for v := range s {
		keys = append(keys, v)
	}
	slices.SortFunc(keys, Var.Compare)
	parts := make([]string, len(keys))
	for i, v := range keys {
		parts[i] = v.String() + "->" + s[v].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
