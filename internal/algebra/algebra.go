// Package algebra implements the sequence relational algebra of
// Section 7: the classical operators (union, difference, cartesian
// product) with selection and projection generalized to path
// expressions over the positional variables $1…$n, plus the two
// extraction operators UNPACK_i and SUB_i. Theorem 7.1's translations
// between nonrecursive Sequence Datalog and this algebra live in
// compile.go and todatalog.go; the Lemma 7.2 normal form in
// normalform.go.
package algebra

import (
	"fmt"
	"strconv"
	"strings"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/value"
)

// Expr is a sequence relational algebra expression.
type Expr interface {
	// Arity is the width of the resulting relation.
	Arity() int
	// String renders the expression.
	String() string
}

// Rel is a base relation name.
type Rel struct {
	Name   string
	NArity int
}

// Const is a constant relation.
type Const struct {
	NArity int
	Tuples []instance.Tuple
}

// Select is the generalized equality selection σ_{L=R}(E), where L and
// R are path expressions over $1…$n (paper §7: t(α) = t(β)).
type Select struct {
	E    Expr
	L, R ast.Expr
}

// Project is the generalized projection π_{Cols…}(E); each column is a
// path expression over $1…$n.
type Project struct {
	E    Expr
	Cols []ast.Expr
}

// Union is set union (same arity).
type Union struct{ L, R Expr }

// Diff is set difference (same arity).
type Diff struct{ L, R Expr }

// Product is the cartesian product.
type Product struct{ L, R Expr }

// Unpack is UNPACK_I(E): tuples whose I-th component is a packed value
// <s>, with that component replaced by s (1-based).
type Unpack struct {
	E Expr
	I int
}

// Sub is SUB_I(E): appends a column ranging over the substrings of the
// I-th component (1-based).
type Sub struct {
	E Expr
	I int
}

// Arity implements Expr.
func (r Rel) Arity() int     { return r.NArity }
func (c Const) Arity() int   { return c.NArity }
func (s Select) Arity() int  { return s.E.Arity() }
func (p Project) Arity() int { return len(p.Cols) }
func (u Union) Arity() int   { return u.L.Arity() }
func (d Diff) Arity() int    { return d.L.Arity() }
func (p Product) Arity() int { return p.L.Arity() + p.R.Arity() }
func (u Unpack) Arity() int  { return u.E.Arity() }
func (s Sub) Arity() int     { return s.E.Arity() + 1 }

func (r Rel) String() string { return r.Name }
func (c Const) String() string {
	parts := make([]string, len(c.Tuples))
	for i, t := range c.Tuples {
		parts[i] = t.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
func (s Select) String() string {
	return fmt.Sprintf("select[%s = %s](%s)", s.L, s.R, s.E)
}
func (p Project) String() string {
	parts := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		parts[i] = c.String()
	}
	return fmt.Sprintf("project[%s](%s)", strings.Join(parts, ", "), p.E)
}
func (u Union) String() string   { return fmt.Sprintf("(%s union %s)", u.L, u.R) }
func (d Diff) String() string    { return fmt.Sprintf("(%s minus %s)", d.L, d.R) }
func (p Product) String() string { return fmt.Sprintf("(%s x %s)", p.L, p.R) }
func (u Unpack) String() string  { return fmt.Sprintf("unpack[%d](%s)", u.I, u.E) }
func (s Sub) String() string     { return fmt.Sprintf("sub[%d](%s)", s.I, s.E) }

// Col builds the positional variable $i as a path expression.
func Col(i int) ast.Expr { return ast.P(strconv.Itoa(i)) }

// evalPos evaluates a positional path expression under a tuple
// (selection and projection never match, only evaluate; §7).
func evalPos(e ast.Expr, t instance.Tuple, arity int) (value.Path, error) {
	var out value.Path
	for _, term := range e {
		switch x := term.(type) {
		case ast.Const:
			out = append(out, x.A)
		case ast.VarT:
			if x.V.Atomic {
				return nil, fmt.Errorf("algebra: atomic variable %s in positional expression", x.V)
			}
			i, err := strconv.Atoi(x.V.Name)
			if err != nil || i < 1 || i > arity {
				return nil, fmt.Errorf("algebra: positional variable $%s out of range 1..%d", x.V.Name, arity)
			}
			out = append(out, t[i-1]...)
		case ast.Pack:
			inner, err := evalPos(x.E, t, arity)
			if err != nil {
				return nil, err
			}
			out = append(out, value.Pack(inner))
		}
	}
	return out, nil
}

// Eval evaluates the expression on an instance. Missing base relations
// evaluate to empty relations of the declared arity.
func Eval(e Expr, inst *instance.Instance) (*instance.Relation, error) {
	switch x := e.(type) {
	case Rel:
		if r := inst.Relation(x.Name); r != nil {
			if r.Arity != x.NArity {
				return nil, fmt.Errorf("algebra: relation %s has arity %d, expression expects %d", x.Name, r.Arity, x.NArity)
			}
			return r, nil
		}
		return instance.NewRelation(x.NArity), nil
	case Const:
		out := instance.NewRelation(x.NArity)
		for _, t := range x.Tuples {
			out.Add(t)
		}
		return out, nil
	case Select:
		in, err := Eval(x.E, inst)
		if err != nil {
			return nil, err
		}
		out := instance.NewRelation(in.Arity)
		for _, t := range in.Tuples() {
			l, err := evalPos(x.L, t, in.Arity)
			if err != nil {
				return nil, err
			}
			r, err := evalPos(x.R, t, in.Arity)
			if err != nil {
				return nil, err
			}
			if l.Equal(r) {
				out.Add(t)
			}
		}
		return out, nil
	case Project:
		in, err := Eval(x.E, inst)
		if err != nil {
			return nil, err
		}
		out := instance.NewRelation(len(x.Cols))
		for _, t := range in.Tuples() {
			nt := make(instance.Tuple, len(x.Cols))
			for i, col := range x.Cols {
				p, err := evalPos(col, t, in.Arity)
				if err != nil {
					return nil, err
				}
				nt[i] = p
			}
			out.Add(nt)
		}
		return out, nil
	case Union:
		l, err := Eval(x.L, inst)
		if err != nil {
			return nil, err
		}
		r, err := Eval(x.R, inst)
		if err != nil {
			return nil, err
		}
		if l.Arity != r.Arity {
			return nil, fmt.Errorf("algebra: union of arities %d and %d", l.Arity, r.Arity)
		}
		out := l.Clone()
		for _, t := range r.Tuples() {
			out.Add(t)
		}
		return out, nil
	case Diff:
		l, err := Eval(x.L, inst)
		if err != nil {
			return nil, err
		}
		r, err := Eval(x.R, inst)
		if err != nil {
			return nil, err
		}
		if l.Arity != r.Arity {
			return nil, fmt.Errorf("algebra: difference of arities %d and %d", l.Arity, r.Arity)
		}
		out := instance.NewRelation(l.Arity)
		for _, t := range l.Tuples() {
			if !r.Contains(t) {
				out.Add(t)
			}
		}
		return out, nil
	case Product:
		l, err := Eval(x.L, inst)
		if err != nil {
			return nil, err
		}
		r, err := Eval(x.R, inst)
		if err != nil {
			return nil, err
		}
		out := instance.NewRelation(l.Arity + r.Arity)
		// Materialize the inner side once: Tuples() walks the chunked
		// tuple log, so calling it per outer tuple would be quadratic.
		rts := r.Tuples()
		for _, lt := range l.Tuples() {
			for _, rt := range rts {
				nt := make(instance.Tuple, 0, l.Arity+r.Arity)
				nt = append(nt, lt...)
				nt = append(nt, rt...)
				out.Add(nt)
			}
		}
		return out, nil
	case Unpack:
		in, err := Eval(x.E, inst)
		if err != nil {
			return nil, err
		}
		if x.I < 1 || x.I > in.Arity {
			return nil, fmt.Errorf("algebra: UNPACK_%d on arity %d", x.I, in.Arity)
		}
		out := instance.NewRelation(in.Arity)
		for _, t := range in.Tuples() {
			comp := t[x.I-1]
			if len(comp) != 1 || comp[0].Kind() != value.KindPacked {
				continue
			}
			nt := append(instance.Tuple{}, t...)
			nt[x.I-1] = comp[0].Unpack()
			out.Add(nt)
		}
		return out, nil
	case Sub:
		in, err := Eval(x.E, inst)
		if err != nil {
			return nil, err
		}
		if x.I < 1 || x.I > in.Arity {
			return nil, fmt.Errorf("algebra: SUB_%d on arity %d", x.I, in.Arity)
		}
		out := instance.NewRelation(in.Arity + 1)
		for _, t := range in.Tuples() {
			comp := t[x.I-1]
			for i := 0; i <= len(comp); i++ {
				for j := i; j <= len(comp); j++ {
					nt := append(instance.Tuple{}, t...)
					nt = append(nt, comp[i:j])
					out.Add(nt)
				}
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("algebra: unknown expression %T", e)
}

// Size counts the operators in the expression, for reporting.
func Size(e Expr) int {
	switch x := e.(type) {
	case Rel, Const:
		return 1
	case Select:
		return 1 + Size(x.E)
	case Project:
		return 1 + Size(x.E)
	case Union:
		return 1 + Size(x.L) + Size(x.R)
	case Diff:
		return 1 + Size(x.L) + Size(x.R)
	case Product:
		return 1 + Size(x.L) + Size(x.R)
	case Unpack:
		return 1 + Size(x.E)
	case Sub:
		return 1 + Size(x.E)
	}
	return 1
}
