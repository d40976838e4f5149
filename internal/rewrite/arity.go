package rewrite

import (
	"seqlog/internal/ast"
	"seqlog/internal/value"
)

// ArityMarkers are the two distinct atomic values a and b used by the
// Lemma 4.1 encoding
//
//	(s1, s2)  <->  s1·a·s2·a·s1·b·s2 .
//
// By Lemma 4.1 the encoding is injective for arbitrary paths s1, s2 —
// including paths that contain the markers themselves — so any two
// distinct atoms work.
type ArityMarkers struct {
	A, B value.Value // atoms
}

// DefaultArityMarkers uses the atoms "0" and "1".
var DefaultArityMarkers = ArityMarkers{A: value.Intern("0"), B: value.Intern("1")}

// encodePair is the Lemma 4.1 encoding at the expression level.
func (m ArityMarkers) encodePair(e1, e2 ast.Expr) ast.Expr {
	a := ast.Expr{ast.Const{A: m.A}}
	b := ast.Expr{ast.Const{A: m.B}}
	return ast.Cat(e1, a, e2, a, e1, b, e2)
}

// encodeArgs folds an argument list into a single expression by
// repeatedly combining the last two components, as in Theorem 4.2
// ("arities higher than one can be reduced by one ... repeatedly").
func (m ArityMarkers) encodeArgs(args []ast.Expr) ast.Expr {
	switch len(args) {
	case 0:
		return ast.Eps()
	case 1:
		return args[0]
	}
	folded := m.encodePair(args[len(args)-2], args[len(args)-1])
	rest := append(append([]ast.Expr{}, args[:len(args)-2]...), folded)
	return m.encodeArgs(rest)
}

// EliminateArity rewrites every IDB predicate of arity at least two
// into a unary predicate using the Lemma 4.1 encoding (Theorem 4.2:
// arity is redundant). EDB predicates are left untouched: the paper's
// queries are over monadic schemas, so EDB relations are already
// monadic; an error is returned otherwise.
func EliminateArity(p ast.Program, m ArityMarkers) (ast.Program, error) {
	if m.A == m.B {
		return ast.Program{}, errf("arity", "", "markers must be distinct, got %q twice", m.A)
	}
	arities, err := p.Arities()
	if err != nil {
		return ast.Program{}, errf("arity", "", "%v", err)
	}
	idb := p.IDB()
	for _, n := range p.EDBNames() {
		if arities[n] > 1 {
			return ast.Program{}, errf("arity", "", "EDB relation %s has arity %d; queries are over monadic schemas", n, arities[n])
		}
	}
	return p.MapRules(func(r ast.Rule) ast.Rule {
		return r.MapPreds(func(pr ast.Pred) ast.Pred {
			if idb[pr.Name] && len(pr.Args) > 1 {
				pr.Args = []ast.Expr{m.encodeArgs(pr.Args)}
			}
			return pr
		})
	}), nil
}

// EncodeTuplePaths applies the Lemma 4.1 encoding to a concrete tuple,
// producing the path the rewritten program stores. Exposed for tests
// that verify the correspondence between original and rewritten IDB
// relations.
func (m ArityMarkers) EncodeTuplePaths(paths []value.Path) value.Path {
	switch len(paths) {
	case 0:
		return value.Epsilon
	case 1:
		return paths[0]
	}
	s1, s2 := paths[len(paths)-2], paths[len(paths)-1]
	a := value.Path{m.A}
	b := value.Path{m.B}
	folded := value.Concat(s1, a, s2, a, s1, b, s2)
	rest := append(append([]value.Path{}, paths[:len(paths)-2]...), folded)
	return m.EncodeTuplePaths(rest)
}
