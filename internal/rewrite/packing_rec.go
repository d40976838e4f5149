package rewrite

import (
	"fmt"

	"seqlog/internal/ast"
	"seqlog/internal/value"
)

// DoubleMarkers are the two distinct atoms used as simulated delimiters
// in the Theorem 4.15 doubling construction. The block code is
//
//	data atom a   ->  a·a        (the paper's doubling)
//	open  ⟨       ->  o·c
//	close ⟩       ->  c·o
//
// Every data block consists of two equal atoms while the marker blocks
// consist of the two distinct fixed atoms, so block type is decidable
// with positive patterns only (@x·@x, o·c, c·o) — no negation is
// introduced, matching the paper's remark. The code is injective and
// concatenation-homomorphic on block-aligned strings, and all pattern
// pieces compile to even-length encoded patterns, so alignment is
// preserved; balance guards exclude junk segment bindings.
type DoubleMarkers struct {
	O, C value.Value // atoms
}

// DefaultDoubleMarkers uses the atoms "0" and "1"; by the block-code
// argument any two distinct atoms work, even ones occurring in data.
var DefaultDoubleMarkers = DoubleMarkers{O: value.Intern("0"), C: value.Intern("1")}

// SimulatePackingDoubled removes the P feature from an arbitrary
// (possibly recursive) program computing a flat query, per the doubling
// construction sketched in the proof of Theorem 4.15:
//
//  1. a first stratum doubles every EDB relation with the paper's
//     three-rule program;
//  2. every rule is transliterated into the block code, with a
//     recursively-defined balance guard on each path variable;
//  3. a final stratum undoubles the output relation with the paper's
//     three-rule program.
//
// The input program must not use equations (compose with
// EliminateEquations first; the paper's Theorem 4.7 makes them
// redundant in the presence of I) and its EDB relations must be
// monadic. The result uses recursion, arity and intermediate
// predicates, but no packing and no new negation.
func SimulatePackingDoubled(p ast.Program, output string, m DoubleMarkers) (ast.Program, error) {
	if m.O == m.C {
		return ast.Program{}, errf("packing", "", "doubling markers must be distinct")
	}
	if p.Features().Has(ast.FeatEquations) {
		return ast.Program{}, errf("packing", "", "doubling simulation requires an equation-free program; run EliminateEquations first")
	}
	arities, err := p.Arities()
	if err != nil {
		return ast.Program{}, errf("packing", "", "%v", err)
	}
	gen := ast.NewNameGen(p)
	edb := p.EDBNames()
	for _, n := range edb {
		if arities[n] > 1 {
			return ast.Program{}, errf("packing", "", "EDB relation %s has arity %d; queries are over monadic schemas", n, arities[n])
		}
	}
	if a, ok := arities[output]; ok && a > 1 {
		return ast.Program{}, errf("packing", "", "output relation %s has arity %d; flat unary queries have arity <= 1", output, a)
	}

	enc := map[string]string{} // original relation name -> encoded name
	for _, n := range p.RelationNames() {
		enc[n] = gen.Fresh(n + "_enc")
	}
	if _, ok := enc[output]; !ok {
		return ast.Program{}, errf("packing", "", "output relation %s does not occur in the program", output)
	}
	o := ast.Expr{ast.Const{A: m.O}}
	c := ast.Expr{ast.Const{A: m.C}}

	var strata []ast.Stratum
	// Stratum 0: double the EDB relations (the paper's rules).
	var dbl ast.Stratum
	for _, n := range edb {
		if arities[n] == 0 {
			dbl = append(dbl, ast.Rule{
				Head: ast.Pred{Name: enc[n]},
				Body: []ast.Literal{ast.Pos(ast.Pred{Name: n})},
			})
			continue
		}
		t := gen.Fresh("Dbl" + n)
		dbl = append(dbl,
			// T(eps, $x) :- R($x).
			ast.Rule{
				Head: ast.Pred{Name: t, Args: []ast.Expr{ast.Eps(), ast.P("x")}},
				Body: []ast.Literal{ast.Pos(ast.Pred{Name: n, Args: []ast.Expr{ast.P("x")}})},
			},
			// T($x.@y.@y, $z) :- T($x, @y.$z).
			ast.Rule{
				Head: ast.Pred{Name: t, Args: []ast.Expr{ast.Cat(ast.P("x"), ast.A("y"), ast.A("y")), ast.P("z")}},
				Body: []ast.Literal{ast.Pos(ast.Pred{Name: t, Args: []ast.Expr{ast.P("x"), ast.Cat(ast.A("y"), ast.P("z"))}})},
			},
			// R'($x) :- T($x, eps).
			ast.Rule{
				Head: ast.Pred{Name: enc[n], Args: []ast.Expr{ast.P("x")}},
				Body: []ast.Literal{ast.Pos(ast.Pred{Name: t, Args: []ast.Expr{ast.P("x"), ast.Eps()}})},
			},
		)
	}
	strata = append(strata, dbl)

	// Main strata: transliterate each original stratum, adding one
	// substring relation and one balance relation per stratum.
	visible := append([]string{}, edb...)
	for _, s := range p.Strata {
		heads := map[string]bool{}
		for _, r := range s {
			if !heads[r.Head.Name] {
				heads[r.Head.Name] = true
				visible = append(visible, r.Head.Name)
			}
		}
		sub := gen.Fresh("Sub")
		bal := gen.Fresh("Bal")
		var out ast.Stratum
		for _, r := range s {
			// Transliterate every predicate into the block code (equations
			// were refused above).
			nr := r.RenameRelations(enc).MapExprs(func(e ast.Expr) ast.Expr { return encodeExpr(e, m) })
			for _, v := range r.Vars() {
				if !v.Atomic {
					nr.Body = append(nr.Body, ast.Pos(ast.Pred{Name: bal, Args: varExprs([]ast.Var{v})}))
				}
			}
			out = append(out, nr)
		}
		// Substring rules over every visible relation.
		seen := map[string]bool{}
		for _, vrel := range visible {
			if seen[vrel] {
				continue
			}
			seen[vrel] = true
			ar := arities[vrel]
			for pos := 0; pos < ar; pos++ {
				args := make([]ast.Expr, ar)
				for k := range args {
					if k == pos {
						args[k] = ast.Cat(ast.P("sl"), ast.P("sm"), ast.P("sr"))
					} else {
						args[k] = ast.Expr{ast.VarT{V: ast.PVar(fmt.Sprintf("so%d", k))}}
					}
				}
				out = append(out, ast.Rule{
					Head: ast.Pred{Name: sub, Args: []ast.Expr{ast.P("sm")}},
					Body: []ast.Literal{ast.Pos(ast.Pred{Name: enc[vrel], Args: args})},
				})
			}
		}
		// Balance rules: Bal(eps); append a data block; append a
		// balanced marker group.
		out = append(out,
			ast.Rule{Head: ast.Pred{Name: bal, Args: []ast.Expr{ast.Eps()}}},
			ast.Rule{
				Head: ast.Pred{Name: bal, Args: []ast.Expr{ast.Cat(ast.P("x"), ast.A("a"), ast.A("a"))}},
				Body: []ast.Literal{
					ast.Pos(ast.Pred{Name: bal, Args: []ast.Expr{ast.P("x")}}),
					ast.Pos(ast.Pred{Name: sub, Args: []ast.Expr{ast.Cat(ast.P("x"), ast.A("a"), ast.A("a"))}}),
				},
			},
			ast.Rule{
				Head: ast.Pred{Name: bal, Args: []ast.Expr{ast.Cat(ast.P("x"), o, c, ast.P("y"), c, o)}},
				Body: []ast.Literal{
					ast.Pos(ast.Pred{Name: bal, Args: []ast.Expr{ast.P("x")}}),
					ast.Pos(ast.Pred{Name: bal, Args: []ast.Expr{ast.P("y")}}),
					ast.Pos(ast.Pred{Name: sub, Args: []ast.Expr{ast.Cat(ast.P("x"), o, c, ast.P("y"), c, o)}}),
				},
			},
		)
		strata = append(strata, out)
	}

	// Final stratum: undouble the output (the paper's rules).
	var und ast.Stratum
	if arities[output] == 0 {
		und = append(und, ast.Rule{
			Head: ast.Pred{Name: output},
			Body: []ast.Literal{ast.Pos(ast.Pred{Name: enc[output]})},
		})
	} else {
		u := gen.Fresh("Und" + output)
		und = append(und,
			// T($x, eps) :- S'($x).
			ast.Rule{
				Head: ast.Pred{Name: u, Args: []ast.Expr{ast.P("x"), ast.Eps()}},
				Body: []ast.Literal{ast.Pos(ast.Pred{Name: enc[output], Args: []ast.Expr{ast.P("x")}})},
			},
			// T($x, @y.$z) :- T($x.@y.@y, $z).
			ast.Rule{
				Head: ast.Pred{Name: u, Args: []ast.Expr{ast.P("x"), ast.Cat(ast.A("y"), ast.P("z"))}},
				Body: []ast.Literal{ast.Pos(ast.Pred{Name: u, Args: []ast.Expr{ast.Cat(ast.P("x"), ast.A("y"), ast.A("y")), ast.P("z")}})},
			},
			// S($x) :- T(eps, $x).
			ast.Rule{
				Head: ast.Pred{Name: output, Args: []ast.Expr{ast.P("x")}},
				Body: []ast.Literal{ast.Pos(ast.Pred{Name: u, Args: []ast.Expr{ast.Eps(), ast.P("x")}})},
			},
		)
	}
	strata = append(strata, und)

	return wellFormed("packing", ast.Program{Strata: strata}, ast.FeatureSet(ast.FeatPacking))
}

// encodeExpr maps a·a for constants, @x·@x for atomic variables, $x for
// path variables (guarded separately), and o·c … c·o around packing.
func encodeExpr(e ast.Expr, m DoubleMarkers) ast.Expr {
	var out ast.Expr
	for _, t := range e {
		switch x := t.(type) {
		case ast.Const:
			out = append(out, x, x)
		case ast.VarT:
			if x.V.Atomic {
				out = append(out, x, x)
			} else {
				out = append(out, x)
			}
		case ast.Pack:
			out = append(out, ast.Const{A: m.O}, ast.Const{A: m.C})
			out = append(out, encodeExpr(x.E, m)...)
			out = append(out, ast.Const{A: m.C}, ast.Const{A: m.O})
		}
	}
	return out
}

// EncodeDoubledPath is the concrete block code on values, exposed for
// tests: data atoms double, packed values become o·c … c·o groups.
func EncodeDoubledPath(p value.Path, m DoubleMarkers) value.Path {
	var out value.Path
	for _, v := range p {
		if v.Kind() == value.KindAtom {
			out = append(out, v, v)
		} else {
			out = append(out, m.O, m.C)
			out = append(out, EncodeDoubledPath(v.Unpack(), m)...)
			out = append(out, m.C, m.O)
		}
	}
	return out
}

// DecodeDoubledPath inverts EncodeDoubledPath; ok is false on
// non-well-formed input.
func DecodeDoubledPath(p value.Path, m DoubleMarkers) (value.Path, bool) {
	out, rest, ok := decodeBlocks(p, m)
	if !ok || len(rest) != 0 {
		return nil, false
	}
	return out, true
}

func decodeBlocks(p value.Path, m DoubleMarkers) (value.Path, value.Path, bool) {
	var out value.Path
	for len(p) >= 2 {
		a, b := p[0], p[1]
		if a.Kind() != value.KindAtom || b.Kind() != value.KindAtom {
			return nil, nil, false
		}
		switch {
		case a == m.O && b == m.C:
			inner, rest, ok := decodeBlocks(p[2:], m)
			if !ok {
				return nil, nil, false
			}
			if len(rest) < 2 {
				return nil, nil, false
			}
			if rest[0] != m.C || rest[1] != m.O {
				return nil, nil, false
			}
			out = append(out, value.Pack(inner))
			p = rest[2:]
		case a == m.C && b == m.O:
			// A close marker ends this level.
			return out, p, true
		case a == b:
			out = append(out, a)
			p = p[2:]
		default:
			return nil, nil, false
		}
	}
	if len(p) != 0 {
		return nil, nil, false
	}
	return out, p, true
}

// EliminatePacking removes the P feature from a program computing a
// flat unary query (Theorem 4.15: packing is redundant): nonrecursive
// programs go through Lemmas 4.10–4.13, recursive ones through the
// doubling simulation (composed with equation elimination when needed).
func EliminatePacking(p ast.Program, output string) (ast.Program, error) {
	if !p.Features().Has(ast.FeatPacking) {
		return p.Clone(), nil
	}
	if !p.HasRecursion() {
		return EliminatePackingNonrecursive(p, output)
	}
	q := p
	if q.Features().Has(ast.FeatEquations) {
		var err error
		q, err = EliminateEquations(q)
		if err != nil {
			return ast.Program{}, err
		}
	}
	return SimulatePackingDoubled(q, output, DefaultDoubleMarkers)
}
