package algebra

import (
	"fmt"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/rewrite"
	"seqlog/internal/value"
)

// Compile translates a nonrecursive program into a sequence relational
// algebra expression computing the given IDB relation (Theorem 7.1):
// equations are first eliminated (Theorem 4.7, as the paper's Lemma 7.2
// assumes), the program is normalized to the six forms, and each form
// is translated:
//
//	form 1 (extraction)   — subpath domain via SUB/UNPACK closure,
//	                        then product + generalized selection
//	form 2 (computed col) — generalized projection
//	form 3 (join)         — product + selection + projection
//	form 4 (antijoin)     — difference of a projection of a product
//	form 5 (projection)   — projection
//	form 6 (constant)     — constant relation
func Compile(p ast.Program, output string) (Expr, error) {
	if p.HasRecursion() {
		return nil, fmt.Errorf("algebra: cannot compile a recursive program (Theorem 7.1 is for nonrecursive programs)")
	}
	var err error
	if p.Features().Has(ast.FeatEquations) {
		p, err = rewrite.EliminateEquations(p)
		if err != nil {
			return nil, err
		}
	}
	p, err = NormalForm(p)
	if err != nil {
		return nil, err
	}
	arities, err := p.Arities()
	if err != nil {
		return nil, err
	}
	idb := map[string][]ast.Rule{}
	for _, r := range p.Rules() {
		idb[r.Head.Name] = append(idb[r.Head.Name], r)
	}
	c := &compiler{arities: arities, idb: idb, memo: map[string]Expr{}}
	if _, ok := idb[output]; !ok {
		if a, ok := arities[output]; ok {
			return Rel{Name: output, NArity: a}, nil
		}
		return nil, fmt.Errorf("algebra: output relation %s does not occur in the program", output)
	}
	return c.rel(output)
}

type compiler struct {
	arities map[string]int
	idb     map[string][]ast.Rule
	memo    map[string]Expr
	depth   int
}

func (c *compiler) rel(name string) (Expr, error) {
	if e, ok := c.memo[name]; ok {
		return e, nil
	}
	rules, isIDB := c.idb[name]
	if !isIDB {
		return Rel{Name: name, NArity: c.arities[name]}, nil
	}
	c.depth++
	if c.depth > 10000 {
		return nil, fmt.Errorf("algebra: relation dependency too deep (recursion?)")
	}
	defer func() { c.depth-- }()
	var out Expr
	for _, r := range rules {
		e, err := c.rule(r)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = e
		} else {
			out = Union{L: out, R: e}
		}
	}
	c.memo[name] = out
	return out, nil
}

func (c *compiler) rule(r ast.Rule) (Expr, error) {
	switch FormOf(r) {
	case Form6:
		t := make(instance.Tuple, len(r.Head.Args))
		for i, a := range r.Head.Args {
			t[i] = a.Eval()
		}
		return Const{NArity: len(t), Tuples: []instance.Tuple{t}}, nil
	case Form1:
		return c.form1(r)
	case Form2:
		return c.form2(r)
	case Form3:
		return c.form3(r)
	case Form4:
		return c.form4(r)
	case Form5:
		return c.form5(r)
	default:
		return nil, fmt.Errorf("algebra: rule not in normal form: %s", r)
	}
}

// posOf maps each variable of the args to its first position (1-based).
func posOf(args []ast.Expr) map[ast.Var]int {
	out := map[ast.Var]int{}
	for i, a := range args {
		if v, ok := a.SoleVar(); ok {
			if _, seen := out[v]; !seen {
				out[v] = i + 1
			}
		}
	}
	return out
}

// toPositional replaces each variable in e by its positional column.
func toPositional(e ast.Expr, pos map[ast.Var]int) ast.Expr {
	sub := ast.Subst{}
	for v, i := range pos {
		sub[v] = Col(i)
	}
	return sub.Apply(e)
}

// form1 translates an extraction rule R1(v...) :- R2(e...): build the
// subpath domain of R2 to the patterns' packing depth, take one domain
// factor per variable, select the components against the patterns, and
// project onto the variables (the construction sketched after
// Lemma 7.2).
func (c *compiler) form1(r ast.Rule) (Expr, error) {
	body := r.Parts().Preds[0]
	base, err := c.rel(body.Name)
	if err != nil {
		return nil, err
	}
	m := len(body.Args)
	vars := make([]ast.Var, len(r.Head.Args))
	seen := map[ast.Var]bool{}
	for i, a := range r.Head.Args {
		v, ok := a.SoleVar()
		if !ok {
			return nil, fmt.Errorf("algebra: malformed form-1 head %s", r.Head)
		}
		vars[i] = v
		seen[v] = true
	}
	nHead := len(vars)
	// Variables occurring only in the body are existential: they get a
	// domain column too, projected away at the end.
	for _, v := range ast.VarsOf(body.Args...) {
		if !seen[v] {
			vars = append(vars, v)
		}
	}
	if m == 0 {
		// R1() :- R2(): possible only with both nullary.
		return base, nil
	}
	// Subpath domain D: all components, closed under substrings and
	// unpacking to the patterns' depth.
	depth := 0
	for _, a := range body.Args {
		for d, t := range a.Terms() {
			if _, packed := t.(ast.Pack); packed {
				depth = max(depth, d+1)
			}
		}
	}
	var dom Expr
	for i := 1; i <= m; i++ {
		p := Project{E: base, Cols: []ast.Expr{Col(i)}}
		if dom == nil {
			dom = Expr(p)
		} else {
			dom = Union{L: dom, R: p}
		}
	}
	for k := 0; k <= depth; k++ {
		dom = Union{L: dom, R: Project{E: Sub{E: dom, I: 1}, Cols: []ast.Expr{Col(2)}}}
		dom = Union{L: dom, R: Unpack{E: dom, I: 1}}
	}
	// Atomic-variable domain: nonempty, not a concatenation of two
	// nonempty subpaths, not packed.
	epsRel := Const{NArity: 1, Tuples: []instance.Tuple{{value.Epsilon}}}
	ne := Diff{L: dom, R: epsRel}
	concat2 := Project{E: Product{L: ne, R: ne}, Cols: []ast.Expr{ast.Cat(Col(1), Col(2))}}
	len1 := Diff{L: ne, R: concat2}
	packed1 := Project{E: Unpack{E: len1, I: 1}, Cols: []ast.Expr{ast.Packed(Col(1))}}
	atomDom := Diff{L: len1, R: packed1}

	e := base
	varPos := map[ast.Var]int{}
	for k, v := range vars {
		if v.Atomic {
			e = Product{L: e, R: atomDom}
		} else {
			e = Product{L: e, R: dom}
		}
		varPos[v] = m + k + 1
	}
	for i, pat := range body.Args {
		e = Select{E: e, L: Col(i + 1), R: toPositional(pat, varPos)}
	}
	cols := make([]ast.Expr, nHead)
	for k := 0; k < nHead; k++ {
		cols[k] = Col(m + k + 1)
	}
	return Project{E: e, Cols: cols}, nil
}

// form2 translates R1(v..., e) :- R2(v...) as a generalized projection.
func (c *compiler) form2(r ast.Rule) (Expr, error) {
	body := r.Parts().Preds[0]
	base, err := c.rel(body.Name)
	if err != nil {
		return nil, err
	}
	pos := posOf(body.Args)
	cols := make([]ast.Expr, len(r.Head.Args))
	for i := range body.Args {
		cols[i] = Col(i + 1)
	}
	cols[len(cols)-1] = toPositional(r.Head.Args[len(r.Head.Args)-1], pos)
	return Project{E: base, Cols: cols}, nil
}

// form3 translates a join via product, selection on shared variables,
// and projection onto the head variables.
func (c *compiler) form3(r ast.Rule) (Expr, error) {
	joined := r.Parts().Preds
	b2, b3 := joined[0], joined[1]
	l, err := c.rel(b2.Name)
	if err != nil {
		return nil, err
	}
	rr, err := c.rel(b3.Name)
	if err != nil {
		return nil, err
	}
	var e Expr = Product{L: l, R: rr}
	pos := map[ast.Var]int{}
	for i, a := range b2.Args {
		v, _ := a.SoleVar()
		if _, seen := pos[v]; !seen {
			pos[v] = i + 1
		}
	}
	for j, a := range b3.Args {
		v, _ := a.SoleVar()
		col := len(b2.Args) + j + 1
		if first, seen := pos[v]; seen {
			e = Select{E: e, L: Col(first), R: Col(col)}
		} else {
			pos[v] = col
		}
	}
	cols := make([]ast.Expr, len(r.Head.Args))
	for i, a := range r.Head.Args {
		v, _ := a.SoleVar()
		cols[i] = Col(pos[v])
	}
	return Project{E: e, Cols: cols}, nil
}

// form4 translates the antijoin R1(v...) :- R2(v...), !R3(v'...) as
// R2 − π(σ(R2 × R3)).
func (c *compiler) form4(r ast.Rule) (Expr, error) {
	parts := r.Parts()
	b2, b3 := parts.Preds[0], parts.NegPreds[0]
	l, err := c.rel(b2.Name)
	if err != nil {
		return nil, err
	}
	rr, err := c.rel(b3.Name)
	if err != nil {
		return nil, err
	}
	n := len(b2.Args)
	pos := posOf(b2.Args)
	var e Expr = Product{L: l, R: rr}
	for j, a := range b3.Args {
		v, _ := a.SoleVar()
		e = Select{E: e, L: Col(pos[v]), R: Col(n + j + 1)}
	}
	cols := make([]ast.Expr, n)
	for i := range cols {
		cols[i] = Col(i + 1)
	}
	return Diff{L: l, R: Project{E: e, Cols: cols}}, nil
}

// form5 translates a projection/permutation rule.
func (c *compiler) form5(r ast.Rule) (Expr, error) {
	body := r.Parts().Preds[0]
	base, err := c.rel(body.Name)
	if err != nil {
		return nil, err
	}
	pos := posOf(body.Args)
	cols := make([]ast.Expr, len(r.Head.Args))
	for i, a := range r.Head.Args {
		v, _ := a.SoleVar()
		cols[i] = Col(pos[v])
	}
	return Project{E: base, Cols: cols}, nil
}
