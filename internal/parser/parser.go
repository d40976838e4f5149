package parser

import (
	"fmt"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/value"
)

type parser struct {
	toks  []token
	pos   int
	depth int // packings parseExpr is inside of
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) *Error {
	return &Error{Line: t.line, Col: t.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind) (token, error) {
	t := p.cur()
	if t.kind != k {
		return t, p.errf(t, "expected %s, found %s", k, t.kind)
	}
	return p.next(), nil
}

// ParseProgram parses a program and checks it against §2.2
// (ast.Program.Check). When the source contains stratum separators
// ("---"), the strata are taken as written; otherwise the rules are
// auto-stratified. An ill-formed program is refused with its first
// violation as an *ast.PosError — the defect, at the position, the
// analyzer reports first.
func ParseProgram(src string) (ast.Program, error) {
	strata, explicit, err := parseStrata(src)
	if err != nil {
		return ast.Program{}, err
	}
	prog := ast.Program{Strata: strata}
	if !explicit {
		return ast.AutoStratify(prog.Rules())
	}
	if err := prog.Validate(); err != nil {
		return ast.Program{}, err
	}
	return prog, nil
}

// ParseProgramForAnalysis parses a program without checking it, for
// callers whose gate is the analyzer (eval.Compile, -vet): they want
// every defect of a broken program with its position, not a refusal to
// look at it. Explicit strata are kept exactly as written (explicit
// reports true); otherwise the rules are arranged by stratification
// levels when possible and kept as a single stratum when no
// stratification exists (the analyzer reports the negation cycle
// itself). Only lexical and grammatical errors are returned.
func ParseProgramForAnalysis(src string) (prog ast.Program, explicit bool, err error) {
	strata, explicit, err := parseStrata(src)
	if err != nil {
		return ast.Program{}, false, err
	}
	prog = ast.Program{Strata: strata}
	if !explicit {
		prog, _ = ast.StratifyLevels(prog.Rules())
	}
	return prog, explicit, nil
}

// ParseRules parses a flat list of rules, ignoring stratum separators.
func ParseRules(src string) ([]ast.Rule, error) {
	strata, _, err := parseStrata(src)
	return ast.Program{Strata: strata}.Rules(), err
}

// MustParseProgram is ParseProgram that panics on error; for tests and
// the built-in query library.
func MustParseProgram(src string) ast.Program {
	prog, err := ParseProgram(src)
	if err != nil {
		panic(fmt.Sprintf("parser: %v\nin program:\n%s", err, src))
	}
	return prog
}

func parseStrata(src string) (strata []ast.Stratum, explicit bool, err error) {
	toks, err := newLexer(src).tokens()
	if err != nil {
		return nil, false, err
	}
	p := &parser{toks: toks}
	current := ast.Stratum{}
	for {
		switch p.cur().kind {
		case tokEOF:
			strata = append(strata, current)
			return strata, explicit, nil
		case tokSep:
			p.next()
			explicit = true
			strata = append(strata, current)
			current = ast.Stratum{}
		default:
			r, err := p.parseRule()
			if err != nil {
				return nil, false, err
			}
			current = append(current, r)
		}
	}
}

// parseRule parses: Head [":-" Literal {"," Literal}] ".".
func (p *parser) parseRule() (ast.Rule, error) {
	head, err := p.parsePred()
	if err != nil {
		return ast.Rule{}, err
	}
	r := ast.Rule{Head: head}
	if p.cur().kind == tokArrow {
		p.next()
		// An empty body before the final dot is allowed ("H :- .").
		if p.cur().kind != tokTermDot {
			for {
				lit, err := p.parseLiteral()
				if err != nil {
					return ast.Rule{}, err
				}
				r.Body = append(r.Body, lit)
				if p.cur().kind != tokComma {
					break
				}
				p.next()
			}
		}
	}
	if _, err := p.expect(tokTermDot); err != nil {
		return ast.Rule{}, err
	}
	return r, nil
}

// parsePred parses Name ["(" Expr {"," Expr} ")"].
func (p *parser) parsePred() (ast.Pred, error) {
	t, err := p.expect(tokIdent)
	if err != nil {
		return ast.Pred{}, err
	}
	pred := ast.Pred{Name: t.text, Pos: ast.Position{Line: t.line, Col: t.col}}
	if p.cur().kind != tokLParen {
		return pred, nil
	}
	p.next()
	for {
		e, err := p.parseExpr()
		if err != nil {
			return ast.Pred{}, err
		}
		pred.Args = append(pred.Args, e)
		if p.cur().kind == tokComma {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return ast.Pred{}, err
	}
	return pred, nil
}

// parseLiteral parses ["!"] (Pred | Expr ("="|"!=") Expr).
func (p *parser) parseLiteral() (ast.Literal, error) {
	neg := false
	if p.cur().kind == tokBang {
		neg = true
		p.next()
	}
	// A predicate starts with an identifier directly followed by '('.
	if p.cur().kind == tokIdent && p.peek().kind == tokLParen {
		pred, err := p.parsePred()
		if err != nil {
			return ast.Literal{}, err
		}
		return ast.Literal{Neg: neg, Atom: pred}, nil
	}
	start := p.cur()
	e, err := p.parseExpr()
	if err != nil {
		return ast.Literal{}, err
	}
	switch p.cur().kind {
	case tokEq, tokNeq:
		op := p.next()
		r, err := p.parseExpr()
		if err != nil {
			return ast.Literal{}, err
		}
		eq := ast.Eq{L: e, R: r, Pos: ast.Position{Line: start.line, Col: start.col}}
		if op.kind == tokNeq {
			if neg {
				return ast.Literal{}, p.errf(op, "cannot negate a nonequality")
			}
			return ast.Neg(eq), nil
		}
		return ast.Literal{Neg: neg, Atom: eq}, nil
	default:
		// Must be a nullary predicate: a single bare identifier.
		if len(e) == 1 {
			if c, ok := e[0].(ast.Const); ok && start.kind == tokIdent {
				return ast.Literal{Neg: neg, Atom: ast.Pred{Name: c.A.Text(), Pos: ast.Position{Line: start.line, Col: start.col}}}, nil
			}
		}
		return ast.Literal{}, p.errf(p.cur(), "expected '=' or '!=' after expression, or a predicate")
	}
}

// parseExpr parses Term {"." Term}; "eps" contributes no terms.
func (p *parser) parseExpr() (ast.Expr, error) {
	e := ast.Expr{}
	for {
		t := p.cur()
		switch t.kind {
		case tokEps:
			p.next()
		case tokIdent, tokQuoted:
			p.next()
			e = append(e, ast.Const{A: t.atom})
		case tokAtomVar:
			p.next()
			e = append(e, ast.VarT{V: ast.AVar(t.text)})
		case tokPathVar:
			p.next()
			e = append(e, ast.VarT{V: ast.PVar(t.text)})
		case tokLAngle:
			if p.depth == value.MaxPackingDepth {
				return nil, p.errf(t, "packing nested deeper than %d", value.MaxPackingDepth)
			}
			p.next()
			p.depth++
			inner, err := p.parseExpr()
			p.depth--
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRAngle); err != nil {
				return nil, err
			}
			e = append(e, ast.Pack{E: inner})
		default:
			return nil, p.errf(t, "expected a term, found %s", t.kind)
		}
		if p.cur().kind == tokDot {
			p.next()
			continue
		}
		return e, nil
	}
}

// ParseInstance parses ground facts, one per rule-like line:
//
//	R(a.b.c).
//	D(q0, a, q1).
//	A.
func ParseInstance(src string) (*instance.Instance, error) {
	toks, err := newLexer(src).tokens()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	inst := instance.New()
	for p.cur().kind != tokEOF {
		if p.cur().kind == tokSep {
			p.next()
			continue
		}
		start := p.cur()
		pred, err := p.parsePred()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokTermDot); err != nil {
			return nil, err
		}
		t := make(instance.Tuple, len(pred.Args))
		for i, a := range pred.Args {
			if !a.IsGround() {
				return nil, p.errf(start, "fact %s has a non-ground argument %s", pred.Name, a)
			}
			t[i] = a.Eval()
		}
		// Instance.Add panics on an arity clash (a programming-error
		// contract); a batch is input from outside, so check here.
		if r := inst.Relation(pred.Name); r != nil && r.Arity != len(t) {
			return nil, p.errf(start, "relation %s used with arity %d here but arity %d earlier in the batch", pred.Name, len(t), r.Arity)
		}
		inst.Add(pred.Name, t)
	}
	return inst, nil
}

// MustParseInstance is ParseInstance that panics on error.
func MustParseInstance(src string) *instance.Instance {
	inst, err := ParseInstance(src)
	if err != nil {
		panic(fmt.Sprintf("parser: %v\nin instance:\n%s", err, src))
	}
	return inst
}

// ParsePath parses a single ground path expression such as "a.b.<c.d>".
func ParsePath(src string) (value.Path, error) {
	toks, err := newLexer(src).tokens()
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF && p.cur().kind != tokTermDot {
		return nil, p.errf(p.cur(), "trailing input after path")
	}
	if !e.IsGround() {
		return nil, fmt.Errorf("path %q contains variables", src)
	}
	return e.Eval(), nil
}
