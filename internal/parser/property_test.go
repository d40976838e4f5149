package parser

import (
	"math/rand"
	"strings"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/value"
)

// randomRule builds a random safe-ish rule for print/parse round-trips
// (safety does not matter: ParseRules skips validation).
func randomRule(r *rand.Rand) ast.Rule {
	expr := func() ast.Expr { return randomExprP(r, 2) }
	head := ast.Pred{Name: "H", Args: []ast.Expr{expr()}}
	n := r.Intn(3) + 1
	var body []ast.Literal
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			body = append(body, ast.Pos(ast.Pred{Name: "R", Args: []ast.Expr{expr()}}))
		case 1:
			body = append(body, ast.Neg(ast.Pred{Name: "Q", Args: []ast.Expr{expr(), expr()}}))
		case 2:
			body = append(body, ast.Pos(ast.Eq{L: expr(), R: expr()}))
		case 3:
			body = append(body, ast.Neg(ast.Eq{L: expr(), R: expr()}))
		}
	}
	return ast.Rule{Head: head, Body: body}
}

func randomExprP(r *rand.Rand, depth int) ast.Expr {
	n := r.Intn(4)
	e := ast.Expr{}
	for i := 0; i < n; i++ {
		switch r.Intn(5) {
		case 0:
			e = append(e, ast.Const{A: value.Intern([]string{"a", "b", "complete order", "x_1", "eps"}[r.Intn(5)])})
		case 1:
			e = append(e, ast.VarT{V: ast.PVar([]string{"x", "y"}[r.Intn(2)])})
		case 2:
			e = append(e, ast.VarT{V: ast.AVar([]string{"u", "v"}[r.Intn(2)])})
		case 3:
			if depth > 0 {
				e = append(e, ast.Pack{E: randomExprP(r, depth-1)})
			}
		case 4:
			e = append(e, ast.Const{A: value.Intern("0")})
		}
	}
	return e
}

// TestPrintParseRoundtrip: printing a rule and parsing it back yields a
// syntactically identical rule.
func TestPrintParseRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4000; trial++ {
		rule := randomRule(r)
		printed := rule.String()
		back, err := ParseRules(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", printed, err)
		}
		if len(back) != 1 {
			t.Fatalf("reparse of %q gave %d rules", printed, len(back))
		}
		if back[0].String() != printed {
			t.Fatalf("roundtrip mismatch:\n%q\n%q", printed, back[0].String())
		}
	}
}

// randomPath builds a ground path with packing nested up to depth and
// atoms the renderer must quote: ε and the empty atom, the keywords eps
// and not, the structural characters, a quote, a backslash, non-ASCII
// text.
func randomPath(r *rand.Rand, depth int) value.Path {
	atoms := []string{"a", "b c", "0", "d.e", "'q'", "eps", "", "<", ">", "é", "it's", `a\b`, "not"}
	n := r.Intn(4)
	p := make(value.Path, 0, n)
	for i := 0; i < n; i++ {
		if depth > 0 && r.Intn(4) == 0 {
			p = append(p, value.Pack(randomPath(r, depth-1)))
		} else {
			p = append(p, value.Intern(atoms[r.Intn(len(atoms))]))
		}
	}
	return p
}

// TestPathPrintParseRoundtrip for ground paths, including packing and
// quoting.
func TestPathPrintParseRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 4000; trial++ {
		p := randomPath(r, 3)
		printed := p.String()
		back, err := ParsePath(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v", printed, err)
		}
		if !back.Equal(p) {
			t.Fatalf("roundtrip mismatch: %v -> %q -> %v", p, printed, back)
		}
	}
}

// TestWriteFactsParseRoundtrip: every line Relation.WriteFacts prints —
// what seqlog, seqlogd's query reply and Instance.String show — parses
// back, alone, to the tuple it was printed from.
func TestWriteFactsParseRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for arity := 0; arity <= 3; arity++ {
		rel := instance.NewRelation(arity)
		for k := 0; k < 500; k++ {
			tup := make(instance.Tuple, arity)
			for i := range tup {
				tup[i] = randomPath(r, 3)
			}
			rel.Add(tup)
		}
		var printed strings.Builder
		if err := rel.WriteFacts(&printed, "R"); err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(printed.String(), "\n")
		lines = lines[:len(lines)-1] // SplitAfter leaves "" after the last newline
		sorted := rel.Sorted()
		if len(lines) != len(sorted) {
			t.Fatalf("arity %d: %d lines for %d tuples", arity, len(lines), len(sorted))
		}
		for i, line := range lines {
			back, err := ParseInstance(line)
			if err != nil {
				t.Fatalf("reparse of %q failed: %v", line, err)
			}
			if got := back.Relation("R"); got == nil || got.Len() != 1 || !got.Contains(sorted[i]) {
				t.Fatalf("roundtrip mismatch: %v -> %q -> %v", sorted[i], line, back)
			}
		}
	}
}
