package unify

import (
	"testing"

	"seqlog/internal/ast"
)

// The Figure 2 equation is timed at the root (BenchmarkFigure2Unify,
// budgeted by TestAllocBudgets) and by seqbench's unify.solve_us.

func BenchmarkEmptyClosure(b *testing.B) {
	eq := Equation{
		L: ast.Cat(ast.P("x"), ast.C("a"), ast.P("y")),
		R: ast.Cat(ast.P("u"), ast.P("v")),
	}
	for i := 0; i < b.N; i++ {
		Solve(eq, Options{AllowEmpty: true})
	}
}

func BenchmarkGroundEquation(b *testing.B) {
	l := ast.Expr{}
	for i := 0; i < 32; i++ {
		l = ast.Cat(l, ast.C("a"))
	}
	eq := Equation{L: ast.Cat(ast.P("x"), ast.P("y")), R: l}
	for i := 0; i < b.N; i++ {
		Solve(eq, Options{})
	}
}
