package rewrite

import (
	"testing"

	"seqlog/internal/parser"
)

// Arity elimination on reverse-arity and packing elimination on
// three-occurrences are timed by seqbench (rewrite.eliminate_us); the
// latter also at the root (BenchmarkPackingEliminationTransform).

func BenchmarkEliminateEquations(b *testing.B) {
	prog := parser.MustParseProgram(`
U($x, $x) :- R($x).
U($x, $y) :- U($x, @a.$y.@b), @a != @b.
S($x) :- U($x, eps).`)
	for i := 0; i < b.N; i++ {
		if _, err := EliminateEquations(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatePackingDoubled(b *testing.B) {
	prog := parser.MustParseProgram(`
T($x, $x, eps) :- R($x).
T($x, $y, <$d>) :- T($x, @a.@b.$y, $d).
S($x) :- T($x, eps, $d).`)
	for i := 0; i < b.N; i++ {
		if _, err := SimulatePackingDoubled(prog, "S", DefaultDoubleMarkers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEliminateIntermediates(b *testing.B) {
	prog := parser.MustParseProgram(`
T1($x.$x) :- R($x).
T2($y.b) :- T1($y).
T3($z) :- T2($z.b), Q($z).
S($w.c) :- T3($w).`)
	for i := 0; i < b.N; i++ {
		if _, err := EliminateIntermediates(prog, "S"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkToClassical(b *testing.B) {
	prog := parser.MustParseProgram(`
W(@x) :- R(@x.@y), !B(@y).
---
S(@x) :- R(@x.@y), !W(@x).`)
	for i := 0; i < b.N; i++ {
		if _, err := ToClassical(prog); err != nil {
			b.Fatal(err)
		}
	}
}
