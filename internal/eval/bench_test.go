package eval

import (
	"fmt"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/value"
	"seqlog/internal/workload"
)

// matchBody returns one match of e against p under a warm Env, e
// compiled once as a plan step's argument is: what the matcher
// benchmarks time and TestMatchAllocs (run_test.go) pins at zero
// allocations, on the same inputs.
func matchBody(e ast.Expr, p value.Path) func() {
	env := NewEnv()
	x := env.number(e)[0]
	count := 0
	return func() { env.matchSeq(x, p, func() { count++ }) }
}

// twoPathVars is $x.m.$y against a^(n/2).m.b^(n/2): one split matches.
func twoPathVars(n int) func() {
	return matchBody(ast.Cat(ast.P("x"), ast.C("m"), ast.P("y")),
		value.Concat(value.Repeat("a", n/2), value.PathOf("m"), value.Repeat("b", n/2)))
}

// packedMatch is $u.<$s>.$v against x^8.<a^8>.y^8.
func packedMatch() func() {
	return matchBody(ast.Cat(ast.P("u"), ast.Packed(ast.P("s")), ast.P("v")),
		value.Concat(value.Repeat("x", 8), value.Path{value.Pack(value.Repeat("a", 8))}, value.Repeat("y", 8)))
}

// tupleAtomic is the recursive transitive-closure step R(@y.@z) of
// T(@x.@z) :- T(@x.@y), R(@y.@z): four 2-atom tuples matched against
// @y.@z, with @y bound by the T step before it, or free as when R is
// the delta step.
func tupleAtomic(bound bool) func() {
	env := NewEnv()
	args := env.number(ast.Cat(ast.A("x"), ast.A("y")), ast.Cat(ast.A("y"), ast.A("z")))[1:]
	if bound {
		env.vals[1], env.bound[1] = value.PathOf("b"), true // slot 1 is @y
	}
	var tuples [][]value.Path
	for _, edge := range []string{"a.b", "b.c", "b.d", "c.d"} {
		tuples = append(tuples, []value.Path{mustPath(edge)})
	}
	count := 0
	return func() {
		for _, t := range tuples {
			env.matchTuple(args, t, func() { count++ })
		}
	}
}

// repeatedMatch is reverse-noarity's recursive body,
// $x.@u.a.$y.a.$x.@u.b.$y, against a T fact of that program halfway
// through reversing a path of n atoms over {c, d, e}: $x takes n/2-1
// atoms and $y n/2, so the fact is 2n+3 long and one split matches.
func repeatedMatch(n int) func() {
	atoms := make([]string, n)
	for i := range atoms {
		atoms[i] = []string{"c", "d", "e"}[i%3]
	}
	x, u, y := value.PathOf(atoms[:n/2-1]...), value.PathOf(atoms[n/2-1]), value.PathOf(atoms[n/2:]...)
	a, b := value.PathOf("a"), value.PathOf("b")
	return matchBody(ast.Cat(ast.P("x"), ast.A("u"), ast.C("a"), ast.P("y"), ast.C("a"), ast.P("x"), ast.A("u"), ast.C("b"), ast.P("y")),
		value.Concat(x, u, a, y, a, x, u, b, y))
}

var matchLens = []int{8, 64, 256}

func BenchmarkMatchTwoPathVars(b *testing.B) {
	for _, n := range matchLens {
		op := twoPathVars(n)
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

func BenchmarkMatchTupleAtomic(b *testing.B) {
	for _, bound := range []bool{true, false} {
		op := tupleAtomic(bound)
		b.Run(fmt.Sprintf("bound=%v", bound), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

func BenchmarkMatchBacktracking(b *testing.B) {
	// Three unanchored path variables: quadratic split enumeration.
	op := matchBody(ast.Cat(ast.P("x"), ast.P("y"), ast.P("z")), value.Repeat("a", 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkMatchRepeated(b *testing.B) {
	for _, n := range matchLens[1:] {
		op := repeatedMatch(n)
		b.Run(fmt.Sprintf("len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

func BenchmarkMatchPacked(b *testing.B) {
	op := packedMatch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkSemiNaiveChain(b *testing.B) {
	prog := parser.MustParseProgram(`
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).`)
	for _, n := range []int{16, 48} {
		edb := parser.MustParseInstance(chainFacts(n))
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compiled(b, prog).Eval(edb, Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func chainFacts(n int) string {
	s := ""
	for i := 0; i < n; i++ {
		s += fmt.Sprintf("R(n%d.n%d).\n", i, i+1)
	}
	return s
}

// BenchmarkTransitiveClosureGraph is the graphpaths workload of the
// acceptance criterion: reachability over a random graph with 1000
// edges encoded as length-2 paths (§5.1.1). The recursive rule's
// R(@y.@z) atom has a ground prefix @y at join time, so the join
// probes the out-edges of y instead of scanning every edge.
func BenchmarkTransitiveClosureGraph(b *testing.B) {
	prog := parser.MustParseProgram(`
T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).
S :- T(a.b).`)
	for _, nodes := range []int{60, 200} {
		edb := workload.Graph(9, nodes, 1000)
		// "indexed" stays in the series name so the archived trajectory
		// continues; the scan baseline it was paired with is retired.
		b.Run(fmt.Sprintf("nodes=%d/edges=1000/indexed", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compiled(b, prog).Eval(edb, Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcatJoin is a sequence-concatenation workload: stitch
// together A-strings ending in a key atom with B-strings starting with
// it. The B(@k.$y) atom joins on a ground prefix: |A|·matches match
// attempts, where a scan would pay |A|·|B|.
func BenchmarkConcatJoin(b *testing.B) {
	prog := parser.MustParseProgram(`J($x.@k.$y) :- A($x.@k), B(@k.$y).`)
	for _, n := range []int{64, 256} {
		edb := concatWorkload(n)
		b.Run(fmt.Sprintf("strings=%d/indexed", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compiled(b, prog).Eval(edb, Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// concatWorkload builds n A-strings and n B-strings of length 5 over a
// 16-key join alphabet.
func concatWorkload(n int) *instance.Instance {
	inst := instance.New()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i%16)
		inst.AddPath("A", value.Concat(value.Repeat(fmt.Sprintf("a%d", i), 4), value.PathOf(key)))
		inst.AddPath("B", value.Concat(value.PathOf(key), value.Repeat(fmt.Sprintf("b%d", i), 4)))
	}
	return inst
}

// BenchmarkFrontEnd measures the compile-time path over the whole paper
// corpus: program text to a planned *Prepared for every queries.All()
// program. "validated" is the library path (parser.ParseProgram checks
// §2.2, Compile checks again); "gate-once" is what seqlog -program and
// seqlogd's load do (parse unchecked, Compile is the one gate).
func BenchmarkFrontEnd(b *testing.B) {
	var sources []string
	for _, q := range queries.All() {
		sources = append(sources, q.Program.String())
	}
	parsers := []struct {
		name  string
		parse func(string) (ast.Program, error)
	}{
		{"validated", parser.ParseProgram},
		{"gate-once", func(src string) (ast.Program, error) {
			prog, _, err := parser.ParseProgramForAnalysis(src)
			return prog, err
		}},
	}
	for _, p := range parsers {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, src := range sources {
					prog, err := p.parse(src)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := Compile(prog); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
