// Command seqra compiles nonrecursive Sequence Datalog programs to the
// sequence relational algebra of §7 (Theorem 7.1) and optionally runs
// the compiled plan.
//
// Usage:
//
//	seqra -program prog.sdl -output S            # print the plan
//	seqra -program prog.sdl -output S -data f.sdl  # run it
//	seqra -program prog.sdl -output S -normal    # print the Lemma 7.2 normal form
package main

import (
	"flag"
	"fmt"
	"os"

	"seqlog/internal/algebra"
	"seqlog/internal/ast"
	"seqlog/internal/parser"
	"seqlog/internal/rewrite"
)

func main() {
	var (
		programFile = flag.String("program", "", "file holding the nonrecursive program")
		output      = flag.String("output", "S", "output relation")
		dataFile    = flag.String("data", "", "EDB facts; when given, the plan is evaluated")
		normal      = flag.Bool("normal", false, "print the Lemma 7.2 normal form instead of the plan")
	)
	flag.Parse()
	if *programFile == "" {
		fmt.Fprintln(os.Stderr, "usage: seqra -program prog.sdl -output S [-data facts.sdl] [-normal]")
		os.Exit(2)
	}
	src, err := os.ReadFile(*programFile)
	if err != nil {
		fail(err)
	}
	prog, err := parser.ParseProgram(string(src))
	if err != nil {
		fail(err)
	}
	if *normal {
		p := prog
		if p.Features().Has(ast.FeatEquations) {
			p, err = rewrite.EliminateEquations(p)
			if err != nil {
				fail(err)
			}
		}
		nf, err := algebra.NormalForm(p)
		if err != nil {
			fail(err)
		}
		fmt.Print(nf.String())
		return
	}
	expr, err := algebra.Compile(prog, *output)
	if err != nil {
		fail(err)
	}
	fmt.Printf("plan (%d operators):\n%s\n", algebra.Size(expr), expr)
	if *dataFile == "" {
		return
	}
	data, err := os.ReadFile(*dataFile)
	if err != nil {
		fail(err)
	}
	edb, err := parser.ParseInstance(string(data))
	if err != nil {
		fail(err)
	}
	rel, err := algebra.Eval(expr, edb)
	if err != nil {
		fail(err)
	}
	fmt.Println("---")
	if err := rel.WriteFacts(os.Stdout, *output); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seqra:", err)
	os.Exit(1)
}
