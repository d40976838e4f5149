// Command seqfrag works with Sequence Datalog fragments (paper §3, §6).
//
// Usage:
//
//	seqfrag -lattice            # print the Figure 1 Hasse diagram
//	seqfrag -lattice -dot       # ... as Graphviz
//	seqfrag -subsumes EI,NR     # decide {E,I} <= {N,R} (Theorem 6.1)
//	seqfrag -features prog.sdl  # detect a program's fragment
//	seqfrag -rewrite AIR -output S -features prog.sdl
//	                            # plan a rewriting into {A,I,R}
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"seqlog/internal/ast"
	"seqlog/internal/core"
	"seqlog/internal/parser"
)

func main() {
	var (
		lattice  = flag.Bool("lattice", false, "print the Figure 1 diagram")
		dot      = flag.Bool("dot", false, "with -lattice: Graphviz output")
		subsumes = flag.String("subsumes", "", "decide F1 <= F2, given as 'F1,F2' (e.g. 'EI,NR')")
		features = flag.String("features", "", "program file: detect and print its fragment")
		target   = flag.String("rewrite", "", "with -features: rewrite the program into this fragment")
		output   = flag.String("output", "S", "output relation for -rewrite")
	)
	flag.Parse()

	switch {
	case *lattice:
		l := core.BuildLattice()
		if *dot {
			fmt.Print(l.DOT())
		} else {
			fmt.Printf("Figure 1: %d equivalence classes of the 16 fragments over {E, I, N, R}\n\n", len(l.Classes))
			fmt.Print(l.ASCII())
		}
	case *subsumes != "":
		parts := strings.SplitN(*subsumes, ",", 2)
		if len(parts) != 2 {
			fail(fmt.Errorf("-subsumes wants 'F1,F2', e.g. 'EI,NR'"))
		}
		f1, ok1 := ast.ParseFeatureSet(parts[0])
		f2, ok2 := ast.ParseFeatureSet(parts[1])
		if !ok1 || !ok2 {
			fail(fmt.Errorf("bad fragment in %q (letters A, E, I, N, P, R)", *subsumes))
		}
		fmt.Printf("%s <= %s : %v\n", f1, f2, core.Subsumes(f1, f2))
		fmt.Printf("%s <= %s : %v\n", f2, f1, core.Subsumes(f2, f1))
	case *features != "":
		src, err := os.ReadFile(*features)
		if err != nil {
			fail(err)
		}
		prog, err := parser.ParseProgram(string(src))
		if err != nil {
			fail(err)
		}
		f := prog.Features()
		fmt.Printf("fragment: %s\nclass:    %s\n", f, core.ClassOf(f).Label())
		if *target != "" {
			tf, ok := ast.ParseFeatureSet(*target)
			if !ok {
				fail(fmt.Errorf("bad target fragment %q", *target))
			}
			res, err := core.RewriteTo(prog, *output, tf)
			if err != nil {
				fail(err)
			}
			fmt.Printf("steps:    %s\nachieved: %s (exact: %v)\n", strings.Join(res.Steps, " -> "), res.Achieved, res.Exact)
			if res.Note != "" {
				fmt.Printf("note:     %s\n", res.Note)
			}
			fmt.Println("---")
			fmt.Print(res.Program.String())
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seqfrag:", err)
	os.Exit(1)
}
