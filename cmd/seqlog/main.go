// Command seqlog evaluates Sequence Datalog programs and, under its
// subcommands, runs the paper's other constructions on them.
//
// Usage:
//
//	seqlog -program prog.sdl -data facts.sdl [-output S] [-max-facts N]
//	seqlog -query nfa-accept -data facts.sdl
//	seqlog -vet -program prog.sdl [-output S]
//	seqlog -list
//	seqlog frag -lattice               # the Figure 1 Hasse diagram (§3, §6)
//	seqlog frag -lattice -dot          # ... as Graphviz
//	seqlog frag -subsumes EI,NR        # decide {E,I} <= {N,R} (Theorem 6.1)
//	seqlog frag -features prog.sdl     # detect a program's fragment
//	seqlog frag -rewrite AIR -output S -features prog.sdl
//	                                   # plan a rewriting into {A,I,R}
//	seqlog ra -program prog.sdl -output S              # the §7 algebra plan (Theorem 7.1)
//	seqlog ra -program prog.sdl -output S -data f.sdl  # ... and run it
//	seqlog ra -program prog.sdl -output S -normal      # the Lemma 7.2 normal form
//	seqlog unify '$x.<@y.$z>.@w = $u.$v.$u'  # associative unification (§4.3, Figure 2)
//	seqlog unify -empty '$x.$y = a.b'        # allow empty-path solutions
//	seqlog unify -dot '$x.a = a.$x'          # print the search DAG
//
// Programs use the syntax of the paper in ASCII (see the README):
//
//	S($x) :- R($x), a.$x = $x.a.
//
// With -output the named relation is printed; otherwise all IDB
// relations are printed as facts.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"seqlog/internal/algebra"
	"seqlog/internal/analyze"
	"seqlog/internal/ast"
	"seqlog/internal/core"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/rewrite"
	"seqlog/internal/unify"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A command declares its flags on fs and returns what runs once they
// are parsed. Its error lines and usage carry fs.Name() ("seqlog", or
// "seqlog frag" under a subcommand) and go to fs.Output().
type command func(fs *flag.FlagSet, stdout io.Writer) func() error

// exit is an error that is only an exit status: whatever there was to
// say has been printed (a usage line, -vet's diagnostics).
type exit int

func (e exit) Error() string { return fmt.Sprint("exit status ", int(e)) }

// subcommands is the ordered dispatch table: a first argument that does
// not start with "-" selects one; anything else is the evaluator.
var subcommands = []struct {
	name string
	cmd  command
}{
	{"frag", fragCmd},
	{"ra", raCmd},
	{"unify", unifyCmd},
}

func run(args []string, stdout, stderr io.Writer) int {
	name, cmd := "seqlog", command(evalCmd)
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd = nil
		names := make([]string, len(subcommands))
		for i, s := range subcommands {
			names[i] = s.name
			if s.name == args[0] {
				cmd = s.cmd
			}
		}
		if cmd == nil {
			fmt.Fprintf(stderr, "%s: unknown command %q (%s)\n", name, args[0], strings.Join(names, ", "))
			return 2
		}
		name, args = name+" "+args[0], args[1:]
	}
	// flag.ExitOnError's statuses without its exit, so that tests can
	// drive run in process; fs itself prints the error and the usage.
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	// Buffered: the subcommands print in many small writes, each a
	// write(2) straight to os.Stdout. Nothing is written before body
	// runs, and it is flushed before an error goes to stderr.
	out := bufio.NewWriter(stdout)
	body := cmd(fs, out)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	err := body()
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	var status exit
	switch {
	case err == nil:
		return 0
	case errors.As(err, &status):
		return int(status)
	default:
		fmt.Fprintf(stderr, "%s: %v\n", name, err)
		return 1
	}
}

func evalCmd(fs *flag.FlagSet, stdout io.Writer) func() error {
	limits := eval.Limits{MaxFacts: eval.DefaultLimits.MaxFacts}
	fs.Func("max-facts", fmt.Sprintf("termination guard: maximum derived facts (default %d)", limits.MaxFacts), limits.SetMaxFacts)
	var (
		programFile = fs.String("program", "", "file holding the program")
		queryName   = fs.String("query", "", "run a built-in paper query instead of -program")
		dataFile    = fs.String("data", "", "file holding the EDB facts")
		output      = fs.String("output", "", "relation to print (default: all IDB relations)")
		list        = fs.Bool("list", false, "list the built-in paper queries")
		vet         = fs.Bool("vet", false, "run the static analyzer and print diagnostics instead of evaluating")
		showProg    = fs.Bool("show-program", false, "print the (stratified) program before evaluating")
		explain     = fs.Bool("explain", false, "print the compiled join plan (predicate order and index usage) before evaluating")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the evaluation to this file (go tool pprof)")
		memProfile  = fs.String("memprofile", "", "write an allocation profile taken after evaluation to this file (go tool pprof)")
	)
	return func() error {
		// The profiles are finished by defers, which run on the error
		// returns too: a failing evaluation is the one most worth profiling.
		if *cpuProfile != "" {
			f, err := os.Create(*cpuProfile)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			defer pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			defer func() {
				f, err := os.Create(*memProfile)
				if err == nil {
					defer f.Close()
					runtime.GC() // flush recent frees so the profile shows live data
					err = pprof.WriteHeapProfile(f)
				}
				if err != nil {
					fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
				}
			}()
		}

		if *list {
			for _, q := range queries.All() {
				fmt.Fprintf(stdout, "%-22s %-28s %s  %s\n", q.Name, q.Source, q.Fragment(), q.Doc)
			}
			return nil
		}

		if *vet {
			if *programFile == "" && *queryName == "" {
				return fmt.Errorf("-vet needs -program or -query")
			}
			return runVet(stdout, *programFile, *queryName, *output)
		}

		prog, out, err := loadProgram(*programFile, *queryName, *output)
		if err != nil {
			return err
		}
		// Compile once: it is the one gate (§2.2 check, lints, join planning),
		// as for seqlogd's load, so an ill-formed program is refused with the
		// lines -vet prints for it; -explain and the evaluation share the
		// result.
		prep, err := eval.Compile(prog)
		if err != nil {
			return err
		}
		if *showProg {
			fmt.Fprint(stdout, prog.String())
			fmt.Fprintln(stdout, "---")
		}
		if *explain {
			for _, l := range prep.Explain() {
				fmt.Fprintln(stdout, l)
			}
			fmt.Fprintln(stdout, "---")
		}

		edb := instance.New()
		if *dataFile != "" {
			src, err := os.ReadFile(*dataFile)
			if err != nil {
				return err
			}
			edb, err = parser.ParseInstance(string(src))
			if err != nil {
				return fmt.Errorf("%s: %w", *dataFile, err)
			}
		}

		if out != "" {
			// Prepared.Query rejects output relations unknown to both the
			// program and the instance instead of printing nothing.
			rel, err := prep.Query(edb, out, limits)
			if err != nil {
				return err
			}
			return rel.WriteFacts(stdout, out)
		}
		result, err := prep.Eval(edb, limits)
		if err != nil {
			return err
		}
		for _, n := range prog.IDBNames() {
			if rel := result.Relation(n); rel != nil {
				if err := rel.WriteFacts(stdout, n); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// runVet runs the static analyzer over a program file or a built-in
// query and prints every diagnostic as "file:line:col: code: message".
// The result is exit(1) when any diagnostic has warning or error
// severity, nil when the program is clean (info diagnostics — the
// fragment report — do not fail the vet).
func runVet(w io.Writer, file, query, output string) error {
	prog, output, err := loadProgram(file, query, output)
	if err != nil {
		return err
	}
	label := file
	if query != "" {
		label = query
	}
	var outputs []string
	if output != "" {
		outputs = []string{output}
	}
	diags := analyze.Check(prog, analyze.Options{Outputs: outputs})
	var status error
	for _, d := range diags {
		fmt.Fprintln(w, d.Format(label))
		if d.Severity != analyze.Info {
			status = exit(1)
		}
	}
	return status
}

// loadProgram reads the program to run or vet — a built-in query
// (strata as registered, output defaulting to the query's) or a source
// file — without checking it: eval.Compile and analyze.Check are the
// gates.
func loadProgram(file, query, output string) (prog ast.Program, out string, err error) {
	switch {
	case file != "" && query != "":
		return ast.Program{}, "", fmt.Errorf("use either -program or -query, not both")
	case query != "":
		q, err := queries.Get(query)
		if err != nil {
			return ast.Program{}, "", err
		}
		if output == "" {
			output = q.Output
		}
		return q.Program, output, nil
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return ast.Program{}, "", err
		}
		prog, _, err := parser.ParseProgramForAnalysis(string(src))
		if err != nil {
			return ast.Program{}, "", fmt.Errorf("%s: %w", file, err)
		}
		return prog, output, nil
	default:
		return ast.Program{}, "", fmt.Errorf("one of -program, -query or -list is required")
	}
}

// parseFile reads a source file and hands its text to parse.
func parseFile[T any](file string, parse func(string) (T, error)) (v T, err error) {
	src, err := os.ReadFile(file)
	if err != nil {
		return v, err
	}
	return parse(string(src))
}

// fragCmd works with fragments: the Figure 1 lattice, Theorem 6.1
// subsumption, a program's fragment and its rewriting into another.
func fragCmd(fs *flag.FlagSet, stdout io.Writer) func() error {
	var (
		lattice  = fs.Bool("lattice", false, "print the Figure 1 diagram")
		dot      = fs.Bool("dot", false, "with -lattice: Graphviz output")
		subsumes = fs.String("subsumes", "", "decide F1 <= F2, given as 'F1,F2' (e.g. 'EI,NR')")
		features = fs.String("features", "", "program file: detect and print its fragment")
		target   = fs.String("rewrite", "", "with -features: rewrite the program into this fragment")
		output   = fs.String("output", "S", "output relation for -rewrite")
	)
	return func() error {
		switch {
		case *lattice && *dot:
			fmt.Fprint(stdout, core.BuildLattice().DOT())
		case *lattice:
			l := core.BuildLattice()
			fmt.Fprintf(stdout, "Figure 1: %d equivalence classes of the 16 fragments over {E, I, N, R}\n\n", len(l.Classes))
			fmt.Fprint(stdout, l.ASCII())
		case *subsumes != "":
			a, b, ok := strings.Cut(*subsumes, ",")
			if !ok {
				return fmt.Errorf("-subsumes wants 'F1,F2', e.g. 'EI,NR'")
			}
			f1, ok1 := ast.ParseFeatureSet(a)
			f2, ok2 := ast.ParseFeatureSet(b)
			if !ok1 || !ok2 {
				return fmt.Errorf("bad fragment in %q (letters A, E, I, N, P, R)", *subsumes)
			}
			fmt.Fprintf(stdout, "%s <= %s : %v\n", f1, f2, core.Subsumes(f1, f2))
			fmt.Fprintf(stdout, "%s <= %s : %v\n", f2, f1, core.Subsumes(f2, f1))
		case *features != "":
			prog, err := parseFile(*features, parser.ParseProgram)
			if err != nil {
				return err
			}
			f := prog.Features()
			fmt.Fprintf(stdout, "fragment: %s\nclass:    %s\n", f, core.ClassOf(f).Label())
			if *target == "" {
				return nil
			}
			tf, ok := ast.ParseFeatureSet(*target)
			if !ok {
				return fmt.Errorf("bad target fragment %q", *target)
			}
			res, err := rewrite.ToFragment(prog, *output, tf)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "steps:    %s\nachieved: %s (exact: %v)\n", strings.Join(res.Steps, " -> "), res.Achieved, res.Exact)
			if res.Note != "" {
				fmt.Fprintf(stdout, "note:     %s\n", res.Note)
			}
			fmt.Fprintf(stdout, "---\n%s", res.Program)
		default:
			fs.Usage()
			return exit(2)
		}
		return nil
	}
}

// raCmd compiles a nonrecursive program to the sequence relational
// algebra of §7 (Theorem 7.1) and, given -data, runs the plan.
func raCmd(fs *flag.FlagSet, stdout io.Writer) func() error {
	var (
		programFile = fs.String("program", "", "file holding the nonrecursive program")
		output      = fs.String("output", "S", "output relation")
		dataFile    = fs.String("data", "", "EDB facts; when given, the plan is evaluated")
		normal      = fs.Bool("normal", false, "print the Lemma 7.2 normal form instead of the plan")
	)
	return func() error {
		if *programFile == "" {
			fmt.Fprintf(fs.Output(), "usage: %s -program prog.sdl -output S [-data facts.sdl] [-normal]\n", fs.Name())
			return exit(2)
		}
		prog, err := parseFile(*programFile, parser.ParseProgram)
		if err != nil {
			return err
		}
		if *normal {
			if prog.Features().Has(ast.FeatEquations) {
				if prog, err = rewrite.EliminateEquations(prog); err != nil {
					return err
				}
			}
			nf, err := algebra.NormalForm(prog)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, nf.String())
			return nil
		}
		expr, err := algebra.Compile(prog, *output)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "plan (%d operators):\n%s\n", algebra.Size(expr), expr)
		if *dataFile == "" {
			return nil
		}
		edb, err := parseFile(*dataFile, parser.ParseInstance)
		if err != nil {
			return err
		}
		rel, err := algebra.Eval(expr, edb)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "---")
		return rel.WriteFacts(stdout, *output)
	}
}

// unifyCmd solves one path-expression equation by associative
// unification (§4.3, Figure 2).
func unifyCmd(fs *flag.FlagSet, stdout io.Writer) func() error {
	var (
		empty = fs.Bool("empty", false, "apply the footnote-4 empty-word closure")
		dot   = fs.Bool("dot", false, "print the search DAG as Graphviz")
		max   = fs.Int("max-states", unify.DefaultMaxStates, "state budget")
	)
	return func() error {
		if fs.NArg() != 1 {
			fmt.Fprintf(fs.Output(), "usage: %s [-empty] [-dot] 'e1 = e2'\n", fs.Name())
			return exit(2)
		}
		l, r, ok := strings.Cut(fs.Arg(0), "=")
		if !ok {
			return fmt.Errorf("no '=' in %q", fs.Arg(0))
		}
		var eq unify.Equation
		var err error
		if eq.L, err = parseExpr(l); err != nil {
			return err
		}
		if eq.R, err = parseExpr(r); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "equation:            %s\n", eq)
		fmt.Fprintf(stdout, "one-sided nonlinear: %v\n", eq.OneSidedNonlinear())
		res := unify.Solve(eq, unify.Options{AllowEmpty: *empty, MaxStates: *max, CollectGraph: *dot})
		fmt.Fprintf(stdout, "states explored:     %d\n", res.States)
		fmt.Fprintf(stdout, "complete:            %v\n", res.Complete)
		fmt.Fprintf(stdout, "symbolic solutions:  %d\n", len(res.Solutions))
		for _, s := range res.Solutions {
			fmt.Fprintf(stdout, "  %s\n", s)
		}
		if *dot && res.Graph != nil {
			fmt.Fprintf(stdout, "---\n%s", res.Graph.DOT())
		}
		return nil
	}
}

// parseExpr parses one side of an equation by wrapping it in a dummy
// predicate.
func parseExpr(src string) (ast.Expr, error) {
	rules, err := parser.ParseRules("X(" + strings.TrimSpace(src) + ").")
	if err != nil {
		return nil, fmt.Errorf("bad expression %q: %w", src, err)
	}
	return rules[0].Head.Args[0], nil
}
