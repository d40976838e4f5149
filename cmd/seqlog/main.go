// Command seqlog evaluates Sequence Datalog programs.
//
// Usage:
//
//	seqlog -program prog.sdl -data facts.sdl [-output S] [-max-facts N] [-workers N]
//	seqlog -query nfa-accept -data facts.sdl
//	seqlog -vet -program prog.sdl [-output S]
//	seqlog -list
//
// Programs use the syntax of the paper in ASCII (see the README):
//
//	S($x) :- R($x), a.$x = $x.a.
//
// With -output the named relation is printed; otherwise all IDB
// relations are printed as facts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"seqlog/internal/analyze"
	"seqlog/internal/ast"
	"seqlog/internal/core"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
)

func main() {
	var (
		programFile = flag.String("program", "", "file holding the program")
		queryName   = flag.String("query", "", "run a built-in paper query instead of -program")
		dataFile    = flag.String("data", "", "file holding the EDB facts")
		output      = flag.String("output", "", "relation to print (default: all IDB relations)")
		maxFacts    = flag.Int("max-facts", eval.DefaultLimits.MaxFacts, "termination guard: maximum derived facts")
		workers     = flag.Int("workers", 1, "fixpoint workers per round (1 = sequential, -1 = all CPUs)")
		list        = flag.Bool("list", false, "list the built-in paper queries")
		vet         = flag.Bool("vet", false, "run the static analyzer and print diagnostics instead of evaluating")
		showProg    = flag.Bool("show-program", false, "print the (stratified) program before evaluating")
		explain     = flag.Bool("explain", false, "print the compiled join plan (predicate order and index usage) before evaluating")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the evaluation to this file (go tool pprof)")
		memProfile  = flag.String("memprofile", "", "write an allocation profile taken after evaluation to this file (go tool pprof)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer addProfileFlush(func() {
			pprof.StopCPUProfile()
			f.Close()
		})()
	}
	if *memProfile != "" {
		defer addProfileFlush(func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "seqlog:", err)
				return
			}
			defer f.Close()
			runtime.GC() // flush recent frees so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "seqlog:", err)
			}
		})()
	}

	if *list {
		for _, q := range queries.All() {
			fmt.Printf("%-22s %-28s %s  %s\n", q.Name, q.Source, q.Fragment(), q.Doc)
		}
		return
	}

	if *vet {
		if *programFile == "" && *queryName == "" {
			fail(fmt.Errorf("-vet needs -program or -query"))
		}
		code, err := runVet(os.Stdout, *programFile, *queryName, *output)
		if err != nil {
			fail(err)
		}
		os.Exit(code)
	}

	prog, _, out, err := loadProgram(*programFile, *queryName, *output)
	if err != nil {
		fail(err)
	}
	// Compile once: it is the one gate (§2.2 check, lints, join planning),
	// as for seqlogd's load, so an ill-formed program is refused with the
	// lines -vet prints for it; -explain and the evaluation share the
	// result.
	prep, err := eval.Compile(prog)
	if err != nil {
		fail(err)
	}
	if *showProg {
		fmt.Print(prog.String())
		fmt.Println("---")
	}
	if *explain {
		for _, l := range prep.Explain() {
			fmt.Println(l)
		}
		fmt.Println("---")
	}

	edb := instance.New()
	if *dataFile != "" {
		src, err := os.ReadFile(*dataFile)
		if err != nil {
			fail(err)
		}
		edb, err = parser.ParseInstance(string(src))
		if err != nil {
			fail(fmt.Errorf("%s: %w", *dataFile, err))
		}
	}

	limits := eval.Limits{MaxFacts: *maxFacts, Parallelism: *workers}
	if out != "" {
		// Prepared.Query rejects output relations unknown to both the
		// program and the instance instead of printing nothing.
		rel, err := prep.Query(edb, out, limits)
		if err != nil {
			fail(err)
		}
		printRelation(out, rel)
		return
	}
	result, err := prep.Eval(edb, limits)
	if err != nil {
		fail(err)
	}
	printRelations(result, prog.IDBNames())
}

// runVet runs the static analyzer over a program file or a built-in
// query and prints every diagnostic as "file:line:col: code: message".
// The exit status is 1 when any diagnostic has warning or error
// severity, 0 when the program is clean (info diagnostics — the
// fragment report — do not fail the vet).
func runVet(w io.Writer, file, query, output string) (int, error) {
	prog, explicit, output, err := loadProgram(file, query, output)
	if err != nil {
		return 0, err
	}
	label := file
	if query != "" {
		label = query
	}
	var outputs []string
	if output != "" {
		outputs = []string{output}
	}
	diags := analyze.Check(prog, analyze.Options{
		Outputs:        outputs,
		ExplicitStrata: explicit,
		ClassLabel:     func(f ast.FeatureSet) string { return core.ClassOf(f).Label() },
	})
	status := 0
	for _, d := range diags {
		fmt.Fprintln(w, d.Format(label))
		if d.Severity != analyze.Info {
			status = 1
		}
	}
	return status, nil
}

// loadProgram reads the program to run or vet — a built-in query
// (strata as registered, output defaulting to the query's) or a source
// file — without checking it: eval.Compile and analyze.Check are the
// gates. explicit reports whether the strata are the author's.
func loadProgram(file, query, output string) (prog ast.Program, explicit bool, out string, err error) {
	switch {
	case file != "" && query != "":
		return ast.Program{}, false, "", fmt.Errorf("use either -program or -query, not both")
	case query != "":
		q, err := queries.Get(query)
		if err != nil {
			return ast.Program{}, false, "", err
		}
		if output == "" {
			output = q.Output
		}
		return q.Program, true, output, nil
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return ast.Program{}, false, "", err
		}
		prog, explicit, err := parser.ParseProgramForAnalysis(string(src))
		if err != nil {
			return ast.Program{}, false, "", fmt.Errorf("%s: %w", file, err)
		}
		return prog, explicit, output, nil
	default:
		return ast.Program{}, false, "", fmt.Errorf("one of -program, -query or -list is required")
	}
}

func printRelations(inst *instance.Instance, names []string) {
	for _, n := range names {
		if rel := inst.Relation(n); rel != nil {
			printRelation(n, rel)
		}
	}
}

func printRelation(name string, rel *instance.Relation) {
	if err := rel.WriteFacts(os.Stdout, name); err != nil {
		fail(err)
	}
}

// profileFlushes holds the pending profile finalizers. fail() runs
// them before os.Exit (which skips defers), so -cpuprofile and
// -memprofile produce usable files even when evaluation errors — the
// run one most wants to profile. addProfileFlush registers a
// once-guarded finalizer and returns it, so the caller defers the very
// function fail() would run and a flush can never happen twice.
var profileFlushes []func()

func addProfileFlush(f func()) func() {
	var once sync.Once
	wrapped := func() { once.Do(f) }
	profileFlushes = append(profileFlushes, wrapped)
	return wrapped
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seqlog:", err)
	for _, f := range profileFlushes {
		f()
	}
	os.Exit(1)
}
