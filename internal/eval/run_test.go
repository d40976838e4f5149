package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/fuzztest"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
)

// TestWarmFrameAllocs pins what the run frame is for: re-running a
// hoisted variant over a one-tuple window through a driver that has
// already run it allocates nothing — not per run, not per step, not per
// binding. Before the frame one such run made 14 allocations on the
// 2-step plan and 19 on the 4-step one (four slices and an Env per run,
// scratch per predicate step, a closure per candidate, a path per
// atomic binding). A negated atom's variant is held to the same gate.
func TestWarmFrameAllocs(t *testing.T) {
	const negated = `T(@x.@z) :- T(@x.@y), R(@y.@z), !B(@x.@z), @x != @z.`
	discard := func(ast.Pred, *Env) error { return nil }
	for _, tc := range []struct {
		src     string
		variant int    // which delta variant of the rule runs
		log     string // the facts its window reads, when not the instance's own
		want    int    // derivations reaching the sink
	}{
		{`T(@x.@z) :- T(@x.@y), R(@y.@z).`, 0, "", 2}, // T(a.c), T(a.d)
		{negated, 0, "", 2},
		// Δ!B over a deletion log holding B(a.d): T(a.d) is unblocked.
		{negated, 2, `B(a.d).`, 1},
	} {
		prep, err := Compile(parser.MustParseProgram(tc.src))
		if err != nil {
			t.Fatal(err)
		}
		dr := &driver{inst: parser.MustParseInstance(`T(a.b). R(b.c). R(b.d). B(q.r).`), limits: DefaultLimits}
		it := workItem{plan: prep.comps[0].plans[0].variants[tc.variant], win: window{0, 1}}
		if tc.log != "" {
			it.log = parser.MustParseInstance(tc.log).Relation("B")
		}
		reached := 0
		run := func(sink sinkFunc) {
			if err := dr.exec(it, sink); err != nil {
				t.Fatal(err)
			}
		}
		run(func(ast.Pred, *Env) error { reached++; return nil })
		if reached != tc.want {
			t.Fatalf("%s (%s): %d derivations reached the sink, want %d", tc.src, it.plan.describe(), reached, tc.want)
		}
		if got := testing.AllocsPerRun(100, func() { run(discard) }); got != 0 {
			t.Errorf("%s: warm run of %s allocates %v; want none", tc.src, it.plan.describe(), got)
		}
	}
}

// TestMatchAllocs pins the other two zero-allocation gates (ROADMAP
// items 1 and 4): a warm Env matches $x.m.$y and $u.<$s>.$v without
// allocating, at every length BenchmarkMatchTwoPathVars sweeps. The
// bodies are the benchmarks' own (bench_test.go).
func TestMatchAllocs(t *testing.T) {
	for _, n := range matchLens {
		if got := testing.AllocsPerRun(100, twoPathVars(n)); got != 0 {
			t.Errorf("MatchTwoPathVars/len=%d: %v allocs per Match, want none", n, got)
		}
	}
	if got := testing.AllocsPerRun(100, packedMatch()); got != 0 {
		t.Errorf("MatchPacked: %v allocs per Match, want none", got)
	}
}

// TestArityClashStopsAtTheDoor: a relation the instance holds with
// another arity than the program uses it with is an error from every
// way into the evaluator, wherever the program uses it — a positive
// atom (formerly an error only once a binding reached the step), a
// negated atom (formerly read as "absent": S(a) was derived) or a head
// (formerly a panic in Ensure).
func TestArityClashStopsAtTheDoor(t *testing.T) {
	for _, tc := range []struct{ name, prog, edb, rel string }{
		{"positive", `S($x) :- T($x), R($x).`, `T(a). R(a, b).`, "R"},
		{"negated", `S($x) :- T($x), !R($x).`, `T(a). R(a, b).`, "R"},
		{"head", `S($x, $y) :- T($x, $y).`, `S(a). T(a, b).`, "S"},
	} {
		prep, err := Compile(parser.MustParseProgram(tc.prog))
		if err != nil {
			t.Fatal(err)
		}
		edb := parser.MustParseInstance(tc.edb)
		want := fmt.Sprintf("tuples of relation %q used with arity", tc.rel)
		_, evalErr := prep.Eval(edb, Limits{})
		_, engErr := NewEngine(prep, edb, Limits{})
		for entry, err := range map[string]error{"Prepared.Eval": evalErr, "NewEngine": engErr} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, %s: error %v, want one naming %s", tc.name, entry, err, want)
			}
		}
	}
}

// TestOutputRuleAcrossEntryPoints: the four read entry points answer
// alike for a derived relation, a defined-but-empty one, one only the
// instance knows, and one nobody knows (an error everywhere:
// Prepared.Holds used to say false).
func TestOutputRuleAcrossEntryPoints(t *testing.T) {
	prep, err := Compile(parser.MustParseProgram(`
S :- R(a).
Empty :- R(b).
`))
	if err != nil {
		t.Fatal(err)
	}
	edb := parser.MustParseInstance(`R(a). Only.`)
	eng, err := NewEngine(prep, edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	length := func(r *instance.Relation, err error) (int, error) {
		if err != nil {
			return 0, err
		}
		return r.Len(), nil
	}
	truth := func(b bool, err error) (int, error) {
		if b {
			return 1, err
		}
		return 0, err
	}
	for _, tc := range []struct {
		output string
		want   int // facts, or holds as 0/1; -1: unknown output error
	}{{"S", 1}, {"Empty", 0}, {"Only", 1}, {"Nope", -1}} {
		for entry, read := range map[string]func() (int, error){
			"Prepared.Query": func() (int, error) { return length(prep.Query(edb, tc.output, Limits{})) },
			"Prepared.Holds": func() (int, error) { return truth(prep.Holds(edb, tc.output, Limits{})) },
			"Engine.Query":   func() (int, error) { return length(eng.Query(tc.output)) },
			"Engine.Holds":   func() (int, error) { return truth(eng.Holds(tc.output)) },
		} {
			got, err := read()
			if tc.want < 0 {
				if err == nil || !strings.Contains(err.Error(), "unknown output relation") {
					t.Errorf("%s(%s): got %d, %v; want the unknown-output error", entry, tc.output, got, err)
				}
			} else if err != nil || got != tc.want {
				t.Errorf("%s(%s) = %d, %v; want %d", entry, tc.output, got, err, tc.want)
			}
		}
	}
}

// TestEngineQueryBetweenWrites freezes every relation through
// Engine.Query between every two writes of the differential fuzzer's
// scenarios, so each maintenance run meets copy-on-write barriers in
// the middle of its phases: a sink's Ensure epoch-clones a relation the
// driver's previous run read. The frame re-resolves per run, so the
// engine must still agree with from-scratch evaluation, read back
// through Query alone.
func TestEngineQueryBetweenWrites(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		sc := fuzztest.GenScenario(rand.New(rand.NewSource(seed)))
		prep, err := Compile(parser.MustParseProgram(sc.Src))
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, sc.Src)
		}
		eng, err := NewEngine(prep, nil, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		sh := fuzztest.NewShadow()
		for i, st := range sc.Steps {
			if st.Retract {
				_, err = eng.Retract(fuzztest.Batch(st.Facts))
			} else {
				_, err = eng.Assert(fuzztest.Batch(st.Facts))
			}
			if err != nil {
				t.Fatalf("seed %d step %d: %v\n%s%s", seed, i, err, sc.Src, sc.History(i))
			}
			sh.Apply(st)
			want, err := prep.Eval(sh.EDB(), Limits{})
			if err != nil {
				t.Fatal(err)
			}
			for name := range prep.arities {
				got, err := eng.Query(name)
				if err != nil {
					t.Fatalf("seed %d step %d: Query(%s): %v", seed, i, name, err)
				}
				wantRel, _ := prep.output(want, name)
				if fmt.Sprint(got.Sorted()) != fmt.Sprint(wantRel.Sorted()) {
					t.Fatalf("seed %d step %d: %s diverges from scratch\nengine  %v\nscratch %v\n%s%s",
						seed, i, name, got.Sorted(), wantRel.Sorted(), sc.Src, sc.History(i))
				}
			}
		}
	}
}
