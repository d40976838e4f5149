package eval

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"seqlog/internal/fuzztest"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
)

// TestWarmFrameAllocs pins what the run frame is for: re-running a
// hoisted variant over a one-tuple window through a driver that has
// already run it allocates nothing — not per run, not per step, not per
// binding. Before the frame one such run made 14 allocations on the
// 2-step plan and 19 on the 4-step one (four slices and an Env per run,
// scratch per predicate step, a closure per candidate, a path per
// atomic binding). A negated atom's variant is held to the same gate,
// over a deletion — a position of the instance's relation, added and
// then tombstoned, as a maintenance run's deletions are — and so is a
// suffix probe through a definition (process-mining's Δ!After, which
// probes L($x) with $x's definition).
func TestWarmFrameAllocs(t *testing.T) {
	const negated = `T(@x.@z) :- T(@x.@y), R(@y.@z), !B(@x.@z), @x != @z.`
	const edb = `T(a.b). R(b.c). R(b.d). B(q.r).`
	discard := func(*plan, *Env) error { return nil }
	for _, tc := range []struct {
		src     string
		edb     string
		variant int    // which delta variant of the rule runs
		deleted string // the facts its run reads as deleted, when not a window
		want    int    // derivations reaching the sink
	}{
		{`T(@x.@z) :- T(@x.@y), R(@y.@z).`, edb, 0, "", 2}, // T(a.c), T(a.d)
		{negated, edb, 0, "", 2},
		// Δ!B over the deletion of B(a.d): T(a.d) is unblocked.
		{negated, edb, 2, `B(a.d).`, 1},
		// Δ!After over the deletion of After(p): the two logs ending in
		// 'complete order'.p, found by the suffix probe, not a scan of L.
		{`Bad($x) :- L($x), $x = $u.'complete order'.$v, !After($v).`,
			`L(a.'complete order'.p). L(b.'complete order'.p). L(c.'complete order'.q). L(p).`, 1, `After(p).`, 2},
	} {
		prep, err := Compile(parser.MustParseProgram(tc.src))
		if err != nil {
			t.Fatal(err)
		}
		dr := &driver{inst: parser.MustParseInstance(tc.edb), limits: DefaultLimits}
		it := workItem{plan: prep.comps[0].plans[0].variants[tc.variant], win: window{0, 1}}
		if tc.deleted != "" {
			name := it.plan.steps[0].pred.Name
			for _, f := range parser.MustParseInstance(tc.deleted).Relation(name).Tuples() {
				rel := dr.inst.Ensure(name, len(f))
				rel.Add(f)
				it.sel = append(it.sel, rel.Size()-1)
				rel.Delete(f)
			}
		}
		reached := 0
		run := func(sink sinkFunc) {
			if err := dr.exec(it, sink); err != nil {
				t.Fatal(err)
			}
		}
		run(func(*plan, *Env) error { reached++; return nil })
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
// allocating, at every length BenchmarkMatchTwoPathVars sweeps, the
// transitive-closure join step's 2-atom tuples against @y.@z, @y
// bound or free, and reverse-noarity's recursive body at the lengths
// BenchmarkMatchRepeated sweeps. The bodies are the benchmarks' own (bench_test.go).
func TestMatchAllocs(t *testing.T) {
	for _, bound := range []bool{true, false} {
		if got := testing.AllocsPerRun(100, tupleAtomic(bound)); got != 0 {
			t.Errorf("MatchTupleAtomic/bound=%v: %v allocs per match, want none", bound, got)
		}
	}
	for _, n := range matchLens {
		if got := testing.AllocsPerRun(100, twoPathVars(n)); got != 0 {
			t.Errorf("MatchTwoPathVars/len=%d: %v allocs per Match, want none", n, got)
		}
	}
	if got := testing.AllocsPerRun(100, packedMatch()); got != 0 {
		t.Errorf("MatchPacked: %v allocs per Match, want none", got)
	}
	for _, n := range matchLens[1:] {
		if got := testing.AllocsPerRun(100, repeatedMatch(n)); got != 0 {
			t.Errorf("MatchRepeated/len=%d: %v allocs per Match, want none", n, got)
		}
	}
}

// assertUnbound fails when the driver's frame has a slot of its
// valuation bound, over the slots' whole capacity: the next plan run in
// the frame would read a leftover binding as one of its own variables.
func assertUnbound(t *testing.T, what string, dr *driver) {
	t.Helper()
	if env := dr.frame.env; env != nil && slices.Contains(env.bound[:cap(env.bound)], true) {
		t.Errorf("%s: the frame's valuation keeps a bound slot after the run: %v", what, env.Snapshot())
	}
}

// TestFrameUnboundAfterRun pins the invariant the slot valuation rests
// on: whichever way exec returns, the frame's valuation has every slot
// unbound — after a normal run, after derivesGoal's errStopRun, after a
// MaxFacts error from a sink, after a MaxPathLen error in driver.head,
// and in both frames of the overdeletion pruner's run inside a run
// (TestEngineRetractPrunesInsideTheChase's program and facts).
func TestFrameUnboundAfterRun(t *testing.T) {
	q, _ := queries.Get("reachability")
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(prep, parser.MustParseInstance(`R(a.b). R(b.d). R(b.h). R(a.g). R(g.h).`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Assert(parser.MustParseInstance(`R(a.c). R(c.d).`)); err != nil {
		t.Fatal(err)
	}
	c := &prep.comps[0]
	if !c.heads["T"] {
		t.Fatalf("component 0 is %s, want T", c)
	}
	// derive runs p in a fresh deriving driver over inst and checks its
	// frame afterwards.
	derive := func(what string, limits Limits, inst *instance.Instance, p *plan) error {
		t.Helper()
		derived := 0
		dr := &driver{inst: inst, limits: limits, derived: &derived}
		err := dr.exec(workItem{plan: p}, dr.derive)
		assertUnbound(t, what, dr)
		return err
	}
	base, recursive := c.plans[0], c.plans[1]

	if err := derive("normal run", DefaultLimits, eng.inst.Clone(), recursive); err != nil {
		t.Fatal(err)
	}
	goal := &driver{inst: eng.inst, limits: DefaultLimits}
	if ok, err := goal.derivesGoal(c.rederive, "T", parser.MustParseInstance(`T(a.d).`).Relation("T").TupleAt(0), 0, stopRun); !ok || err != nil {
		t.Fatalf("derivesGoal(T(a.d)) = %v, %v; want true", ok, err)
	}
	assertUnbound(t, "derivesGoal's errStopRun", goal)
	if err := derive("MaxFacts", Limits{MaxFacts: 1}, parser.MustParseInstance(`R(a.b). R(b.c).`), base); !errors.Is(err, ErrNonTermination) {
		t.Fatalf("MaxFacts run: %v, want ErrNonTermination", err)
	}
	if err := derive("MaxPathLen", Limits{MaxPathLen: 1}.orDefault(), eng.inst.Clone(), recursive); !errors.Is(err, ErrNonTermination) {
		t.Fatalf("MaxPathLen run: %v, want ErrNonTermination", err)
	}

	// The pruner: the chase's sink runs a goal check in a frame of its
	// own, and each goal check must leave that frame clean as well. With
	// R(a.b) tombstoned, as its retraction leaves it, the chase (which
	// still sees it) reaches T(a.b), which no live support derives.
	eng.inst.Delete("R", parser.MustParseInstance(`R(a.b).`).Relation("R").TupleAt(0))
	chase := &driver{inst: eng.inst, limits: DefaultLimits, opts: runOpts{includeDead: true}}
	goal = &driver{inst: eng.inst, limits: DefaultLimits, opts: runOpts{boundHeads: c.heads}}
	kept, dropped := 0, 0
	pruner := func(p *plan, env *Env) error {
		h, _, err := chase.head(p, env)
		if err != nil {
			return err
		}
		rel := eng.inst.Relation("T")
		ok, err := goal.derivesGoal(c.rederive, "T", h, rel.StampAt(rel.Position(instance.View{}, h.Hash(), h)), stopRun)
		assertUnbound(t, "pruner's goal check", goal)
		if ok {
			kept++
		} else {
			dropped++
		}
		return err
	}
	for _, p := range c.plans {
		if err := chase.exec(workItem{plan: p}, pruner); err != nil {
			t.Fatal(err)
		}
		assertUnbound(t, "pruner's chase", chase)
	}
	if kept == 0 || dropped == 0 {
		t.Fatalf("goal checks kept %d and dropped %d; want both", kept, dropped)
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
