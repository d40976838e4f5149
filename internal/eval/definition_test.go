package eval

import (
	"math/rand"
	"strings"
	"testing"

	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/value"
	"seqlog/internal/workload"
)

// seqWindowProgram is nfa-accept plus process-mining in one program,
// the mining output renamed OK (both originals call theirs S).
const seqWindowProgram = `S(@q.$x, eps) :- R($x), N(@q).
S(@q2.$y, $z.@a) :- S(@q1.@a.$y, $z), D(@q1, @a, @q2).
A($x) :- S(@q, $x), F(@q).
After($v) :- L($u.'complete order'.$v), $v = $w.'receive payment'.$z.
Bad($x) :- L($x), $x = $u.'complete order'.$v, !After($v).
OK($x) :- L($x), !Bad($x).
`

// TestSeqWindowMaintenanceMatchesEval is the maintenance oracle for a
// probe through a definition: process-mining's Δ!After variant reaches
// L($x) by the suffix of $x's definition $u.'complete order'.$v. A
// sliding window of strings (R) and event logs (L) takes random
// one-fact asserts and retracts, and after every write the engine's
// After, Bad, OK and A must equal a from-scratch Eval of the window.
// In the seq-window program itself an After change never flips a Bad
// fact (a log's own tail supports its After), so the second case also
// feeds After from Paid, the tails of the generated logs: there a
// change to After alone decides Bad, and only Δ!After's probe finds the
// logs it blocks or unblocks.
func TestSeqWindowMaintenanceMatchesEval(t *testing.T) {
	const steps = 240
	outputs := []string{"After", "Bad", "OK", "A"}
	for _, tc := range []struct{ name, extra string }{
		{"seq-window", ""},
		{"seq-window+Paid", "After($v) :- Paid($v).\n"},
	} {
		prep, err := Compile(parser.MustParseProgram(seqWindowProgram + tc.extra))
		if err != nil {
			t.Fatalf("%s: Compile: %v", tc.name, err)
		}
		if !strings.Contains(strings.Join(prep.Explain(), "\n"), "L($x) [suffix col=0 len=2 of $u.'complete order'.$v]") {
			t.Fatalf("%s: Δ!After does not probe L through the definition of $x:\n%s", tc.name, strings.Join(prep.Explain(), "\n"))
		}
		// The pool: strings and logs to slide through the window, and for
		// the Paid case every tail that follows a 'complete order'.
		nfa := workload.NFA(21, 24, 6)
		base := instance.New()
		for _, name := range []string{"N", "D", "F"} {
			for _, tup := range nfa.Relation(name).Tuples() {
				base.Ensure(name, len(tup)).Add(tup)
			}
		}
		var facts []namedFact
		for _, tup := range nfa.Relation("R").Tuples() {
			facts = append(facts, namedFact{"R", tup})
		}
		paid := instance.NewRelation(1) // each tail once: a pool fact is one fact
		complete := value.Intern("complete order")
		for _, tup := range workload.EventLogs(22, "L", 24, 6).Relation("L").Tuples() {
			facts = append(facts, namedFact{"L", tup})
			for k, a := range tup[0] {
				if tail := (instance.Tuple{tup[0][k+1:]}); a == complete && tc.extra != "" && paid.Add(tail) {
					facts = append(facts, namedFact{"Paid", tail})
				}
			}
		}
		rng := rand.New(rand.NewSource(23))
		present := make([]bool, len(facts))
		for i := range present {
			present[i] = rng.Intn(2) == 0
		}
		e, err := NewEngine(prep, factsInstance(base, facts, present), Limits{})
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", tc.name, err)
		}
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(facts))
			delta := instance.New()
			delta.Ensure(facts[i].name, 1).Add(facts[i].t)
			verb := "assert"
			if present[i] {
				verb = "retract"
				_, err = e.Retract(delta)
			} else {
				_, err = e.Assert(delta)
			}
			if err != nil {
				t.Fatalf("%s step %d: %s %s%v: %v", tc.name, step, verb, facts[i].name, facts[i].t, err)
			}
			present[i] = !present[i]
			want, err := prep.Eval(factsInstance(base, facts, present), Limits{})
			if err != nil {
				t.Fatalf("%s step %d: Eval: %v", tc.name, step, err)
			}
			for _, out := range outputs {
				got, err := e.Query(out)
				if err != nil {
					t.Fatalf("%s step %d: Query(%s): %v", tc.name, step, out, err)
				}
				w, err := prep.output(want, out)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(w) {
					t.Fatalf("%s step %d (%s %s%v): %s = %v, from-scratch Eval %v",
						tc.name, step, verb, facts[i].name, facts[i].t, out, got.Sorted(), w.Sorted())
				}
			}
		}
	}
}

// TestDefinitionProbes pins which equations lend a probe: a definition
// $x = E gives the step on $x the access path of E, a cyclic equation
// ($x = a.$x) or a nonequality gives nothing, and a step probed
// through a definition still binds $x from the tuple, for the head.
func TestDefinitionProbes(t *testing.T) {
	for _, tc := range []struct{ src, plan string }{
		// $x occurs in its own equation: no definition, no probe.
		{`H($x) :- Q($x), $x = a.$x.`,
			`H($x) :- Q($x) [scan], $x = a.$x [match]`},
		// A nonequality defines nothing.
		{`H($x, $y) :- P($y), Q($x), $x != $y.`,
			`H($x, $y) :- P($y) [scan], Q($x) [scan], $x != $y [compare]`},
		// Once $y is bound, Q($x) is an exact probe of $y.$y, whichever
		// side of the equation $x stands on.
		{`H($x, $y) :- P($y), Q($x), $x = $y.$y.`,
			`H($x, $y) :- P($y) [scan], Q($x) [index[0] ground of $y.$y], $x = $y.$y [match]`},
		{`H($x, $y) :- P($y), Q($x), $y.$y = $x.`,
			`H($x, $y) :- P($y) [scan], Q($x) [index[0] ground of $y.$y], $y.$y = $x [match]`},
		// A ground leading term of a definition opens a prefix probe from
		// nothing bound, so Q ranks first; P then probes the $y it binds.
		{`H($x, $y) :- P($y), Q($x, $y), $x = a.$z.`,
			`H($x, $y) :- Q($x, $y) [prefix col=0 len=1 of a.$z], P($y) [index[0] ground], $x = a.$z [match]`},
	} {
		prep, err := Compile(parser.MustParseProgram(tc.src))
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := prep.comps[0].plans[0].describe(); got != tc.plan {
			t.Errorf("%s\n  plan %s\n  want %s", tc.src, got, tc.plan)
		}
	}
	prep, err := Compile(parser.MustParseProgram(`H($x, $y) :- P($y), Q($x), $x = $y.$y.`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := prep.Query(parser.MustParseInstance(`P(a). P(c). Q(a.a). Q(c.d). Q(a.c).`), "H", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	want := parser.MustParseInstance(`H(a.a, a).`).Relation("H")
	if !out.Equal(want) {
		t.Errorf("H = %v, want %v", out.Sorted(), want.Sorted())
	}
}
