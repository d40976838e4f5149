package eval

import (
	"errors"
	"testing"

	"seqlog/internal/parser"
)

// nonTerminating is Example 2.3: the program that terminates on no
// instance — it derives T(a), T(a.a), T(a.a.a), ... forever, one new
// fact (and one new round) at a time, so MaxFacts bounds its rounds. branching doubles S every round
// instead, so it trips MaxFacts in the middle of a wide round.
var nonTerminating = []string{`
T(a).
T(a.$x) :- T($x).`, `
S(a).
S($x.a) :- S($x).
S($x.b) :- S($x).`}

// tripsNonTermination checks that every nonTerminating program fails
// with ErrNonTermination under limits.
func tripsNonTermination(t *testing.T, limits Limits) {
	for _, src := range nonTerminating {
		_, err := compiled(t, parser.MustParseProgram(src)).Eval(parser.MustParseInstance(""), limits)
		if !errors.Is(err, ErrNonTermination) {
			t.Fatalf("%+v on %s: got %v, want ErrNonTermination", limits, src, err)
		}
	}
}

func TestMaxFactsTripsNonTermination(t *testing.T) {
	tripsNonTermination(t, Limits{MaxFacts: 50})
}

func TestMaxPathLenTripsNonTermination(t *testing.T) {
	tripsNonTermination(t, Limits{MaxPathLen: 5})
}

func TestLimitsDoNotFireOnTerminatingRuns(t *testing.T) {
	prog := parser.MustParseProgram(`
T($x) :- R($x).
T($x) :- T($x.a).`)
	edb := parser.MustParseInstance("R(a.a.a).")
	out, err := compiled(t, prog).Eval(edb, Limits{MaxFacts: 100, MaxPathLen: 10})
	if err != nil {
		t.Fatal(err)
	}
	if out.Relation("T").Len() != 4 {
		t.Fatalf("T = %v", out.Relation("T").Sorted())
	}
}
