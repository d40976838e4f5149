package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/value"
)

// tiedRules are hand-written rules whose head-bound goal plans tie on
// their first step: a two-atom join (prefix against suffix probe), three
// atoms with one bound column each, and the mutual recursion of the
// serving benchmarks' mutualBody.
var tiedRules = []struct{ name, src string }{
	{"two-atom", `G(@x.@z) :- A(@x.@y), B(@y.@z).`},
	{"three-atom", `G(@x) :- A(@x, @u), B(@x, @v), C(@x, @u.@v).`},
	{"mutual", `P(@x.@y) :- EA(@x.@y).
Q(@x.@z) :- P(@x.@y), EB(@y.@z).
P(@x.@z) :- Q(@x.@y), EA(@y.@z).`},
}

// tiedEDB is a random instance for tiedRules: unary relations A, B, EA
// and EB of two-node paths, binary A, B and C for the three-atom rule.
func tiedEDB(name string) *instance.Instance {
	r := rand.New(rand.NewSource(1))
	node := func() string { return fmt.Sprintf("n%d", r.Intn(8)) }
	inst := instance.New()
	rels := []string{"A", "B"}
	if name == "mutual" {
		rels = []string{"EA", "EB"}
	}
	for i := 0; i < 24; i++ {
		for _, rel := range rels {
			if name == "three-atom" {
				inst.Add(rel, instance.Tuple{value.PathOf(node()), value.PathOf(node())})
				inst.Add("C", instance.Tuple{value.PathOf(node()), value.PathOf(node(), node())})
			} else {
				inst.AddPath(rel, value.PathOf(node(), node()))
			}
		}
	}
	return inst
}

// TestGoalPlansAgree is the oracle under compileGoal's pinned first
// step: join order never changes a verdict, so on every paper query over
// its agreement EDB and on tiedRules, a rule's goal plan, and the rule
// head-bound with each positive atom pinned first, must agree with the
// unpinned greedy plan on every materialized fact of the rule's head and
// on its columns reversed, mostly absent facts — with no birth bound,
// and under the overdeletion pruner's view (the component's heads
// bounded by the fact's birth).
func TestGoalPlansAgree(t *testing.T) {
	type program struct {
		name string
		prog ast.Program
		edb  *instance.Instance
	}
	var progs []program
	edbs := agreementEDBs(t)
	for _, q := range queries.All() {
		if q.Terminating {
			progs = append(progs, program{q.Name, q.Program, edbs[q.Name]})
		}
	}
	for _, tr := range tiedRules {
		progs = append(progs, program{tr.name, parser.MustParseProgram(tr.src), tiedEDB(tr.name)})
	}
	pinned := 0
	for _, pg := range progs {
		prep, err := Compile(pg.prog)
		if err != nil {
			t.Fatalf("%s: %v", pg.name, err)
		}
		eng, err := NewEngine(prep, pg.edb, Limits{})
		if err != nil {
			t.Fatalf("%s: NewEngine: %v", pg.name, err)
		}
		for ci := range prep.comps {
			c := &prep.comps[ci]
			for _, rp := range c.rederive {
				head := ast.VarsOf(rp.rule.Head.Args...)
				greedy, err := compilePlan(rp.rule, rp.vars, head, -1)
				if err != nil {
					t.Fatal(err)
				}
				if rp.describe() != greedy.describe() {
					pinned++
				}
				plans := []*plan{rp}
				for k := range rp.predSteps {
					alt, err := compilePlan(rp.rule, rp.vars, head, k)
					if err != nil {
						t.Fatal(err)
					}
					plans = append(plans, alt)
				}
				name := rp.rule.Head.Name
				rel := eng.inst.Relation(name)
				if rel == nil {
					continue
				}
				for pos := 0; pos < rel.Size(); pos++ {
					fact := rel.TupleAt(pos)
					reversed := slices.Clone(fact)
					for k := range reversed {
						reversed[k] = slices.Clone(reversed[k])
						slices.Reverse(reversed[k])
					}
					for _, check := range []struct {
						t     instance.Tuple
						opts  runOpts
						birth uint64
					}{
						{fact, runOpts{}, 0},
						{fact, runOpts{boundHeads: c.heads}, rel.StampAt(pos)},
						{reversed, runOpts{}, 0},
					} {
						verdict := func(p *plan) bool {
							dr := &driver{inst: eng.inst, limits: DefaultLimits, opts: check.opts}
							ok, err := dr.derivesGoal([]*plan{p}, name, check.t, check.birth, stopRun)
							if err != nil {
								t.Fatalf("%s: %v", pg.name, err)
							}
							return ok
						}
						want := verdict(greedy)
						for _, p := range plans {
							if got := verdict(p); got != want {
								t.Errorf("%s: %s(%s) boundBirth %d: %s says %v, greedy plan %s says %v",
									pg.name, name, check.t, check.birth, p.describe(), got, greedy.describe(), want)
							}
						}
					}
				}
			}
		}
	}
	if pinned == 0 {
		t.Fatal("no goal plan differs from its greedy plan: the oracle checks nothing pinned")
	}
}

// TestGoalPlanFirstStep pins compileGoal's rule: where the greedy first
// step reads a relation of the rule's own component and an atom outside
// it ties, the goal plan starts there; otherwise it keeps the greedy
// order (which ranks a ground prefix above a ground suffix).
func TestGoalPlanFirstStep(t *testing.T) {
	for _, tc := range []struct {
		name, src, head, first string
	}{
		{"reachability", `T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).`, "T(@x.@z)", "R(@y.@z) [suffix col=0 len=1]"},
		{"recursive atom second", `T(@x.@y) :- R(@x.@y).
T(@x.@z) :- R(@x.@y), T(@y.@z).`, "T(@x.@z)", "R(@x.@y) [prefix col=0 len=1]"},
		{"self-join", `T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), T(@y.@z).`, "T(@x.@z)", "T(@x.@y) [prefix col=0 len=1]"},
		{"no recursion", tiedRules[0].src, "G(@x.@z)", "A(@x.@y) [prefix col=0 len=1]"},
		{"mutual", tiedRules[2].src, "Q(@x.@z)", "EB(@y.@z) [suffix col=0 len=1]"},
	} {
		prep, err := Compile(parser.MustParseProgram(tc.src))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, c := range prep.comps {
			for _, rp := range c.rederive {
				if rp.rule.Head.String() == tc.head {
					got = append(got, rp.describe())
				}
			}
		}
		if len(got) != 1 || !strings.HasPrefix(got[0], tc.head+" :- "+tc.first) {
			t.Errorf("%s: goal plans %q; want one starting %s", tc.name, got, tc.first)
		}
	}
}
