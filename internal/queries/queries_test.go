package queries

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/value"
	"seqlog/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	if len(Names()) < 15 {
		t.Fatalf("only %d queries registered: %v", len(Names()), Names())
	}
	for _, q := range All() {
		if q.Source == "" || q.Doc == "" || q.Output == "" {
			t.Errorf("query %s lacks metadata", q.Name)
		}
		if err := q.Program.Validate(); err != nil {
			t.Errorf("query %s invalid: %v", q.Name, err)
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown query must error")
	}
	q, err := Get("squaring")
	if err != nil || q.Name != "squaring" {
		t.Fatalf("Get: %v %v", q, err)
	}
}

func TestFragmentsMatchPaper(t *testing.T) {
	cases := map[string]string{
		"only-as-equation":   "{E}",
		"only-as-recursion":  "{A, I, R}",
		"nfa-accept":         "{A, I, R}",
		"three-occurrences":  "{E, I, N, P}",
		"reverse-arity":      "{A, I, R}",
		"reverse-noarity":    "{I, R}",
		"mirror-nonequal":    "{A, E, I, N, R}",
		"squaring":           "{A, I, R}",
		"reachability":       "{I, R}",
		"black-nodes":        "{I, N}",
		"even-length-packed": "{A, I, P, R}",
	}
	for name, want := range cases {
		q, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := q.Fragment().String(); got != want {
			t.Errorf("%s: fragment %s, want %s", name, got, want)
		}
	}
}

// compiled compiles q's program.
func compiled(t *testing.T, q Query) *eval.Prepared {
	t.Helper()
	prep, err := eval.Compile(q.Program)
	if err != nil {
		t.Fatalf("%s: %v", q.Name, err)
	}
	return prep
}

func run(t *testing.T, q Query, edb *instance.Instance) *instance.Relation {
	t.Helper()
	rel, err := compiled(t, q).Query(edb, q.Output, eval.Limits{})
	if err != nil {
		t.Fatalf("%s: %v", q.Name, err)
	}
	return rel
}

func TestOnlyAsAgree(t *testing.T) {
	edb := workload.OnlyAs(1, "R", 20, 6)
	a := run(t, OnlyAsEquation, edb)
	b := run(t, OnlyAsRecursion, edb)
	if !a.Equal(b) {
		t.Fatalf("disagree: %v vs %v", a.Sorted(), b.Sorted())
	}
	if a.Len() == 0 {
		t.Fatal("workload should contain all-a paths")
	}
}

func TestReverseAgree(t *testing.T) {
	edb := workload.Strings(2, "R", 12, 5, workload.Alphabet(3))
	a := run(t, ReverseArity, edb)
	b := run(t, ReverseNoArity, edb)
	if !a.Equal(b) {
		t.Fatalf("disagree: %v vs %v", a.Sorted(), b.Sorted())
	}
}

func TestNFAAcceptEvenBs(t *testing.T) {
	edb := workload.NFA(3, 30, 5)
	got := run(t, NFAAccept, edb)
	// Oracle: strings with an even number of b's.
	want := instance.NewRelation(1)
	for _, tu := range edb.Relation("R").Tuples() {
		bs := 0
		for _, v := range tu[0] {
			if v == value.Intern("b") {
				bs++
			}
		}
		if bs%2 == 0 {
			want.Add(tu)
		}
	}
	if !got.Equal(want) {
		t.Fatalf("NFA disagree with oracle:\ngot %v\nwant %v", got.Sorted(), want.Sorted())
	}
}

func TestSquaringOutput(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5} {
		edb := workload.Repeated("R", "a", n)
		got := run(t, Squaring, edb)
		if got.Len() != 1 {
			t.Fatalf("n=%d: |S| = %d", n, got.Len())
		}
		if l := len(got.Tuples()[0][0]); l != n*n {
			t.Fatalf("n=%d: output length %d, want %d", n, l, n*n)
		}
	}
}

func TestReachabilityChainAndRandom(t *testing.T) {
	reach := compiled(t, Reachability)
	yes, err := reach.Holds(workload.Chain(12), "S", eval.Limits{})
	if err != nil || !yes {
		t.Fatalf("chain reachability: %v %v", yes, err)
	}
	// A graph with no edges out of a.
	edb := instance.New()
	edb.AddPath("R", value.PathOf("c", "b"))
	no, err := reach.Holds(edb, "S", eval.Limits{})
	if err != nil || no {
		t.Fatalf("unreachable case: %v %v", no, err)
	}
}

func TestThreeOccurrences(t *testing.T) {
	edb := parser.MustParseInstance(`R(a.b.a.b.a). S(a).`)
	three := compiled(t, ThreeOccurrences)
	yes, err := three.Holds(edb, "A", eval.Limits{})
	if err != nil || !yes {
		t.Fatalf("three a's: %v %v", yes, err)
	}
	edb2 := parser.MustParseInstance(`R(a.b). S(a).`)
	no, err := three.Holds(edb2, "A", eval.Limits{})
	if err != nil || no {
		t.Fatalf("one a: %v %v", no, err)
	}
}

func TestNonTerminatingGuard(t *testing.T) {
	_, err := compiled(t, NonTerminating).Eval(instance.New(), eval.Limits{MaxFacts: 500})
	if !errors.Is(err, eval.ErrNonTermination) {
		t.Fatalf("err = %v", err)
	}
	if NonTerminating.Terminating {
		t.Fatal("metadata wrong")
	}
}

func TestBlackNodes(t *testing.T) {
	edb := parser.MustParseInstance(`R(a.b). R(a.c). R(d.b). B(b).`)
	got := run(t, BlackNodes, edb)
	if got.Len() != 1 || !got.Contains(instance.Tuple{value.PathOf("d")}) {
		t.Fatalf("black nodes: %v", got.Sorted())
	}
}

func TestProcessMining(t *testing.T) {
	edb := parser.MustParseInstance(`
L('create order'.'complete order'.ship.'receive payment').
L('complete order'.ship).
L(ship.close).
L('complete order'.'receive payment'.'complete order').
`)
	got := run(t, ProcessMining, edb)
	var keys []string
	for _, tu := range got.Sorted() {
		keys = append(keys, tu[0].String())
	}
	want := []string{
		"'create order'.'complete order'.ship.'receive payment'",
		"ship.close",
	}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("process mining = %v, want %v", keys, want)
	}
}

func TestDeepEqual(t *testing.T) {
	same := workload.TwoJSONSets(5, 8, 3, true)
	diff := workload.TwoJSONSets(5, 8, 3, false)
	deepEqual := compiled(t, DeepEqual)
	holds, err := deepEqual.Holds(same, "A", eval.Limits{})
	if err != nil || holds {
		t.Fatalf("equal sets flagged different: %v %v", holds, err)
	}
	holds, err = deepEqual.Holds(diff, "A", eval.Limits{})
	if err != nil || !holds {
		t.Fatalf("different sets not flagged: %v %v", holds, err)
	}
}

func TestSalesByYear(t *testing.T) {
	edb := workload.Sales(7, 3, 2)
	got := run(t, SalesByYear, edb)
	if got.Len() != edb.Relation("Sales").Len() {
		t.Fatalf("cardinality changed: %d vs %d", got.Len(), edb.Relation("Sales").Len())
	}
	for _, tu := range got.Tuples() {
		if !strings.HasPrefix(tu[0][0].String(), "year") {
			t.Fatalf("not regrouped by year: %v", tu)
		}
	}
}

func TestNodesOnAllPaths(t *testing.T) {
	edb := parser.MustParseInstance(`
P(x.y.z).
P(w.y.z).
P(y.z.q).
`)
	got := run(t, GraphPathsAllNodes, edb)
	var nodes []string
	for _, tu := range got.Sorted() {
		nodes = append(nodes, tu[0].String())
	}
	// y and z occur on all three paths.
	if fmt.Sprint(nodes) != "[y z]" {
		t.Fatalf("nodes on all paths = %v", nodes)
	}
}

func TestEvenLengthPacked(t *testing.T) {
	edb := parser.MustParseInstance(`R(a.b). R(a.b.c). R(eps). R(a.b.c.d).`)
	got := run(t, EvenLengthPacked, edb)
	var paths []string
	for _, tu := range got.Sorted() {
		paths = append(paths, tu[0].String())
	}
	if fmt.Sprint(paths) != "[eps a.b a.b.c.d]" {
		t.Fatalf("even-length = %v", paths)
	}
}

func TestQueryFeatureMetadataConsistent(t *testing.T) {
	for _, q := range All() {
		// The declared EDB names must match the program's EDB.
		gotEDB := q.Program.EDBNames()
		for _, n := range gotEDB {
			found := false
			for _, d := range q.EDB {
				if d == n {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: EDB %s missing from metadata %v", q.Name, n, q.EDB)
			}
		}
		// Output is an IDB relation.
		isIDB := false
		for _, n := range q.Program.IDBNames() {
			if n == q.Output {
				isIDB = true
			}
		}
		if !isIDB {
			t.Errorf("%s: output %s is not an IDB relation", q.Name, q.Output)
		}
		_ = ast.FeatureSet(0)
	}
}
