package eval

import (
	"strings"
	"testing"

	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/value"
	"seqlog/internal/workload"
)

// agreementEDBs maps every terminating example query to a small but
// non-trivial EDB; TestEvalMatchesNaiveReference fails if a query is missing
// so the matrix stays complete as queries are added.
func agreementEDBs(t *testing.T) map[string]*instance.Instance {
	t.Helper()
	blackGraph := workload.Graph(7, 10, 20)
	for _, n := range []string{"a", "b", "n2", "n3"} {
		blackGraph.AddPath("B", value.PathOf(n))
	}
	return map[string]*instance.Instance{
		"only-as-equation":   workload.OnlyAs(1, "R", 12, 5),
		"only-as-recursion":  workload.OnlyAs(1, "R", 12, 5),
		"nfa-accept":         workload.NFA(4, 12, 6),
		"three-occurrences":  workload.SubstringHaystack(5, 10, 3, 2),
		"reverse-arity":      workload.Strings(2, "R", 6, 4, workload.Alphabet(3)),
		"reverse-noarity":    workload.Strings(2, "R", 6, 4, workload.Alphabet(3)),
		"mirror-nonequal":    workload.Strings(3, "R", 8, 4, workload.Alphabet(3)),
		"squaring":           workload.Repeated("R", "a", 6),
		"reachability":       workload.Graph(9, 12, 30),
		"black-nodes":        blackGraph,
		"even-length-packed": workload.Strings(8, "R", 6, 4, workload.Alphabet(2)),
		"process-mining":     workload.EventLogs(10, "L", 8, 6),
		"deep-unequal":       workload.TwoJSONSets(11, 20, 3, true),
		"sales-by-year":      workload.Sales(12, 10, 3),
		"nodes-on-all-paths": parser.MustParseInstance("P(a.b.c). P(d.b.c). P(b.c.e)."),
	}
}

func TestQueryUnknownOutputErrors(t *testing.T) {
	prog := parser.MustParseProgram(`S($x) :- R($x).`)
	edb := parser.MustParseInstance("R(a).")
	if _, err := Query(prog, edb, "Nope", Limits{}); err == nil || !strings.Contains(err.Error(), "unknown output relation") {
		t.Fatalf("unknown output: got %v", err)
	}
	// A relation the program defines but never derives stays a valid,
	// empty result with the program's arity.
	rel, err := Query(parser.MustParseProgram(`S($x, $y) :- R($x), R($y), $x != $x.`), edb, "S", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 0 || rel.Arity != 2 {
		t.Fatalf("empty program-defined output: len=%d arity=%d", rel.Len(), rel.Arity)
	}
	// A relation only the instance knows is returned as-is.
	rel, err = Query(prog, edb, "R", Limits{})
	if err != nil || rel.Len() != 1 {
		t.Fatalf("edb output: %v %v", rel, err)
	}
}

// TestExplainShowsAccessPaths pins the planner's choices on the
// graphpaths reachability program: the recursive rule probes R by the
// ground prefix @y, and the goal rule probes T by an exact index.
func TestExplainShowsAccessPaths(t *testing.T) {
	q, err := queries.Get("reachability")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(prep.Explain(), "\n")
	for _, want := range []string{"[scan]", "[prefix col=0 len=1]", "[index[0] ground]"} {
		if !strings.Contains(joined, want) {
			t.Errorf("join plan lacks %q:\n%s", want, joined)
		}
	}
}

// TestPlannerReordersByBoundVariables pins the greedy join order: a
// body written with the unbound atom last still runs it first when it
// is the only source of bindings.
func TestPlannerReordersByBoundVariables(t *testing.T) {
	prog := parser.MustParseProgram(`S(@x) :- Q(@x, @y), R(@x.@y).`)
	prep, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	lines := prep.Explain()
	// Q binds both variables, so R becomes fully ground and probes an
	// exact index rather than scanning.
	if !strings.Contains(lines[0], "R(@x.@y) [index[0] ground]") {
		t.Fatalf("join plan: %s", lines[0])
	}
}
