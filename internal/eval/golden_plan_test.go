package eval

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqlog/internal/queries"
)

var updatePlans = flag.Bool("update", false, "rewrite the golden plan file from current planner output")

// TestGoldenPlans pins the compiled join plans — base plan and
// delta-hoisted maintenance variants, with their access paths — for
// every paper query. A planner change that silently demotes an index
// probe to a scan (or stops hoisting a delta) shows up as a diff here
// before it shows up as a perf regression. Regenerate with
// `go test -run TestGoldenPlans -update ./internal/eval`.
func TestGoldenPlans(t *testing.T) {
	var b strings.Builder
	for _, q := range queries.All() {
		fmt.Fprintf(&b, "== %s (%s)\n", q.Name, q.Source)
		prep, err := Compile(q.Program)
		if err != nil {
			t.Fatalf("%s: Compile: %v", q.Name, err)
		}
		for _, line := range prep.Explain() {
			b.WriteString(line)
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	got := b.String()

	golden := filepath.Join("testdata", "plans.golden")
	if *updatePlans {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("join plans changed (run with -update if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenPlansPinReachability spot-checks the properties the golden
// file exists to protect, independent of its exact text: the §5.1.1
// reachability query must keep (a) a delta-hoisted variant per
// positive body atom, (b) a ground-prefix probe for the forward join
// direction, (c) a ground-suffix probe for the reverse direction
// (delta on R, recursive T atom bound only in its last position), and
// (d) a goal plan for the recursive rule that starts at R's suffix
// probe, outside the recursion, not at T's prefix probe.
func TestGoldenPlansPinReachability(t *testing.T) {
	q, err := queries.Get("reachability")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Compile(q.Program)
	if err != nil {
		t.Fatal(err)
	}
	explain := strings.Join(prep.Explain(), "\n")
	for _, want := range []string{
		"ΔT: T(@x.@z) :- T(@x.@y) [delta], R(@y.@z) [prefix col=0 len=1]",
		"ΔR: T(@x.@z) :- R(@y.@z) [delta], T(@x.@y) [suffix col=0 len=1]",
		"ΔT: S :- T(a.b) [delta]",
		"goal: T(@x.@z) :- R(@y.@z) [suffix col=0 len=1], T(@x.@y) [index[0] ground]",
	} {
		if !strings.Contains(explain, want) {
			t.Errorf("explain lacks %q:\n%s", want, explain)
		}
	}
}
