package analyze_test

import (
	"testing"

	"seqlog/internal/analyze"
	"seqlog/internal/queries"
)

// TestPaperQueriesVetClean asserts every registered paper query — the
// same set the differential engine/eval agreement suite runs over —
// carries zero error-severity diagnostics. Warnings are permitted:
// Example 2.3 is *supposed* to draw seq-growth, that is the point of
// the pass; but a paper query that fails safety or stratification
// would be a bug in the corpus (or the analyzer).
func TestPaperQueriesVetClean(t *testing.T) {
	all := queries.All()
	if len(all) == 0 {
		t.Fatal("no registered queries")
	}
	for _, q := range all {
		diags := analyze.Check(q.Program, analyze.Options{Outputs: []string{q.Output}})
		for _, d := range diags {
			if d.Severity == analyze.Error {
				t.Errorf("%s (%s): %s", q.Name, q.Source, d)
			}
		}
		// The non-terminating examples must draw the termination
		// warning — an analyzer that misses Example 2.3 is broken.
		if !q.Terminating {
			found := false
			for _, d := range diags {
				if d.Code == "seq-growth" {
					found = true
				}
			}
			if !found {
				t.Errorf("%s (%s): non-terminating query drew no seq-growth warning", q.Name, q.Source)
			}
		}
	}
}
