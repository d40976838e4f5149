package seqlog

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExamplesVetClean holds the shipped example programs to a
// stricter bar than the paper corpus: zero warnings, not just zero
// errors. CI enforces the same gate by running `seqlog -vet` over
// every examples/*/program.sdl, so an example can never regress to
// warning-dirty. (Info-severity diagnostics — the fragment report —
// are expected and allowed.)
func TestExamplesVetClean(t *testing.T) {
	programs, err := filepath.Glob(filepath.Join("examples", "*", "program.sdl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(programs) == 0 {
		t.Fatal("no examples/*/program.sdl found")
	}
	for _, path := range programs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, d := range Vet(prog, VetOptions{}) {
			if d.Severity > SeverityInfo {
				t.Errorf("%s: %s", path, d)
			}
		}
	}
}
