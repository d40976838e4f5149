package seqlog

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// plantMutant is scripts/mutants.sh's hook: it plants the named mutant
// in this tree's source, so the script runs it only in a copy.
var plantMutant = flag.String("mutant", "", "plant the named mutant of testdata/mutants in this tree's source")

// mutantMember matches a txtar member's header line, mutantField a
// line of the comment.
var (
	mutantMember = regexp.MustCompile(`(?m)^-- (old|new) --\n`)
	mutantField  = regexp.MustCompile(`(?m)^(file|run|expect): (.*)$`)
)

// TestMutantsApply reads the mutant registry (testdata/mutants): one
// txtar file per planted fault, whose comment names the source file
// ("file:"), the packages to run ("run:") and the tests that must catch
// it ("expect:"), and whose members old and new are an exact snippet of
// the file and its replacement. Every old snippet must occur exactly
// once, so a refactor carries its mutants forward; scripts/mutants.sh
// runs them.
func TestMutantsApply(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "mutants", "*.txtar"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no mutants: %v", err)
	}
	planted := false
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		parts := mutantMember.Split(string(raw), -1)
		fields := map[string]string{}
		for _, m := range mutantField.FindAllStringSubmatch(parts[0], -1) {
			fields[m[1]] = m[2]
		}
		if len(parts) != 3 || len(fields) != 3 {
			t.Errorf("%s: want file:, run: and expect: lines, then the members old and new", path)
			continue
		}
		file := fields["file"]
		src, err := os.ReadFile(file)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if n := strings.Count(string(src), parts[1]); n != 1 || parts[1] == parts[2] {
			t.Errorf("%s: the old snippet occurs %d times in %s (want once, and a different new one)", path, n, file)
			continue
		}
		if strings.TrimSuffix(filepath.Base(path), ".txtar") == *plantMutant {
			planted = true
			if err := os.WriteFile(file, []byte(strings.Replace(string(src), parts[1], parts[2], 1)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if *plantMutant != "" && !planted {
		t.Errorf("no mutant %q planted", *plantMutant)
	}
}
