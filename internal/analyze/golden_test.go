package analyze_test

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"seqlog/internal/analyze"
	"seqlog/internal/parser"
)

var update = flag.Bool("update", false, "rewrite the golden .want files from current analyzer output")

// TestGolden runs every fixture in testdata/ through the full analyzer
// stack and compares the rendered diagnostics — positions, severities,
// codes, messages, and related notes — against the .want golden file.
// Fixtures may carry a `% vet:outputs=A,B` header to enable the
// reachability pass. Regenerate goldens with `go test -run Golden -update`.
func TestGolden(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "*.sdl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fixtures) == 0 {
		t.Fatal("no fixtures in testdata/")
	}
	sort.Strings(fixtures)
	for _, fixture := range fixtures {
		name := strings.TrimSuffix(filepath.Base(fixture), ".sdl")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(fixture)
			if err != nil {
				t.Fatal(err)
			}
			prog, _, err := parser.ParseProgramForAnalysis(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			diags := analyze.Check(prog, analyze.Options{Outputs: fixtureOutputs(string(src))})
			var b strings.Builder
			for _, d := range diags {
				b.WriteString(d.Format(filepath.Base(fixture)))
				b.WriteByte('\n')
			}
			got := b.String()

			wantFile := strings.TrimSuffix(fixture, ".sdl") + ".want"
			if *update {
				if err := os.WriteFile(wantFile, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(wantFile)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// fixtureOutputs reads a `% vet:outputs=A,B` header line.
func fixtureOutputs(src string) []string {
	for _, line := range strings.Split(src, "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "% vet:outputs=")
		if !ok {
			continue
		}
		var outs []string
		for _, f := range strings.Split(rest, ",") {
			if f = strings.TrimSpace(f); f != "" {
				outs = append(outs, f)
			}
		}
		return outs
	}
	return nil
}

// TestEveryCodeCovered asserts the fixture corpus triggers every
// diagnostic code the analyzers can emit, so a new code cannot ship
// without a golden exercising it.
func TestEveryCodeCovered(t *testing.T) {
	want := []string{
		"arity-mismatch", "unbound-head-var", "unbound-neg-var", "unbound-var",
		"negation-cycle", "unstratified-negation", "stratum-order",
		"fragment", "seq-growth",
		"duplicate-rule", "singleton-var", "never-derived", "unreachable-rule",
		"full-scan-delta",
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.want"))
	if err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	for _, g := range goldens {
		b, err := os.ReadFile(g)
		if err != nil {
			t.Fatal(err)
		}
		all.Write(b)
	}
	for _, code := range want {
		if !strings.Contains(all.String(), ": "+code+": ") {
			t.Errorf("no golden fixture triggers diagnostic code %q", code)
		}
	}
}
