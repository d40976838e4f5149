package main

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func lintSrc(t *testing.T, relPath, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, relPath, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return lintFile(fset, file, relPath)
}

func TestTombstoneViewOutsideDRed(t *testing.T) {
	src := `package x
func f(ix *Index, r *Relation) {
	_ = ix.Lookup(instance.View{Dead: true}, k)
	_ = r.SuffixLookup(View{MaxBirth: 2, Dead: dead}, 0, p)
	v := instance.View{MaxBirth: 2}
	v.Dead = true
	_ = r.PrefixLookup(v, 0, p)
}
`
	got := lintSrc(t, "internal/rewrite/bad.go", src)
	if len(got) != 3 {
		t.Fatalf("want 3 findings, got %v", got)
	}
	if !strings.Contains(got[0], "internal/rewrite/bad.go:3:30: View.Dead") {
		t.Fatalf("finding position/message: %q", got[0])
	}
	if !strings.Contains(got[1], "bad.go:4:39:") || !strings.Contains(got[2], "bad.go:6:4:") {
		t.Fatalf("literal-key and assignment findings: %q", got[1:])
	}
}

func TestTombstoneViewLegalPatterns(t *testing.T) {
	// Live and stamp-bounded views, and reading .Dead, are fine anywhere;
	// a Dead key of some other struct is not a View.
	src := `package x
func f(ix *Index, v instance.View) {
	_ = ix.Lookup(instance.View{}, k)
	_ = ix.Lookup(instance.View{MaxBirth: 9}, k)
	if !v.Dead { _ = ix.Lookup(v, k) }
	_ = stats{Dead: 3}
}
`
	if got := lintSrc(t, "internal/eval/dred.go", src); len(got) != 0 {
		t.Fatalf("legal patterns flagged: %v", got)
	}
}

func TestTombstoneViewAllowedSites(t *testing.T) {
	src := `package x
func f(ix *Index) {
	v := View{Dead: true}
	v.Dead = false
	_ = ix.Lookup(v, k)
}
`
	for _, path := range []string{"internal/eval/run.go", "internal/instance/instance.go", "internal/instance/instance_test.go"} {
		if got := lintSrc(t, path, src); len(got) != 0 {
			t.Fatalf("%s must be allowed, got %v", path, got)
		}
	}
	// eval files other than run.go (where stepView lives) are not
	// exempt — eval.go, which held it before the run frame, included.
	for _, path := range []string{"internal/eval/eval.go", "internal/eval/dred.go"} {
		if got := lintSrc(t, path, src); len(got) != 2 {
			t.Fatalf("%s must be flagged twice, got %v", path, got)
		}
	}
}

func TestWriteBarrierBypass(t *testing.T) {
	src := `package x
func f(inst *Instance) {
	inst.Relation("T").Add(tuple)
	inst.Relation("T").Delete(3)
	out.Relation(name).Put(0, tuple)
	m.e.inst.Relation(name).Rebirth(pos, birth)
}
`
	got := lintSrc(t, "internal/eval/engine.go", src)
	if len(got) != 4 {
		t.Fatalf("want 4 findings, got %v", got)
	}
	if !strings.Contains(got[3], "engine.go:6:26: direct Rebirth") {
		t.Fatalf("a re-birth past the barrier: %q", got[3])
	}
	for _, f := range got {
		if !strings.Contains(f, "write barrier") {
			t.Fatalf("finding must mention the write barrier: %q", f)
		}
	}
}

func TestWriteBarrierLegalPatterns(t *testing.T) {
	src := `package x
func f(inst *Instance) {
	inst.Ensure("T", 1).Add(tuple)   // Ensure IS the barrier
	inst.Ensure("T", 1).Rebirth(0, 1) // so a re-birth goes through it
	inst.Add("T", tuple)             // Instance.Add routes through it
	rel := inst.Relation("T")
	_ = rel.Len()                    // reads are fine
}
`
	if got := lintSrc(t, "internal/eval/engine.go", src); len(got) != 0 {
		t.Fatalf("legal patterns flagged: %v", got)
	}
}

func TestPackageKnob(t *testing.T) {
	src := `package x
var Fast = true
var Slow bool
var A, B = 1, false
var (
	ErrX          = errors.New("x")
	DefaultLimits = Limits{MaxFacts: 1 << 20}
	quiet         = true
	verbose       bool
)
func f() { var Local = true; _ = Local }
`
	got := lintSrc(t, "internal/eval/eval.go", src)
	if len(got) != 3 {
		t.Fatalf("want Fast, Slow and B flagged, got %v", got)
	}
	if !strings.Contains(got[0], "eval.go:2:5:") || !strings.Contains(got[0], "bool Fast") ||
		!strings.Contains(got[0], "use an option on the call or a constant") {
		t.Fatalf("finding position/message: %q", got[0])
	}
	if !strings.Contains(got[1], "bool Slow") || !strings.Contains(got[2], "eval.go:4:8:") {
		t.Fatalf("declared-bool and multi-name findings: %q", got[1:])
	}
	// Tests may keep switches of their own, and the rule covers shipped
	// code only (internal/, cmd/).
	for _, path := range []string{"internal/eval/eval_test.go", "cmd/seqlogd/main_test.go", "examples/quickstart/main.go", "bench_test.go"} {
		if got := lintSrc(t, path, src); len(got) != 0 {
			t.Fatalf("%s must not be checked, got %v", path, got)
		}
	}
	if got := lintSrc(t, "cmd/seqlogd/main.go", src); len(got) != 3 {
		t.Fatalf("cmd/ must be checked, got %v", got)
	}
}

func TestAnalyzeRedefines(t *testing.T) {
	// The two shapes internal/analyze/safety.go had before ast.Program.
	// Check became the one definition of §2.2: a second arity table and a
	// second per-stratum head set.
	src := `package analyze
func checkArities(p *Pass) {
	arity := map[string]int{}
	for _, r := range p.Rules {
		arity[r.Head.Name] = len(r.Head.Args)
	}
}
func runStratification(p *Pass) {
	headFrom := make([]map[string]bool, len(p.Prog.Strata)+1)
	for i := len(p.Prog.Strata) - 1; i >= 0; i-- {
		for _, r := range p.Prog.Strata[i] {
			headFrom[i][r.Head.Name] = true
		}
	}
}
func checkSingletons(p *Pass) {
	for _, r := range p.Rules {
		occ := map[ast.Var]int{}
		seen := map[string]bool{}
		_, _ = occ, seen
	}
}
func count(names []string) map[string]int {
	n := map[string]int{}
	for _, s := range names {
		n[s]++
	}
	return n
}
`
	got := lintSrc(t, "internal/analyze/safety.go", src)
	if len(got) != 2 {
		t.Fatalf("want checkArities and runStratification flagged, got %v", got)
	}
	if !strings.Contains(got[0], "safety.go:2:6: checkArities") || !strings.Contains(got[0], "map[string]int") ||
		!strings.Contains(got[0], "ast.Program.Check") {
		t.Fatalf("arity-table finding: %q", got[0])
	}
	if !strings.Contains(got[1], "safety.go:8:6: runStratification") || !strings.Contains(got[1], "[]map[string]bool") {
		t.Fatalf("head-set finding: %q", got[1])
	}
	// The definition itself lives in ast, other passes may count things,
	// and tests may build oracles.
	for _, path := range []string{"internal/ast/wellformed.go", "internal/rewrite/arity.go", "internal/analyze/gate_test.go"} {
		if got := lintSrc(t, path, src); len(got) != 0 {
			t.Fatalf("%s must not be checked, got %v", path, got)
		}
	}
}

func TestLintTreeOnRepo(t *testing.T) {
	// The repository itself must be clean — this is the same
	// invariant "make lint" enforces in CI.
	findings, err := lintTree("../..")
	if err != nil {
		t.Fatalf("lintTree: %v", err)
	}
	if len(findings) != 0 {
		t.Fatalf("repository violates engine invariants:\n%s", strings.Join(findings, "\n"))
	}
}
