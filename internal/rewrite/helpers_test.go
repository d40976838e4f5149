package rewrite

import (
	"math/rand"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/value"
)

// mustQuery evaluates prog on edb and returns the output relation.
func mustQuery(t *testing.T, prog ast.Program, edb *instance.Instance, output string) *instance.Relation {
	t.Helper()
	prep, err := eval.Compile(prog)
	if err != nil {
		t.Fatalf("Compile: %v\nprogram:\n%s", err, prog)
	}
	rel, err := prep.Query(edb, output, eval.Limits{})
	if err != nil {
		t.Fatalf("Query(%s): %v\nprogram:\n%s", output, err, prog)
	}
	return rel
}

// assertEquivalent checks that two programs compute the same output
// relation on each instance.
func assertEquivalent(t *testing.T, p1, p2 ast.Program, output string, instances ...*instance.Instance) {
	t.Helper()
	for i, edb := range instances {
		r1 := mustQuery(t, p1, edb, output)
		r2 := mustQuery(t, p2, edb, output)
		if !r1.Equal(r2) {
			t.Fatalf("instance %d: output %s differs\noriginal: %v\nrewritten: %v\nEDB:\n%s\nrewritten program:\n%s",
				i, output, r1.Sorted(), r2.Sorted(), edb, p2)
		}
	}
}

// randomFlatInstances builds deterministic pseudo-random flat monadic
// instances over the given relation names and alphabet.
func randomFlatInstances(seed int64, count int, rels []string, alphabet []string, maxPaths, maxLen int) []*instance.Instance {
	r := rand.New(rand.NewSource(seed))
	var out []*instance.Instance
	for i := 0; i < count; i++ {
		inst := instance.New()
		for _, rel := range rels {
			n := r.Intn(maxPaths + 1)
			for j := 0; j < n; j++ {
				l := r.Intn(maxLen + 1)
				p := make(value.Path, l)
				for k := range p {
					p[k] = value.Intern(alphabet[r.Intn(len(alphabet))])
				}
				inst.AddPath(rel, p)
			}
			// Relations must exist even when empty so arities line up.
			inst.Ensure(rel, 1)
		}
		out = append(out, inst)
	}
	return out
}

// holdsOn reports whether the nullary relation A holds after running p.
func holdsOn(p ast.Program, edb *instance.Instance) (bool, error) {
	prep, err := eval.Compile(p)
	if err != nil {
		return false, err
	}
	return prep.Holds(edb, "A", eval.Limits{})
}

func mustParse(t *testing.T, src string) ast.Program {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	return p
}
