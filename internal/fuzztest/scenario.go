// Package fuzztest pins the incremental maintenance machinery against
// the from-scratch semantics with differential fuzzers. This file
// holds the shared scenario generator — random stratified programs
// (recursion, joins, negation, bound-suffix patterns) with random
// assert/retract interleavings — as ordinary exported code, so other
// packages' differential suites (the WAL crash-recovery fuzzer in
// internal/wal) replay the same histories the maintenance fuzzer is
// pinned against.
package fuzztest

import (
	"fmt"
	"math/rand"
	"strings"

	"seqlog/internal/instance"
	"seqlog/internal/value"
)

// Fact is one EDB tuple of a scenario; all generated relations are
// unary relations of paths.
type Fact struct {
	Rel  string
	Path value.Path
}

func (f Fact) String() string { return fmt.Sprintf("%s(%s).", f.Rel, f.Path) }

// Step is one operation of an interleaving: a batch of facts asserted
// into or retracted from the EDB.
type Step struct {
	Retract bool
	Facts   []Fact
}

func (s Step) String() string {
	verb := "assert"
	if s.Retract {
		verb = "retract"
	}
	parts := make([]string, len(s.Facts))
	for i, f := range s.Facts {
		parts[i] = f.String()
	}
	return verb + " " + strings.Join(parts, " ")
}

// Scenario is one generated fuzz case: a program and an interleaving
// of assert/retract batches.
type Scenario struct {
	Src   string
	Steps []Step
}

// History renders steps [0, i] of the scenario, one per line, for
// failure messages.
func (sc Scenario) History(i int) string {
	var b strings.Builder
	for j := 0; j <= i && j < len(sc.Steps); j++ {
		fmt.Fprintf(&b, "  %2d: %s\n", j, sc.Steps[j])
	}
	return b.String()
}

// GenScenario draws a random scenario. Two program families alternate:
// auto-stratified templates covering the classic maintenance paths
// (recursion, multi-way joins with exact/prefix/suffix probes, negation
// over earlier strata), and explicit-strata templates — written `---`
// strata with mutually recursive sibling relations inside one stratum,
// negation of an earlier stratum and a join across two earlier strata.
// Every rule is
// non-growing (heads only rearrange bound atom variables), so all
// fixpoints are finite.
func GenScenario(r *rand.Rand) Scenario {
	atoms := []string{"a", "b", "c", "d", "e"}[:3+r.Intn(3)]

	var src string
	if r.Float64() < 0.35 {
		src = genWrittenStrata(r)
	} else {
		src = genAutoStratified(r)
	}

	randFact := func() Fact {
		rel := "E1"
		if r.Intn(2) == 1 {
			rel = "E2"
		}
		p := make(value.Path, 1+r.Intn(3))
		for i := range p {
			p[i] = value.Intern(atoms[r.Intn(len(atoms))])
		}
		return Fact{Rel: rel, Path: p}
	}

	var steps []Step
	var present []Fact // grows only; retracting an absent fact is a no-op
	n := 8 + r.Intn(7)
	for i := 0; i < n; i++ {
		st := Step{Retract: i > 0 && r.Float64() < 0.4}
		for j := 0; j < 1+r.Intn(3); j++ {
			if st.Retract && len(present) > 0 && r.Float64() < 0.7 {
				st.Facts = append(st.Facts, present[r.Intn(len(present))])
			} else {
				f := randFact()
				st.Facts = append(st.Facts, f)
				if !st.Retract {
					present = append(present, f)
				}
			}
		}
		steps = append(steps, st)
	}

	return Scenario{Src: src, Steps: steps}
}

// genAutoStratified assembles a program without explicit strata (the
// parser auto-stratifies): the unary transitive closure (whose
// recursive atom is served by a ground-suffix probe under deltas on the
// edge relation), multi-way joins with exact and prefix probes, a
// bound-suffix join, a ground-constant suffix pattern, and negation
// over earlier strata (the overdelete/rederive path of Assert and the
// insertion path of Retract).
func genAutoStratified(r *rand.Rand) string {
	var rules []string
	rules = append(rules,
		"C(@x.@y) :- E1(@x.@y).",
		"C(@x.@z) :- C(@x.@y), E1(@y.@z).")
	copyT := r.Float64() < 0.6
	if copyT {
		rules = append(rules, "D($x) :- E2($x).")
	}
	joinT := r.Float64() < 0.6
	if joinT {
		rules = append(rules, "J(@x.@z) :- E1(@x.@y), E2(@y.@z).")
	}
	if r.Float64() < 0.6 {
		// Bound-suffix join: under a delta on E1, E2 is probed by the
		// ground suffix @y; under a delta on E2, E1 likewise.
		rules = append(rules, "S(@x.@y) :- E1(@x.@y), E2(@z.@y).")
	}
	if r.Float64() < 0.4 {
		// Ground-constant suffix: the base plan itself uses the suffix
		// index (no variable need be bound first).
		rules = append(rules, "H(@x) :- E1(@x.a).")
	}
	if r.Float64() < 0.5 {
		rules = append(rules, "N($x) :- E2($x), !C($x).")
	}
	if copyT && joinT && r.Float64() < 0.5 {
		rules = append(rules, "M($x) :- D($x), !J($x).")
	}
	return strings.Join(rules, "\n") + "\n"
}

// genWrittenStrata assembles a program with explicit `---` strata in
// classical order (each relation defined in one stratum and read only
// there or later). Stratum 1 defines F and a pair of mutually
// recursive siblings RA/RB, whose retractions lean on the pruner's
// cross-relation birth order; stratum 2 reads F and optionally negates
// RA; stratum 3 defines a fresh head F2 and optionally joins over both
// earlier strata.
func genWrittenStrata(r *rand.Rand) string {
	s1 := []string{
		"F(@x) :- E1(@x.@y).",
		"RA(@x.@y) :- E1(@x.@y).",
		"RB(@x.@z) :- RA(@x.@y), E2(@y.@z).",
		"RA(@x.@z) :- RB(@x.@y), E1(@y.@z).",
	}
	s2 := []string{"Q(@y) :- F(@x), E2(@x.@y)."}
	if r.Float64() < 0.5 {
		s2 = append(s2, "G($x) :- E2($x), !RA($x).")
	}
	s3 := []string{"F2(@x) :- E2(@y.@x)."}
	if r.Float64() < 0.5 {
		s3 = append(s3, "P(@x) :- Q(@x), RB(@x.@y).")
	}
	join := strings.Join
	return join(s1, "\n") + "\n---\n" + join(s2, "\n") + "\n---\n" + join(s3, "\n") + "\n"
}

// Shadow is the reference copy of the EDB, maintained by replaying the
// interleaving directly; EDB() materializes it as a fresh instance for
// a from-scratch evaluation.
type Shadow struct {
	facts map[string]Fact
}

// NewShadow returns an empty shadow EDB.
func NewShadow() *Shadow { return &Shadow{facts: map[string]Fact{}} }

func (s *Shadow) key(f Fact) string { return f.Rel + "\x00" + f.Path.String() }

// Apply replays one step into the shadow.
func (s *Shadow) Apply(st Step) {
	for _, f := range st.Facts {
		if st.Retract {
			delete(s.facts, s.key(f))
		} else {
			s.facts[s.key(f)] = f
		}
	}
}

// EDB materializes the shadow as a fresh instance. The E1/E2 relations
// are always present (possibly empty), mirroring a long-lived engine
// whose relations never disappear.
func (s *Shadow) EDB() *instance.Instance {
	inst := instance.New()
	inst.Ensure("E1", 1)
	inst.Ensure("E2", 1)
	for _, f := range s.facts {
		inst.AddPath(f.Rel, f.Path)
	}
	return inst
}

// Batch materializes one step's facts as an engine delta.
func Batch(facts []Fact) *instance.Instance {
	inst := instance.New()
	for _, f := range facts {
		inst.AddPath(f.Rel, f.Path)
	}
	return inst
}
