// The differential maintenance fuzzer: random stratified programs
// (see scenario.go), random assert/retract interleavings, and after
// every step two independently computed answers that must agree tuple
// for tuple —
//
//   - an engine maintained incrementally (delete-and-rederive over the
//     delta-hoisted plan variants),
//   - Prepared.Eval from scratch over a shadow copy of the EDB.
//
// Both run the one evaluator configuration there is, so the oracle is
// the code every binary runs; Prepared.Eval itself is pinned against a
// naive scan evaluator over the same scenarios in internal/eval
// (TestEvalMatchesNaiveReference). Any divergence — a missed
// overdeletion, a rederivation the pruner wrongly kept, a suffix-index
// probe returning a stale position — is reported with the full
// program, the step history, and the first differing fact.
package fuzztest

import (
	"fmt"
	"math/rand"
	"testing"

	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
)

// runSeed replays one scenario, checking after every step that the
// maintained engine and the from-scratch evaluation agree exactly.
func runSeed(t *testing.T, seed int64) {
	t.Helper()
	sc := GenScenario(rand.New(rand.NewSource(seed)))

	prog, err := parser.ParseProgram(sc.Src)
	if err != nil {
		t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, sc.Src)
	}
	prep, err := eval.Compile(prog)
	if err != nil {
		t.Fatalf("seed %d: generated program does not compile: %v\n%s", seed, err, sc.Src)
	}
	limits := eval.Limits{}
	eng, err := eval.NewEngine(prep, nil, limits)
	if err != nil {
		t.Fatalf("seed %d: NewEngine: %v", seed, err)
	}

	sh := NewShadow()
	for i, st := range sc.Steps {
		if st.Retract {
			_, err = eng.Retract(Batch(st.Facts))
		} else {
			_, err = eng.Assert(Batch(st.Facts))
		}
		if err != nil {
			t.Fatalf("seed %d step %d: %v\n%s%s", seed, i, err, sc.Src, sc.History(i))
		}
		sh.Apply(st)

		want, err := prep.Eval(sh.EDB(), limits)
		if err != nil {
			t.Fatalf("seed %d step %d: from-scratch Eval: %v\n%s%s", seed, i, err, sc.Src, sc.History(i))
		}
		snap, err := eng.Snapshot()
		if err != nil {
			t.Fatalf("seed %d step %d: Snapshot: %v", seed, i, err)
		}
		if d := instance.Diff(snap, want); d != "" {
			t.Fatalf("seed %d step %d: engine diverges from scratch: %s\n%s%s",
				seed, i, d, sc.Src, sc.History(i))
		}
	}
}

// TestDifferentialMaintenance replays a fixed battery of seeded
// interleavings; every maintenance bug this package has caught becomes
// reproducible by its seed.
func TestDifferentialMaintenance(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSeed(t, seed)
		})
	}
}

// FuzzDifferentialMaintenance exposes the same differential check to
// the native fuzzer: go test -fuzz=FuzzDifferentialMaintenance
// ./internal/fuzztest explores seeds beyond the fixed battery.
func FuzzDifferentialMaintenance(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runSeed(t, seed)
	})
}
