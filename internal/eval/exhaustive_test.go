package eval_test

// This file is the bounded-exhaustive maintenance oracle: every history
// of single-fact toggles up to a depth, run on one long-lived engine in
// depth-first order. Shapes that depend on birth order escape random
// histories; they cannot escape all the small ones.

import (
	"flag"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"seqlog/internal/ast"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/queries"
	"seqlog/internal/wal"
)

// walkDeeper deepens every walk, for a run longer than tier-1's:
// go test ./internal/eval -run TestMaintenanceWalk -walk.deeper 1
var walkDeeper = flag.Int("walk.deeper", 0, "toggles added to the depth of every maintenance walk")

// chooser is where a bounded enumeration draws its choices: an odometer
// enumerates every sequence, a random source would sample one.
type chooser interface{ choose(n int) int }

var _ chooser = (*odometer)(nil)

// odometer enumerates choice sequences in lexicographic order. next
// moves to the following sequence and returns how many leading choices
// it shares with the previous one, or -1 after the last; prune(k) makes
// it skip every sequence that starts with the current k+1 choices.
type odometer struct {
	digits, bases []int
	pos           int // the current run's next choice
}

func (o *odometer) choose(n int) int {
	if o.pos == len(o.digits) {
		o.digits, o.bases = append(o.digits, 0), append(o.bases, n)
	}
	o.pos++
	return o.digits[o.pos-1]
}

func (o *odometer) next() int {
	for i := len(o.digits) - 1; i >= 0; i-- {
		if o.digits[i]++; o.digits[i] < o.bases[i] {
			o.digits, o.bases, o.pos = o.digits[:i+1], o.bases[:i+1], 0
			return i
		}
	}
	return -1
}

func (o *odometer) prune(k int) { o.digits, o.bases = o.digits[:k+1], o.bases[:k+1] }

// alphabet is one walk: a program, facts held fixed, and the facts a
// history toggles (asserted when absent, retracted when present). Every
// renaming of the constants in nodes leaves the program alone, so a
// walk visits only the histories no renaming makes lexicographically
// smaller; a prefix of such a history is one too, so the walk prunes at
// the first prefix that is not. Every alphabet is walked a second time
// with the pruner's proof off (proof depth 0), offDeeper toggles deeper
// (or shallower, when negative): the proof keeps the candidates whose
// loss the goal pass and the chase repair, so only that pass reaches the
// repair.
type alphabet struct {
	name, src, fixed, nodes string
	facts                   []string
	depth, offDeeper        int
}

// renamings returns, for every permutation of a.nodes that extends pn,
// the map of fact indexes it induces.
func (a alphabet) renamings(pn string) (out [][]int) {
	if len(pn) < len(a.nodes) {
		for _, x := range a.nodes {
			if !strings.ContainsRune(pn, x) {
				out = append(out, a.renamings(pn+string(x))...)
			}
		}
		return out
	}
	pm := make([]int, len(a.facts))
	for i, f := range a.facts {
		pm[i] = slices.Index(a.facts, strings.Map(func(r rune) rune {
			if j := strings.IndexRune(a.nodes, r); j >= 0 {
				return rune(pn[j])
			}
			return r
		}, f))
	}
	return [][]int{pm}
}

func walkAlphabets() []alphabet {
	edges := func(nodes string, loops bool) (fs []string) {
		for _, x := range nodes {
			for _, y := range nodes {
				if x != y || loops {
					fs = append(fs, fmt.Sprintf("R(%c.%c).", x, y))
				}
			}
		}
		return fs
	}
	// Reachability's closure rules: its goal S :- T(a.b) would pin two
	// nodes against renaming, so only the paper-query walk keeps it.
	closure := "T(@x.@y) :- R(@x.@y).\nT(@x.@z) :- T(@x.@y), R(@y.@z)."
	out := []alphabet{
		{name: "reachability-4", src: closure, nodes: "abcd", facts: edges("abcd", false), depth: 6},
		// Its proof-off pass one toggle shallower costs a tenth as much.
		{name: "reachability-3-loops", src: closure, nodes: "abc", facts: edges("abc", true), depth: 6, offDeeper: -1},
		// GenScenario's negation family, every optional rule on. Its
		// proof-off pass goes one toggle deeper: the shortest history in
		// which a fact the reinsert restores is read under negation by a
		// later component has five toggles.
		{name: "scenario-negation", depth: 4, offDeeper: 1, src: `C(@x.@y) :- E1(@x.@y).
C(@x.@z) :- C(@x.@y), E1(@y.@z).
D($x) :- E2($x).
J(@x.@z) :- E1(@x.@y), E2(@y.@z).
S(@x.@y) :- E1(@x.@y), E2(@z.@y).
H(@x) :- E1(@x.a).
N($x) :- E2($x), !C($x).
M($x) :- D($x), !J($x).`, facts: strings.Fields("E1(a.a). E1(a.b). E1(b.a). E1(b.b). E2(a). E2(b). E2(a.a). E2(a.b). E2(b.a). E2(b.b).")}}
	fixed := map[string]string{"nfa-accept": "N(p). F(q). D(p, a, q). D(q, b, p). D(q, a, q)."}
	for _, q := range queries.All() {
		a := alphabet{name: q.Name, src: q.Program.String(), fixed: fixed[q.Name], depth: 4}
		for _, rel := range q.EDB {
			for _, p := range strings.Fields("eps a b a.a a.b b.a b.b") {
				if !strings.Contains(a.fixed, rel+"(") {
					a.facts = append(a.facts, rel+"("+p+").")
				}
			}
		}
		if len(a.facts) > 7 {
			a.depth = 3
		}
		if q.Terminating {
			out = append(out, a)
		}
	}
	return out
}

// TestMaintenanceWalk checks every history of each alphabet up to its
// depth. After every toggle and every undo, the engine's snapshot must
// equal the reference (specEval) of the current EDB, and the snapshot
// taken before the toggle must be unchanged. At one leaf in 64, a
// replay of the history's records through Replayer, the handler WAL
// recovery runs, must land on the engine's state.
func TestMaintenanceWalk(t *testing.T) {
	// Writes churn short-lived state: a GC target of 400 cut the walk by
	// a quarter, and 1200 by 13 % more, at a peak RSS of 200-260 MB.
	gc := debug.SetGCPercent(1200)
	t.Cleanup(func() { debug.SetGCPercent(gc) })
	for _, a := range walkAlphabets() {
		a.depth += *walkDeeper
		if raceBuild {
			a.depth, a.offDeeper = 2, 0
		}
		ref := &reference{a: a, prog: parser.MustParseProgram(a.src), models: map[uint64]*instance.Instance{}}
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			walk(t, ref, false, a.depth)
		})
		t.Run(a.name+"-proof-depth-0", func(t *testing.T) {
			t.Parallel()
			walk(t, ref, true, a.depth+a.offDeeper)
		})
	}
}

// reference is a walk's oracle: specEval of the fixed facts plus each
// set of toggled facts, memoized. It does not depend on the proof depth,
// so the two passes of one alphabet share it.
type reference struct {
	a      alphabet
	prog   ast.Program
	mu     sync.Mutex
	models map[uint64]*instance.Instance
}

func (r *reference) model(t *testing.T, set uint64) *instance.Instance {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.models[set] == nil {
		src := r.a.fixed
		for i, f := range r.a.facts {
			if set>>i&1 == 1 {
				src += " " + f
			}
		}
		var err error
		if r.models[set], err = specEval(r.prog, parser.MustParseInstance(src)); err != nil {
			t.Fatalf("reference on %s: %v", src, err)
		}
	}
	return r.models[set]
}

func walk(t *testing.T, ref *reference, proofOff bool, depth int) {
	a := ref.a
	fixed := parser.MustParseInstance(a.fixed)
	eng, err := eval.FromSource(a.src, fixed, eval.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if proofOff {
		eval.SetProofDepth(eng, 0)
	}
	model := func(set uint64) *instance.Instance { return ref.model(t, set) }
	renamings, batches := a.renamings(""), []*instance.Instance{}
	for _, f := range a.facts {
		batches = append(batches, parser.MustParseInstance(f))
	}
	record := func(set uint64, i int) wal.Record {
		return wal.Record{Op: [2]wal.Op{wal.OpAssert, wal.OpRetract}[set>>i&1], Batch: batches[i]}
	}
	var set uint64 // the toggled facts present
	var path []int // the toggles since the root
	history := func() (recs []wal.Record, text string) {
		var s uint64
		for _, i := range path {
			recs, text, s = append(recs, record(s, i)), text+fmt.Sprintf("%s %s ", record(s, i).Op, a.facts[i]), s^1<<i
		}
		return recs, text
	}
	ops, leaves := 0, 0
	failf := func(format string, args ...any) {
		_, h := history()
		t.Fatalf("op %d, history %s: %s", ops, h, fmt.Sprintf(format, args...))
	}
	now, _ := eng.Snapshot()
	toggle := func(i int) {
		before, rec := now, record(set, i)
		ops++
		if _, _, err := eng.Apply(rec); err != nil {
			failf("%s %s: %v", rec.Op, a.facts[i], err)
		}
		if now, _ = eng.Snapshot(); !now.Equal(model(set ^ 1<<i)) {
			failf("%s %s: engine ≠ reference: %s", rec.Op, a.facts[i], instance.Diff(now, model(set^1<<i)))
		}
		if !before.Equal(model(set)) {
			failf("%s %s changed the epoch before it: %s", rec.Op, a.facts[i], instance.Diff(before, model(set)))
		}
		set ^= 1 << i
	}
	canonical := func(h []int) bool {
		for _, pm := range renamings {
			if j := slices.IndexFunc(h, func(i int) bool { return pm[i] != i }); j >= 0 && pm[h[j]] < h[j] {
				return false
			}
		}
		return true
	}
	o := &odometer{}
	for keep := 0; keep >= 0; keep = o.next() {
		for ; len(path) > keep; path = path[:len(path)-1] {
			toggle(path[len(path)-1])
		}
		for k := range depth {
			i := o.choose(len(a.facts))
			if k < keep {
				continue
			}
			if !canonical(append(path, i)) {
				o.prune(k)
				break
			}
			path = append(path, i)
			toggle(i)
		}
		if len(path) < depth {
			continue
		}
		// A Replayer proves at the default depth, so the first pass
		// replays the same histories to the same states.
		if leaves++; leaves%64 != 1 || proofOff {
			continue
		}
		var r eval.Replayer
		recs, _ := history()
		for _, rec := range append([]wal.Record{{Op: wal.OpLoad, Program: a.src}, {Op: wal.OpAssert, Batch: fixed}}, recs...) {
			if err := r.Replay(rec); err != nil {
				failf("replay: %v", err)
			}
		}
		if got, _ := r.Engine().Snapshot(); !got.Equal(now) {
			failf("replay ≠ engine: %s", instance.Diff(got, now))
		}
	}
	t.Logf("%d facts, depth %d: %d ops, %d leaves", len(a.facts), depth, ops, leaves)
}
