package instance

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"seqlog/internal/value"
)

// The order oracle: whatever a relation lineage has been through —
// appends, tombstones, re-adds of a deleted tuple, freezes, barrier
// clones, compactions, deep clones — Sorted and WriteFacts must agree
// with sorting Tuples() by Tuple.Compare from scratch, on the live
// relation and on every older snapshot still held. It states the
// presentation contract of a query reply independently of how the
// canonical order is produced.

// oracleAtoms mixes bare atoms with ones the renderer must quote.
var oracleAtoms = []string{"a", "b", "c1", "Z_9", "eps", "", "x.y", "<", "it's", "é", "a b"}

func oraclePath(rng *rand.Rand, depth int) value.Path {
	p := make(value.Path, rng.Intn(4))
	for i := range p {
		if depth < 3 && rng.Intn(5) == 0 {
			p[i] = value.Pack(oraclePath(rng, depth+1))
		} else {
			p[i] = value.Intern(oracleAtoms[rng.Intn(len(oracleAtoms))])
		}
	}
	return p
}

// oracleUniverse returns up to n tuples of the given arity with
// distinct hashes (arity 0 has exactly one tuple).
func oracleUniverse(rng *rand.Rand, arity, n int) []Tuple {
	seen := map[uint64]bool{}
	var out []Tuple
	for tries := 0; len(out) < n && tries < 20*n; tries++ {
		t := make(Tuple, arity)
		for i := range t {
			t[i] = oraclePath(rng, 0)
		}
		if k := t.Hash(); !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}

// factLine prints one fact the way the parser reads it back, sharing
// nothing with WriteFacts but Path.String.
func factLine(name string, t Tuple) string {
	if len(t) == 0 {
		return name + ".\n"
	}
	parts := make([]string, len(t))
	for i, p := range t {
		parts[i] = p.String()
	}
	return name + "(" + strings.Join(parts, ", ") + ").\n"
}

// scratchFacts is the reference: the live tuples sorted from scratch,
// and each printed by line. It reads the tuple log and nothing else.
func scratchFacts(r *Relation, line func(Tuple) string) ([]Tuple, string) {
	want := r.Tuples()
	slices.SortStableFunc(want, Tuple.Compare)
	var text strings.Builder
	for _, tup := range want {
		text.WriteString(line(tup))
	}
	return want, text.String()
}

// checkOrder asserts Sorted and WriteFacts of r against the reference,
// the live tuples sorted from scratch and their printed text.
func checkOrder(t *testing.T, state string, r *Relation, want []Tuple, wantText string) {
	t.Helper()
	// Bounded memory: 4 bytes per tuple-log position, never more — as the
	// step left it (inherited, renumbered by Compact) and as the read
	// below extends it.
	defer func() {
		if len(r.order) != r.Size() {
			t.Fatalf("%s: the order holds %d positions after a read, the log %d", state, len(r.order), r.Size())
		}
	}()
	if len(r.order) > r.Size() {
		t.Fatalf("%s: the order holds %d positions, the log only %d", state, len(r.order), r.Size())
	}
	got := r.Sorted()
	if len(got) != len(want) {
		t.Fatalf("%s: Sorted has %d tuples, want %d", state, len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: Sorted[%d] = %v, want %v", state, i, got[i], want[i])
		}
	}
	var b bytes.Buffer
	if err := r.WriteFacts(&b, "R"); err != nil {
		t.Fatalf("%s: WriteFacts: %v", state, err)
	}
	if b.String() != wantText {
		t.Fatalf("%s: WriteFacts printed\n%swant\n%s", state, b.String(), wantText)
	}
	// The print went through the chunks' cached text: after it, every
	// chunk holds a text covering what this epoch sees of it, and no text
	// covers a fact its chunk does not hold.
	for ci, c := range r.chunks {
		seen := min(chunkSize, r.size-ci<<chunkShift)
		if tx := c.text.Load(); tx == nil || len(tx.at)-1 < seen || len(tx.at)-1 > len(c.hashes) {
			t.Fatalf("%s: chunk %d of %d facts (%d in this epoch) has no text covering them", state, ci, len(c.hashes), seen)
		}
	}
}

func TestOrderOracle(t *testing.T) {
	for seed := 0; seed < 20; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Parallel()
			orderOracle(t, seed)
		})
	}
}

func orderOracle(t *testing.T, seed int) {
	const steps = 2000
	rng := rand.New(rand.NewSource(int64(seed)))
	arity := seed % 4
	// Most seeds stay small so deletes and re-adds collide often; two
	// outgrow a chunk so sealed chunks, tombstoned stamps and tails larger
	// than the already-ordered prefix all occur.
	n := 24 + 8*(seed%10)
	if seed%10 == 9 {
		n = chunkSize + chunkSize/4
	}
	universe := oracleUniverse(rng, arity, n)
	pick := func() Tuple { return universe[rng.Intn(len(universe))] }
	// The reference line of each tuple is printed once, up front: the
	// oracle re-sorts the live epoch at every step but need not re-print.
	lines := map[uint64]string{}
	for _, tup := range universe {
		lines[tup.Hash()] = factLine("R", tup)
	}
	line := func(tup Tuple) string { return lines[tup.Hash()] }

	inst := New()
	inst.Ensure("R", arity)
	// held are older epochs of the lineage, each with its reference
	// computed once when it was frozen: nothing done to a later epoch may
	// change what it sorts or prints.
	type epoch struct {
		rel   *Relation
		want  []Tuple
		facts string
	}
	var held []epoch

	for step := 0; step < steps; step++ {
		state := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(100); {
		case op < 40:
			inst.Add("R", pick())
		case op < 50:
			for k := rng.Intn(chunkSize / 2); k >= 0; k-- {
				inst.Add("R", pick())
			}
		case op < 70:
			inst.Delete("R", pick())
		case op < 80:
			// Delete then re-add: the tuple now occupies two positions,
			// the earlier one dead on this epoch and alive on older ones.
			if live := inst.Relation("R").Tuples(); len(live) > 0 {
				tup := live[rng.Intn(len(live))]
				inst.Delete("R", tup)
				inst.Add("R", tup)
			}
		case op < 88:
			r := inst.Relation("R")
			r.Freeze()
			if len(held) == 3 {
				held = append(held[:0], held[1:]...)
			}
			want, facts := scratchFacts(r, line)
			held = append(held, epoch{r, want, facts})
		case op < 93:
			inst.Ensure("R", arity) // the barrier clone, when frozen
		case op < 97:
			inst.Ensure("R", arity).Compact()
		default:
			inst.Put("R", inst.Relation("R").Clone())
		}

		want, facts := scratchFacts(inst.Relation("R"), line)
		checkOrder(t, state, inst.Relation("R"), want, facts)
		for k, h := range held {
			checkOrder(t, fmt.Sprintf("%s, epoch held -%d (frozen earlier)", state, len(held)-k), h.rel, h.want, h.facts)
		}
	}
}

// TestOrderReadersBesideWriter: readers of a frozen epoch race each
// other to build its order and its chunks' text on first use while the
// owner clones it at the barrier (inheriting the order and the tail's
// text, or not yet), appends, deletes, prints its own epoch and freezes
// the next one. Each reader also prints the epoch before its own, which
// shares its sealed chunks, so two epochs print side by side while the
// owner writes; every print shows exactly its epoch's rows. The schedule
// coverage under -race is the point.
func TestOrderReadersBesideWriter(t *testing.T) {
	const epochs, readers = 12, 4
	row := func(k int) Tuple {
		return tup(value.PathOf("k"+fmt.Sprint(k*7919%1000)), value.PathOf("v"+fmt.Sprint(k)))
	}
	line := func(tup Tuple) string { return factLine("R", tup) }
	inst := New()
	next := 0
	for ; next < 2*chunkSize+17; next++ {
		inst.Add("R", row(next))
	}
	type epoch struct {
		rel  *Relation
		rows []Tuple
		text string
	}
	check := func(who string, ep epoch) {
		var b bytes.Buffer
		if err := ep.rel.WriteFacts(&b, "R"); err != nil || b.String() != ep.text {
			t.Errorf("%s: WriteFacts (err %v) did not print its epoch's %d rows", who, err, len(ep.rows))
		}
		if got := ep.rel.Sorted(); !slices.EqualFunc(got, ep.rows, Tuple.Equal) {
			t.Errorf("%s: Sorted returned %d rows, not its epoch's %d", who, len(got), len(ep.rows))
		}
	}
	var wg sync.WaitGroup
	var prev epoch
	for e := 0; e < epochs; e++ {
		cur := epoch{rel: inst.Relation("R")}
		cur.rel.Freeze()
		cur.rows, cur.text = scratchFacts(cur.rel, line)
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(prev epoch) {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					check(fmt.Sprintf("epoch %d reader %d", e, g), cur)
					if prev.rel != nil {
						check(fmt.Sprintf("epoch %d reader %d, epoch before", e, g), prev)
					}
				}
			}(prev)
		}
		prev = cur
		for k := 0; k < 40; k++ {
			inst.Add("R", row(next))
			next++
			if k%10 == 9 {
				own := epoch{rel: inst.Relation("R")}
				own.rows, own.text = scratchFacts(own.rel, line)
				check(fmt.Sprintf("epoch %d owner after %d appends", e+1, k+1), own)
			}
		}
		for k := 0; k < 10; k++ {
			inst.Delete("R", row((e*53+k*31)%next))
		}
		if e%5 == 4 {
			inst.Ensure("R", 2).Compact()
		}
	}
	wg.Wait()
}

// TestChunkTextHasNoSlack: the printed text of a relation shaped like a
// transitive closure (two short atoms a fact, ≈ 12 bytes a line) holds
// at most 10 % more bytes than it prints, after a first print of every
// chunk and after a print that extends the tail's text.
func TestChunkTextHasNoSlack(t *testing.T) {
	inst := New()
	add := func(from, to int) {
		for k := from; k < to; k++ {
			inst.Add("T", tup(value.PathOf(fmt.Sprint("n", k%97)), value.PathOf(fmt.Sprint("n", k*31%1009))))
		}
	}
	for _, n := range [][2]int{{0, 10*chunkSize + 17}, {10*chunkSize + 17, 10*chunkSize + 60}} {
		add(n[0], n[1])
		r := inst.Relation("T")
		if err := r.WriteFacts(io.Discard, "T"); err != nil {
			t.Fatal(err)
		}
		r.Freeze()
		held, text := 0, 0
		for _, c := range r.chunks {
			tx := c.text.Load()
			held, text = held+cap(tx.buf), text+len(tx.buf)
		}
		if held*10 > text*11 {
			t.Fatalf("%d facts: the chunks hold %d bytes for %d bytes of text", n[1], held, text)
		}
	}
}

// BenchmarkSortedFresh prints a relation no reader has sorted yet:
// WriteFacts of 100 000 two-atom paths over 400 atoms, the shape of
// reachability's closure, to io.Discard. It is what a CLI run pays once
// per printed relation: the ranked sort of every position and every
// chunk's text. Each iteration prints a fresh Clone, made off the clock.
func BenchmarkSortedFresh(b *testing.B) {
	atoms := make(value.Path, 400)
	for i := range atoms {
		atoms[i] = value.Intern(fmt.Sprint("n", i))
	}
	rng := rand.New(rand.NewSource(1))
	base := NewRelation(1)
	for base.Size() < 100_000 {
		base.Add(Tuple{value.Path{atoms[rng.Intn(len(atoms))], atoms[rng.Intn(len(atoms))]}})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := base.Clone()
		b.StartTimer()
		if err := r.WriteFacts(io.Discard, "T"); err != nil {
			b.Fatal(err)
		}
	}
}
