package instance

import (
	"fmt"
	"sort"
	"testing"

	"seqlog/internal/value"
)

func TestViewAdmitsBoundaries(t *testing.T) {
	const maxBirth = 100
	cases := []struct {
		name  string
		v     View
		birth uint64
		want  bool
	}{
		{"zero view admits anything", View{}, 999, true},
		{"base fact (stamp 0) under the tightest bound", View{MaxBirth: 1}, 0, true},
		{"base fact (stamp 0) under any bound", View{MaxBirth: maxBirth}, 0, true},
		{"birth below MaxBirth", View{MaxBirth: maxBirth}, maxBirth - 1, true},
		{"birth at MaxBirth", View{MaxBirth: maxBirth}, maxBirth, false},
		{"birth above MaxBirth", View{MaxBirth: maxBirth}, maxBirth + 1, false},
		{"Dead does not widen the birth bound", View{Dead: true, MaxBirth: maxBirth}, maxBirth, false},
	}
	for _, c := range cases {
		if got := c.v.Admits(c.birth); got != c.want {
			t.Errorf("%s: %+v.Admits(%d) = %v, want %v", c.name, c.v, c.birth, got, c.want)
		}
	}
}

// probeTuple is the k-th tuple of the oracle relations: few distinct
// values per column position, so every index bucket holds many tuples
// and every key selects a proper subset.
func probeTuple(k int) Tuple {
	return tup(
		value.PathOf(fmt.Sprint("a", k%5), fmt.Sprint("b", k%3)),
		value.PathOf(fmt.Sprint("x", k%7), "m", fmt.Sprint(k), fmt.Sprint("y", k%4)),
	)
}

// probeWriter appends the tuples of one generator to one relation of
// a stamped instance, so every position has its own birth.
type probeWriter struct {
	inst  *Instance
	st    *Stamper
	tuple func(k int) Tuple
	next  int
}

func newProbeWriter(tuple func(k int) Tuple) *probeWriter {
	w := &probeWriter{inst: New(), st: &Stamper{}, tuple: tuple}
	w.inst.SetStamper(w.st)
	return w
}

func (w *probeWriter) add(n int) {
	for ; n > 0; n-- {
		w.inst.Add("R", w.tuple(w.next))
		w.next++
	}
}

// churn tombstones every third tuple below the watermark and re-adds
// every ninth, so buckets hold dead positions and moved tuples.
func (w *probeWriter) churn() {
	for k := 0; k < w.next; k += 3 {
		w.inst.Delete("R", w.tuple(k))
	}
	for k := 0; k < w.next; k += 9 {
		w.inst.Add("R", w.tuple(k))
	}
}

func (w *probeWriter) rel() *Relation { return w.inst.Relation("R") }

// buildAll probes once per index shape the oracle test checks, so a
// following barrier has every kind of table to hand over.
func buildAll(r *Relation) {
	t := r.TupleAt(0)
	r.Index(0).Lookup(nil, View{}, t[0])
	r.Index(0, 1).Lookup(nil, View{}, t[0], t[1])
	for n := 1; n <= 2; n++ {
		r.PrefixLookup(nil, View{}, 1, t[1][:n])
		r.SuffixLookup(nil, View{}, 1, t[1][len(t[1])-n:])
	}
	r.PrefixLookup(nil, View{}, 0, t[0])
}

// barrier builds every index shape, freezes the relation behind a
// snapshot and returns the frozen epoch; the next write clones it.
func (w *probeWriter) barrier() *Relation {
	buildAll(w.rel())
	return w.inst.Snapshot().Relation("R")
}

// oracle is the specification of every probe: a linear scan of the
// tuple log filtered by tombstone visibility, the stamp bound and the
// kind's match predicate, in ascending position order.
func oracle(r *Relation, v View, match func(Tuple) bool) []int {
	var out []int
	for pos := 0; pos < r.Size(); pos++ {
		if (v.Dead || r.Live(pos)) && v.Admits(r.StampAt(pos)) && match(r.TupleAt(pos)) {
			out = append(out, pos)
		}
	}
	return out
}

func hasPrefix(p, prefix value.Path) bool {
	return len(p) >= len(prefix) && p[:len(prefix)].Equal(prefix)
}

func hasSuffix(p, suffix value.Path) bool {
	return len(p) >= len(suffix) && p[len(p)-len(suffix):].Equal(suffix)
}

// checkProbes compares every probe kind against the oracle on one
// relation, under every view, for keys drawn from its own tuples plus
// keys no tuple has.
func checkProbes(t *testing.T, state string, r *Relation) {
	t.Helper()
	mid := r.StampAt(r.Size() / 2)
	views := []View{
		{},
		{Dead: true},
		{MaxBirth: mid},
		{Dead: true, MaxBirth: mid},
	}
	keys := []Tuple{
		tup(value.PathOf("a0", "nope"), value.PathOf("x0", "m", "nope", "y0")),
		tup(value.PathOf("a0"), value.PathOf("y0")),
	}
	for pos := 0; pos < r.Size(); pos += 1 + r.Size()/40 {
		keys = append(keys, r.TupleAt(pos))
	}
	for _, v := range views {
		for _, key := range keys {
			check := func(kind string, got []int, match func(Tuple) bool) {
				t.Helper()
				want := oracle(r, v, match)
				if !sort.IntsAreSorted(got) {
					t.Fatalf("%s: %s %v under %+v: positions not ascending: %v", state, kind, key, v, got)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: %s %v under %+v:\n got %v\nwant %v", state, kind, key, v, got, want)
				}
			}
			check("exact[0]", r.Index(0).Lookup(nil, v, key[0]),
				func(u Tuple) bool { return u[0].Equal(key[0]) })
			check("exact[0 1]", r.Index(0, 1).Lookup(nil, v, key[0], key[1]),
				func(u Tuple) bool { return u.Equal(key) })
			for n := 1; n <= 2 && n <= len(key[1]); n++ {
				prefix, suffix := key[1][:n], key[1][len(key[1])-n:]
				check(fmt.Sprint("prefix col=1 len=", n), r.PrefixLookup(nil, v, 1, prefix),
					func(u Tuple) bool { return hasPrefix(u[1], prefix) })
				check(fmt.Sprint("suffix col=1 len=", n), r.SuffixLookup(nil, v, 1, suffix),
					func(u Tuple) bool { return hasSuffix(u[1], suffix) })
			}
			check("prefix col=0 whole", r.PrefixLookup(nil, v, 0, key[0]),
				func(u Tuple) bool { return hasPrefix(u[0], key[0]) })

			// Membership is the first-match form of the same probe.
			want := -1
			if all := oracle(r, v, func(u Tuple) bool { return u.Equal(key) }); len(all) > 0 {
				want = all[0]
			}
			if got := r.Position(v, key.Hash(), key); got != want {
				t.Fatalf("%s: Position %v under %+v = %d, want %d", state, key, v, got, want)
			}
			if got, want := r.Contains(key), r.Position(View{}, key.Hash(), key) >= 0; got != want {
				t.Fatalf("%s: Contains %v = %v, want %v", state, key, got, want)
			}
		}
	}
}

// TestProbesMatchLinearScan holds all four index kinds, under every
// view, to the brute-force oracle in every storage state an index can
// be in: freshly built, with tombstones, appended to by the heir of a
// frozen epoch (through the arrays that epoch still reads) over several
// generations, rebuilt by a second clone of a frozen epoch, the frozen
// epochs those barriers left behind, and the renumbered log after
// Compact.
func TestProbesMatchLinearScan(t *testing.T) {
	t.Run("fresh overlay", func(t *testing.T) {
		w := newProbeWriter(probeTuple)
		w.add(300)
		checkProbes(t, "fresh", w.rel())
		w.add(40) // indexes built above must catch up
		checkProbes(t, "fresh+appended", w.rel())
	})
	t.Run("tombstoned", func(t *testing.T) {
		w := newProbeWriter(probeTuple)
		w.add(300)
		buildAll(w.rel())
		w.churn()
		checkProbes(t, "tombstoned", w.rel())
	})
	t.Run("barrier", func(t *testing.T) {
		w := newProbeWriter(probeTuple)
		w.add(300)
		first := w.barrier()
		w.add(60)
		checkProbes(t, "heir", w.rel())
		second := w.barrier()
		w.churn()
		w.add(10)
		checkProbes(t, "heir of the heir + tombstones", w.rel())
		checkProbes(t, "frozen first epoch", first)
		checkProbes(t, "frozen second epoch", second)
		third := w.barrier()
		w.add(600) // past a rehash, an entries growth and a chunk seal
		w.barrier()
		w.add(1)
		checkProbes(t, "third heir", w.rel())
		checkProbes(t, "frozen third epoch", third)
		checkProbes(t, "frozen second epoch, later", second)
		other := New()
		other.Put("R", second)
		other.Add("R", probeTuple(5000))
		checkProbes(t, "second clone of the second epoch", other.Relation("R"))
	})
	t.Run("compacted", func(t *testing.T) {
		w := newProbeWriter(probeTuple)
		w.add(512)
		w.barrier()
		w.add(5)
		w.churn()
		buildAll(w.rel())
		w.rel().Compact()
		checkProbes(t, "compacted", w.rel())
		w.add(30)
		w.churn()
		checkProbes(t, "compacted + appended + tombstones", w.rel())
	})
}

var probeSink int

// BenchmarkProbe is the instance-layer series of the read path: one
// probe per iteration of each index kind, over an index its relation
// built and over one a write barrier's heir took over from a frozen
// epoch and appended to. Every probed bucket holds entries from both
// sides of the barrier. Buckets are small (eight entries before it, one
// after), the shape of a join probe, so the fixed cost of a probe shows.
func BenchmarkProbe(b *testing.B) {
	const n = 4096
	tuple := func(k int) Tuple {
		key := fmt.Sprint(k % (n / 8))
		return tup(value.PathOf("a"+key), value.PathOf("x"+key, "m", fmt.Sprint(k), "y"+key))
	}
	states := []struct {
		name  string
		build func() *Relation
	}{
		{"built", func() *Relation {
			w := newProbeWriter(tuple)
			w.add(n)
			return w.rel()
		}},
		{"heir", func() *Relation {
			w := newProbeWriter(tuple)
			w.add(n)
			w.barrier()
			w.add(n / 8)
			return w.rel()
		}},
	}
	for _, kind := range []string{"exact", "prefix", "suffix", "member"} {
		for _, st := range states {
			b.Run(kind+"/"+st.name, func(b *testing.B) {
				r := st.build()
				buildAll(r)
				keys := make([]Tuple, 64)
				hashes := make([]uint64, len(keys))
				for k := range keys {
					keys[k] = tuple(k * 37 % n)
					hashes[k] = keys[k].Hash()
				}
				ix := r.Index(0)
				v := View{MaxBirth: 2 * n} // a bound that admits every position
				var dst []int              // reused, so the series measures the probe, not append growth
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					key := keys[i%len(keys)]
					switch kind {
					case "exact":
						dst = ix.Lookup(dst[:0], v, key[0])
					case "prefix":
						dst = r.PrefixLookup(dst[:0], v, 1, key[1][:1])
					case "suffix":
						dst = r.SuffixLookup(dst[:0], v, 1, key[1][3:])
					case "member":
						probeSink += r.Position(v, hashes[i%len(keys)], key)
					}
					probeSink += len(dst)
				}
			})
		}
	}
}
