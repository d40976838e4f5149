package instance

import (
	"fmt"
	"slices"
	"testing"

	"seqlog/internal/value"
)

// fuzzHashes is the pool the postings fuzzer files tuples under, in
// place of their structural hashes: groups of four hashes that differ
// but share one 32-bit tag, and a tail that repeats earlier hashes
// outright, so both kinds of collision are common.
var fuzzHashes = func() []uint64 {
	var pool []uint64
	for g := uint32(1); g <= 12; g++ {
		tag := g * 0x2545F491
		for j := uint32(1); j <= 4; j++ {
			hi := j*0x9E3779B9 + g
			pool = append(pool, uint64(hi)<<32|uint64(hi^tag))
		}
	}
	return append(pool, pool[3], pool[17], pool[30], pool[45])
}()

// fuzzTuples are the tuples the postings fuzzer appends, by number.
var fuzzTuples = func() []Tuple {
	ts := make([]Tuple, maxFuzzTuples+2)
	for k := range ts {
		ts[k] = tup(
			value.PathOf(fmt.Sprint("a", k%5), fmt.Sprint("t", k)),
			value.PathOf(fmt.Sprint("x", k%7), "m", fmt.Sprint("y", k%4)),
		)
	}
	return ts
}()

const maxFuzzTuples = 1500

func fuzzTuple(k int) Tuple { return fuzzTuples[k] }

func fuzzHash(k int) uint64 { return fuzzHashes[k%len(fuzzHashes)] }

// postingsModel is the fuzzer's specification of a relation's storage:
// the plain hash → ascending positions map the tables replaced, beside
// the log it indexes.
type postingsModel struct {
	m    map[uint64][]int
	ks   []int // the tuple number at each position
	dead []bool
}

func (md *postingsModel) live(k int) int {
	for _, pos := range md.m[fuzzHash(k)] {
		if md.ks[pos] == k && !md.dead[pos] {
			return pos
		}
	}
	return -1
}

func (md *postingsModel) add(k int) {
	if md.live(k) < 0 {
		md.m[fuzzHash(k)] = append(md.m[fuzzHash(k)], len(md.ks))
		md.ks, md.dead = append(md.ks, k), append(md.dead, false)
	}
}

// compact renumbers the live positions densely, as Compact and Clone do.
func (md *postingsModel) compact() *postingsModel {
	out := &postingsModel{m: map[uint64][]int{}}
	for pos, k := range md.ks {
		if !md.dead[pos] {
			out.add(k)
		}
	}
	return out
}

func (md *postingsModel) clone() *postingsModel {
	out := &postingsModel{m: map[uint64][]int{}, ks: slices.Clone(md.ks), dead: slices.Clone(md.dead)}
	for h, ps := range md.m {
		out.m[h] = slices.Clone(ps)
	}
	return out
}

// checkPostings holds every probe of r to the model: the membership
// index's raw chains (every position filed under a hash sharing the
// probed tag), Position, and the three secondary kinds, under the live,
// tombstone and birth-bounded views, for tuple numbers below keys (the
// ones appended to any epoch, and one never appended). Probes append to
// a non-empty dst, which must come back extended, its prefix untouched.
func checkPostings(t *testing.T, state string, r *Relation, md *postingsModel, keys int) {
	t.Helper()
	if r.Size() != len(md.ks) {
		t.Fatalf("%s: Size = %d, model %d", state, r.Size(), len(md.ks))
	}
	for pos, k := range md.ks {
		if !r.TupleAt(pos).Equal(fuzzTuple(k)) || r.Live(pos) == md.dead[pos] {
			t.Fatalf("%s: position %d holds %v (live %v), model t%d (dead %v)", state, pos, r.TupleAt(pos), r.Live(pos), k, md.dead[pos])
		}
	}
	views := []View{{}, {Dead: true}}
	if r.Size() > 0 {
		views = append(views, View{MaxBirth: r.StampAt(r.Size() / 2)})
	}
	for _, v := range views {
		visible := func(pos int) bool { return (v.Dead || !md.dead[pos]) && v.Admits(r.StampAt(pos)) }
		expect := func(kind string, got []int, match func(pos int) bool) {
			t.Helper()
			var want []int
			for pos := range md.ks {
				if visible(pos) && match(pos) {
					want = append(want, pos)
				}
			}
			if len(got) == 0 || got[0] != -1 || !slices.Equal(got[1:], want) {
				t.Fatalf("%s: %s under %+v:\n got %v\nwant [-1 %v]", state, kind, v, got, want)
			}
		}
		for _, h := range fuzzHashes {
			filed := make([]bool, len(md.ks))
			for h2, ps := range md.m {
				for _, pos := range ps {
					filed[pos] = filed[pos] || tagOf(h2) == tagOf(h)
				}
			}
			expect(fmt.Sprintf("chain %#x", h), r.member.probe([]int{-1}, v, h, false, func(Tuple) bool { return true }),
				func(pos int) bool { return filed[pos] })
		}
		for k := 0; k < keys; k += 1 + keys/50 {
			key := fuzzTuple(k)
			want := -1
			for pos, k2 := range md.ks {
				if k2 == k && visible(pos) {
					want = pos
					break
				}
			}
			if got := r.Position(v, fuzzHash(k), key); got != want {
				t.Fatalf("%s: Position t%d under %+v = %d, want %d", state, k, v, got, want)
			}
			at := func(pos int) Tuple { return fuzzTuple(md.ks[pos]) }
			expect(fmt.Sprint("exact[0] t", k), r.Index(0).Lookup([]int{-1}, v, key[0]),
				func(pos int) bool { return at(pos)[0].Equal(key[0]) })
			expect(fmt.Sprint("prefix col=1 t", k), r.PrefixLookup([]int{-1}, v, 1, key[1][:1]),
				func(pos int) bool { return hasPrefix(at(pos)[1], key[1][:1]) })
			expect(fmt.Sprint("suffix col=1 t", k), r.SuffixLookup([]int{-1}, v, 1, key[1][2:]),
				func(pos int) bool { return hasSuffix(at(pos)[1], key[1][2:]) })
		}
	}
}

// FuzzPostings drives one relation through appends, write barriers
// (freeze, then Ensure), deletes, re-adds, Compact, Clone and a second
// writer cloning an already cloned frozen epoch, and holds
// its index tables and stored tuples to postingsModel after every probe
// step and at the end, together with the frozen epoch the last barrier
// left behind. Tuples are filed under fuzzHashes, not their structural
// hashes, so chains mix keys that share a tag or a whole hash. Every
// odd-numbered tuple goes in through AddFromScratch from one scratch
// tuple that the next such add overwrites, as the evaluator's head
// buffer is. An input is a sequence of (op, arg) byte pairs.
func FuzzPostings(f *testing.F) {
	const (
		opAppend  = iota // arg*2+1 fresh tuples
		opBarrier        // build every index shape, freeze, Ensure
		opDelete         // every (arg%7+2)-th tuple
		opReAdd          // the tuples one past those
		opCompact
		opClone
		opFork // continue as a second writer over the last frozen epoch
		opCheck
		numOps
	)
	// The storage states of TestProbesMatchLinearScan: a fresh table,
	// tombstones, tables an heir appends to, frozen epochs, compaction.
	f.Add([]byte{opAppend, 150, opCheck, 0, opAppend, 20, opCheck, 0})
	f.Add([]byte{opAppend, 150, opBarrier, 0, opDelete, 1, opReAdd, 7, opCheck, 0})
	f.Add([]byte{opAppend, 255, opBarrier, 0, opAppend, 32, opCheck, 0, opBarrier, 0, opDelete, 1,
		opReAdd, 7, opAppend, 5, opCheck, 0, opBarrier, 0, opAppend, 133, opBarrier, 0, opAppend, 0})
	f.Add([]byte{opAppend, 255, opBarrier, 0, opAppend, 2, opDelete, 1, opReAdd, 7, opCompact, 0,
		opCheck, 0, opAppend, 15, opDelete, 1, opReAdd, 7, opClone, 0})
	// Two writers clone the same frozen epoch: the heir, then a copy.
	f.Add([]byte{opAppend, 255, opBarrier, 0, opAppend, 150, opBarrier, 0, opAppend, 1, opFork, 0, opAppend, 1, opCheck, 0})
	f.Add([]byte{opAppend, 255, opDelete, 1, opCompact, 0, opAppend, 150, opBarrier, 0, opAppend, 1, opFork, 0, opAppend, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 64 {
			return
		}
		inst := New()
		inst.SetStamper(&Stamper{})
		r, md := inst.Ensure("R", 2), &postingsModel{m: map[uint64][]int{}}
		var frozen *Relation
		var frozenMd *postingsModel
		next := 0
		scratch := make(Tuple, 2)
		add := func(k int) {
			if k%2 == 0 {
				r.AddHashed(fuzzHash(k), fuzzTuple(k))
				return
			}
			for i, p := range fuzzTuple(k) {
				scratch[i] = append(scratch[i][:0], p...)
			}
			r.AddFromScratch(fuzzHash(k), scratch)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := int(ops[i])%numOps, int(ops[i+1])
			switch op {
			case opAppend:
				for n := arg*2 + 1; n > 0 && next < maxFuzzTuples; n-- {
					add(next)
					md.add(next)
					next++
				}
			case opBarrier:
				if r.Size() > 0 {
					key := r.TupleAt(0)
					r.Index(0).Lookup(nil, View{}, key[0])
					r.PrefixLookup(nil, View{}, 1, key[1][:1])
					r.SuffixLookup(nil, View{}, 1, key[1][2:])
				}
				inst.Snapshot()
				frozen, frozenMd = r, md.clone()
				r = inst.Ensure("R", 2)
			case opDelete, opReAdd:
				for k := op - opDelete; k < next; k += arg%7 + 2 {
					if op == opReAdd {
						add(k)
						md.add(k)
					} else if pos := md.live(k); pos >= 0 {
						r.DeleteHashed(fuzzHash(k), fuzzTuple(k))
						md.dead[pos] = true
					}
				}
			case opCompact:
				r.Compact()
				md = md.compact()
			case opClone:
				r = r.Clone()
				inst.Put("R", r)
				md = md.compact()
			case opFork:
				if frozen != nil {
					inst = New()
					inst.SetStamper(&Stamper{})
					inst.Put("R", frozen)
					r, md = inst.Ensure("R", 2), frozenMd.clone()
				}
			case opCheck:
				checkPostings(t, fmt.Sprint("op ", i/2), r, md, next+1)
			}
		}
		checkPostings(t, "end", r, md, next+1)
		if frozen != nil {
			checkPostings(t, "frozen epoch", frozen, frozenMd, next+1)
		}
	})
}

// TestTableChainsInInsertionOrder pins the Table contract the fuzzer
// leans on: values come back per tag in insertion order across growth,
// and a copy of the table taken earlier keeps returning exactly what
// was filed before it while the original adds through the same arrays,
// across rehashes and entry growth.
func TestTableChainsInInsertionOrder(t *testing.T) {
	var tab Table
	var views []Table // views[k] is the table before value 100k
	for v := 0; v < 1300; v++ {
		if v%100 == 0 {
			views = append(views, tab)
		}
		tab.Add(fuzzHash(v), v)
	}
	for _, h := range fuzzHashes {
		got := tab.Lookup([]int{-1}, h)
		if got[0] != -1 || !slices.IsSorted(got[1:]) || len(got) == 1 {
			t.Fatalf("Lookup(%#x) = %v: want -1 then ascending values", h, got)
		}
		for k, view := range views {
			want := slices.DeleteFunc(slices.Clone(got), func(v int) bool { return v >= 100*k })
			if seen := view.Lookup([]int{-1}, h); !slices.Equal(seen, want) {
				t.Fatalf("view before %d: Lookup(%#x) = %v, want %v", 100*k, h, seen, want)
			}
		}
	}
	if n := len(tab.entries); n != 1300 || tab.keys != 12 {
		t.Fatalf("table holds %d entries under %d keys, want 1300 under 12", n, tab.keys)
	}
}
