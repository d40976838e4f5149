package eval

// Parallel semi-naive evaluation: a semi-naive round partitions cleanly
// by (rule, delta-restricted predicate, delta-window slice), because a
// join is a union over bindings and a window is a union of its slices.
// Only the from-scratch pass fans out (see Prepared.fixpoint), so every
// run here reads the whole instance. A round runs
// fan-out → barrier → merge:
//
//  1. fan-out: workers take the round's items in order, each deriving
//     into a private buffer the facts the shared instance lacks. Nobody
//     writes the shared instance until the merge, so workers only read
//     it; an index a probe finds behind catches up under its relation's
//     lock (the Relation concurrency contract);
//  2. barrier: all workers finish (the first error wins);
//  3. merge: the buffers are folded into the shared instance
//     single-threaded, in work-item order, deduplicated by the
//     relations' full-tuple hash indexes. The appended facts form the
//     next round's delta windows, exactly as in sequential evaluation.
//
// Merging in work-item order makes the result instance — including
// its insertion order — a pure function of the program, the input and
// the worker count, independent of how goroutines were scheduled.

import (
	"errors"
	"sync"
	"sync/atomic"

	"seqlog/internal/instance"
)

// minParallelChunk is the smallest delta-window slice worth handing to
// a worker: below this, the fan-out overhead (buffer, merge pass)
// dominates the join work inside the slice.
const minParallelChunk = 32

// appendSlices cuts the change window of a hoisted plan's work item
// into up to `chunks` contiguous slices of at least minParallelChunk
// tuples and appends one work item per slice.
func appendSlices(items []workItem, it workItem, chunks int) []workItem {
	w := it.win
	n := w.hi - w.lo
	chunks = max(1, min(chunks, n/minParallelChunk))
	for c := 0; c < chunks; c++ {
		it.win = window{w.lo + n*c/chunks, w.lo + n*(c+1)/chunks}
		items = append(items, it)
	}
	return items
}

// fansOut reports whether a round is worth splitting across the
// driver's workers: its change windows hold at least one
// minParallelChunk of tuples per worker. Round 0, whose base plans run
// over the full relations with no window, always runs inline.
func (dr *driver) fansOut(items []workItem) bool {
	tuples := 0
	for _, it := range items {
		tuples += it.win.hi - it.win.lo
	}
	return dr.workers > 1 && tuples >= dr.workers*minParallelChunk
}

// runParallel evaluates one round's work items on up to dr.workers
// goroutines, the caller's among them, and merges the derivations at
// the barrier; see the comment at the top of this file for the
// protocol.
func (dr *driver) runParallel(items []workItem) error {
	workers := min(dr.workers, len(items))
	// Each item's buffer is capped at the facts still admissible under
	// MaxFacts (its count starts where the shared one stands), so a
	// runaway rule trips ErrNonTermination inside the round; the shared
	// stop flag then aborts the other items (pending ones never start,
	// in-flight ones bail at their next derivation) instead of letting
	// each buffer up to the full budget.
	base := *dr.derived
	var stop atomic.Bool
	var next atomic.Int64
	bufs := make([]roundBuffer, len(items))
	errs := make([]error, len(items))
	work := func() {
		// A worker is a driver of its own over the shared instance:
		// private frame, private head scratch, private count.
		count := 0
		wk := &driver{inst: dr.inst, limits: dr.limits, opts: dr.opts, derived: &count}
		for idx := int(next.Add(1)) - 1; idx < len(items); idx = int(next.Add(1)) - 1 {
			if stop.Load() {
				errs[idx] = errRoundAborted
				continue
			}
			count = base
			errs[idx] = wk.exec(items[idx], wk.bufferSink(&bufs[idx], &stop))
			if errs[idx] != nil {
				stop.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	// An aborted item implies a sibling that failed for real.
	for _, err := range errs {
		if err != nil && !errors.Is(err, errRoundAborted) {
			return err
		}
	}
	// Merge at the barrier, single-threaded, in work-item order (then
	// derivation order within an item), so the merged instance does not
	// depend on which worker ran what when. The merge reuses the hash the
	// worker computed and never rehashes.
	for _, buf := range bufs {
		for _, f := range buf.facts {
			if dr.inst.Ensure(f.name, len(f.t)).AddHashed(f.h, f.t) {
				if err := dr.count(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// errRoundAborted marks work a worker skipped or cut short because a
// sibling item already failed; the sibling's error is the one reported.
var errRoundAborted = errors.New("eval: round aborted after a sibling work item failed")

// roundBuffer is one work item's derivations: the facts the shared
// instance lacked, each once, in derivation order. An instance would
// do, but its chunks, stamps and membership index cost a fanned-out
// round more in allocation and GC than the join work a second worker
// takes on.
type roundBuffer struct {
	facts []bufFact
	index instance.Table // each fact's index in facts, filed under its hash
	same  []int          // scratch: the facts sharing a derivation's hash
}

type bufFact struct {
	name string
	h    uint64
	t    instance.Tuple
}

// bufferSink returns a worker's sink for one work item: it derives into
// the item's buffer. Facts the shared instance already holds are
// dropped via a read-only membership probe; the rest are deduplicated
// in the buffer, so it never exceeds the genuinely new facts the item
// contributes.
func (wk *driver) bufferSink(buf *roundBuffer, stop *atomic.Bool) sinkFunc {
	return func(p *plan, env *Env) error {
		if stop.Load() {
			return errRoundAborted
		}
		// One hash serves both membership probes and the insert; the
		// scratch tuple is copied only when the fact is genuinely new.
		t, h, err := wk.head(p, env)
		if err != nil {
			return err
		}
		name := p.rule.Head.Name
		if shared := wk.inst.Relation(name); shared != nil && shared.Position(instance.View{}, h, t) >= 0 {
			return nil
		}
		buf.same = buf.index.Lookup(buf.same[:0], h)
		for _, i := range buf.same {
			if f := &buf.facts[i]; f.name == name && f.t.Equal(t) {
				return nil
			}
		}
		buf.index.Add(h, len(buf.facts))
		buf.facts = append(buf.facts, bufFact{name, h, instance.CopyTuple(t)})
		return wk.count()
	}
}
