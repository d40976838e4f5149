package eval

// Parallel semi-naive evaluation: within one fixpoint round the work
// partitions cleanly — by rule in round 0, by (rule, delta-restricted
// predicate, delta-window slice) in the semi-naive rounds — because a
// join is a union over bindings and the delta window is a union of its
// slices. The round protocol is freeze → fan-out → barrier → merge:
//
//  1. freeze: no relation of the shared instance is written for the
//     rest of the round; every secondary index built so far is caught
//     up single-threaded so worker probes hit the lock-free fast path;
//  2. fan-out: a bounded pool of workers drains the round's work
//     items, each deriving into a worker-private buffer instance
//     (facts already in the shared instance are dropped by a read-only
//     membership probe);
//  3. barrier: all workers finish (the first error wins);
//  4. merge: the buffers are folded into the shared instance
//     single-threaded, in work-item order, deduplicated by the
//     relations' full-tuple hash indexes. The appended facts form the
//     next round's delta windows, exactly as in sequential evaluation.
//
// Merging in work-item order makes the result instance — including
// its insertion order — a pure function of the program and input,
// independent of how goroutines were scheduled.

import (
	"errors"
	"sync"
	"sync/atomic"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
)

// minParallelChunk is the smallest delta-window slice worth handing to
// a worker: below this, the fan-out overhead (buffer instance, channel
// hop, merge pass) dominates the join work inside the slice.
const minParallelChunk = 32

// appendSlices cuts one change window of a hoisted plan's delta step
// into up to `chunks` contiguous slices of at least minParallelChunk
// tuples and appends one work item per slice.
func appendSlices(items []workItem, p *plan, w window, chunks int) []workItem {
	if most := (w.hi - w.lo) / minParallelChunk; chunks > most {
		chunks = most
	}
	if chunks < 1 {
		chunks = 1
	}
	n := w.hi - w.lo
	for c := 0; c < chunks; c++ {
		items = append(items, workItem{plan: p, win: window{w.lo + n*c/chunks, w.lo + n*(c+1)/chunks}})
	}
	return items
}

// freezeIndexes prepares the shared instance for a read-only fan-out:
// every exact index a work item's plan will probe is created (resolve
// does, exactly as the workers' own runs will), then every index of
// each relation the round reads absorbs its pending tuples. After this,
// the common worker probes are pure map reads; only an index shape
// first probed mid-round (a new ground-prefix length) still builds
// lazily, under the relation's internal lock.
func (dr *driver) freezeIndexes(items []workItem) {
	read := map[*instance.Relation]bool{}
	for _, it := range items {
		for i := range it.plan.steps {
			if rel, _ := dr.resolve(it.plan, i); rel != nil {
				read[rel] = true
			}
		}
	}
	for rel := range read {
		rel.CatchUpIndexes()
	}
}

// runParallel evaluates one round's work items on a pool of `workers`
// goroutines and merges the derivations at the barrier; see the package
// comment at the top of this file for the protocol. Relations are
// frozen during the fan-out (workers only read the shared instance,
// deriving into private buffers) and the buffers are merged
// single-threaded at the round barrier.
func (dr *driver) runParallel(items []workItem, workers int) error {
	if len(items) == 0 {
		return nil
	}
	dr.freezeIndexes(items)
	if workers > len(items) {
		workers = len(items)
	}
	// Each item's private buffer is capped at the facts still admissible
	// under MaxFacts (its count starts where the shared one stands), so a
	// runaway rule trips ErrNonTermination inside the round; the shared
	// stop flag then aborts the other items (pending ones never start,
	// in-flight ones bail at their next derivation) instead of letting
	// each buffer up to the full budget.
	base := *dr.derived
	var stop atomic.Bool
	bufs := make([]*instance.Instance, len(items))
	errs := make([]error, len(items))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A worker is a driver of its own over the shared instance:
			// private frame, private head scratch, private count.
			count := 0
			wk := &driver{inst: dr.inst, limits: dr.limits, opts: dr.opts, derived: &count}
			for idx := range next {
				if stop.Load() {
					errs[idx] = errRoundAborted
					continue
				}
				it := items[idx]
				count, bufs[idx] = base, instance.New()
				errs[idx] = wk.exec(it.plan, it.win, wk.bufferSink(bufs[idx], &stop))
				if errs[idx] != nil {
					stop.Store(true)
				}
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	var aborted error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, errRoundAborted) {
			aborted = err
			continue
		}
		return err
	}
	if aborted != nil {
		return aborted
	}
	// Merge at the barrier, single-threaded. Work-item order (then the
	// buffer's sorted relation names, then buffer insertion order) is
	// deterministic, so the merged instance does not depend on which
	// worker ran what when.
	for _, buf := range bufs {
		for _, name := range buf.Names() {
			rel := buf.Relation(name)
			dst := dr.inst.Ensure(name, rel.Arity)
			for pos := 0; pos < rel.Size(); pos++ {
				if !rel.Live(pos) {
					continue
				}
				// Reuse the hash the buffer computed when the worker
				// derived the tuple; the merge never rehashes. (Worker
				// buffers are never deleted from today, but the
				// position-based loop keeps tuple↔hash pairing correct
				// even if that ever changes.)
				h, t := rel.HashAt(pos), rel.TupleAt(pos)
				if !dst.AddHashed(h, t) {
					dr.promote(dst, h, t)
				} else if err := dr.count(); err != nil {
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

// bufferSink returns a worker's sink for one work item: it derives into
// the item's private buffer. Facts the shared instance already holds
// are dropped via a read-only membership probe; the rest are
// deduplicated locally, so a buffer never exceeds the number of
// genuinely new facts it contributes. The shared-instance probe is
// view-bounded by visTag: a fact present only with a later stratum's
// stamp is buffered anyway, so the merge can promote it into this
// stratum's view.
func (wk *driver) bufferSink(buf *instance.Instance, stop *atomic.Bool) sinkFunc {
	return func(head ast.Pred, env *Env) error {
		if stop.Load() {
			return errRoundAborted
		}
		// One hash serves both membership probes and the insert; the
		// scratch tuple is copied only when the fact is genuinely new.
		t, h, err := wk.head(head, env)
		if err != nil {
			return err
		}
		if shared := wk.inst.Relation(head.Name); shared != nil &&
			shared.Position(instance.View{MaxTag: wk.opts.visTag}, h, t) >= 0 {
			return nil
		}
		if !buf.Ensure(head.Name, len(head.Args)).AddFromScratch(h, t) {
			return nil
		}
		return wk.count()
	}
}
