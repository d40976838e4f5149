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
	"fmt"
	"sync"
	"sync/atomic"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
)

// workItem is one unit of a round's fan-out: a rule to run, with an
// optional delta restriction (deltaStep < 0 means none) narrowed to
// the window slice [deltaLo, deltaHi).
type workItem struct {
	plan      *plan
	deltaStep int
	deltaLo   int
	deltaHi   int
}

// minParallelChunk is the smallest delta-window slice worth handing to
// a worker: below this, the fan-out overhead (buffer instance, channel
// hop, merge pass) dominates the join work inside the slice.
const minParallelChunk = 32

// deltaItems builds the work items of one semi-naive round: for each
// rule and each delta-restricted local predicate, the delta window
// [prev, cur) sliced into up to `workers` contiguous chunks. With
// variants each item runs the hoisted per-delta plan (see deltaPlan);
// pstats, when non-nil, counts one plan execution per item.
func deltaItems(plans []*plan, local map[string]bool, prev, cur map[string]int, workers int, variants bool, pstats *PlanStats) []workItem {
	var items []workItem
	for _, p := range plans {
		for k := range p.predSteps {
			run, deltaStep := deltaPlan(p, k, variants)
			name := run.steps[deltaStep].pred.Name
			if !local[name] {
				continue
			}
			lo, hi := prev[name], cur[name]
			if hi <= lo {
				continue
			}
			sl := sliceWindow(run, deltaStep, lo, hi, workers)
			for range sl {
				run.note(pstats, deltaStep)
			}
			items = append(items, sl...)
		}
	}
	return items
}

// sliceWindow slices one delta window [lo, hi) of a plan's predicate
// step into up to `workers` contiguous chunks of at least
// minParallelChunk tuples, returning one work item per chunk.
func sliceWindow(p *plan, stepIdx, lo, hi, workers int) []workItem {
	chunks := workers
	if most := (hi - lo) / minParallelChunk; chunks > most {
		chunks = most
	}
	if chunks < 1 {
		chunks = 1
	}
	items := make([]workItem, 0, chunks)
	for c := 0; c < chunks; c++ {
		clo := lo + (hi-lo)*c/chunks
		chi := lo + (hi-lo)*(c+1)/chunks
		items = append(items, workItem{plan: p, deltaStep: stepIdx, deltaLo: clo, deltaHi: chi})
	}
	return items
}

// freezeIndexes prepares the shared instance for a read-only fan-out:
// every exact index a work item's plan will probe is created, then
// every index of each relation the round reads absorbs its pending
// tuples. After this, the common worker probes are pure map reads;
// only an index shape first probed mid-round (a new ground-prefix
// length) still builds lazily, under the relation's internal lock.
func freezeIndexes(items []workItem, inst *instance.Instance) {
	read := map[*instance.Relation]bool{}
	for _, it := range items {
		for _, s := range it.plan.steps {
			if s.kind != stepPred && s.kind != stepNegPred {
				continue
			}
			rel := inst.Relation(s.pred.Name)
			if rel == nil {
				continue
			}
			read[rel] = true
			if s.kind == stepPred && IndexedJoins && rel.Arity == len(s.pred.Args) && len(s.boundCols) > 0 {
				rel.Index(s.boundCols...)
			}
		}
	}
	for rel := range read {
		rel.CatchUpIndexes()
	}
}

// runRoundParallel evaluates one round's work items on a pool of
// `workers` goroutines and merges the derivations at the barrier; see
// the package comment at the top of this file for the protocol.
func runRoundParallel(items []workItem, inst *instance.Instance, workers int, limits Limits, derived *int, visTag uint64) error {
	if len(items) == 0 {
		return nil
	}
	freezeIndexes(items, inst)
	if workers > len(items) {
		workers = len(items)
	}
	// budget caps each item's private buffer at the facts still
	// admissible under MaxFacts, so a runaway rule trips
	// ErrNonTermination inside the round; the shared stop flag then
	// aborts the other items (pending ones never start, in-flight ones
	// bail at their next derivation) instead of letting each buffer up
	// to the full budget.
	budget := limits.MaxFacts - *derived
	var stop atomic.Bool
	bufs := make([]*instance.Instance, len(items))
	errs := make([]error, len(items))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				if stop.Load() {
					errs[idx] = errRoundAborted
					continue
				}
				it := items[idx]
				buf := instance.New()
				bufs[idx] = buf
				errs[idx] = runPlanOpts(it.plan, inst, it.deltaStep, it.deltaLo, it.deltaHi,
					bufferSink(inst, buf, limits, budget, &stop, visTag), runOpts{negStep: -1, visTag: visTag})
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
			dst := inst.Ensure(name, rel.Arity)
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
				if dst.AddHashed(h, t) {
					*derived++
					if *derived > limits.MaxFacts {
						return fmt.Errorf("%w: more than %d derived facts", ErrNonTermination, limits.MaxFacts)
					}
				} else {
					promote(dst, h, t, visTag)
				}
			}
		}
	}
	return nil
}

// errRoundAborted marks work a worker skipped or cut short because a
// sibling item already failed; the sibling's error is the one reported.
var errRoundAborted = errors.New("eval: round aborted after a sibling work item failed")

// bufferSink returns a sink that derives into a worker-private buffer.
// Facts the shared instance already holds are dropped via a read-only
// membership probe; the rest are deduplicated locally, so a buffer
// never exceeds the number of genuinely new facts it contributes. The
// shared-instance probe is view-bounded by visTag: a fact present only
// with a later stratum's stamp is buffered anyway, so the merge can
// promote it into this stratum's view.
func bufferSink(inst, buf *instance.Instance, limits Limits, budget int, stop *atomic.Bool, visTag uint64) sinkFunc {
	added := 0
	hb := &headScratch{}
	return func(head ast.Pred, env *Env) error {
		if stop.Load() {
			return errRoundAborted
		}
		t, err := hb.build(head, env, limits)
		if err != nil {
			return err
		}
		// One hash serves both membership probes and the insert; the
		// scratch tuple is copied only when the fact is genuinely new.
		h := t.Hash()
		if shared := inst.Relation(head.Name); shared != nil &&
			shared.Position(instance.View{MaxTag: visTag}, h, t) >= 0 {
			return nil
		}
		if !buf.Ensure(head.Name, len(head.Args)).AddFromScratch(h, t) {
			return nil
		}
		added++
		if added > budget {
			return fmt.Errorf("%w: more than %d derived facts", ErrNonTermination, limits.MaxFacts)
		}
		return nil
	}
}
