package eval

import (
	"slices"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/value"
)

// sinkFunc consumes one derivation: the rule head instantiated under
// the valuation the body search arrived at. The sequential evaluator
// derives straight into the shared instance; parallel workers derive
// into private buffers merged at the round barrier.
type sinkFunc func(head ast.Pred, env *Env) error

// runOpts extends a plan run for the DRed maintenance phases; the zero
// value is an ordinary run.
type runOpts struct {
	// includeDead makes non-delta positive predicate steps match
	// tombstoned tuples too, so the join sees a superset of the
	// pre-deletion state: live tuples plus every tombstone not yet
	// compacted (this run's deletions, and any stale ones below the
	// engine's amortized-compaction threshold). A superset is exactly
	// the direction DRed's overdeletion needs — extra candidates are
	// restored by rederivation — and the stale tombstones only cost
	// churn, never correctness. The delta step always skips tombstones.
	includeDead bool
	// boundHeads/boundBirth are the overdeletion pruner's well-founded
	// support check: positive non-delta steps over a relation named in
	// boundHeads (the candidate's component's heads — the relations
	// still in flux) only accept supports born before the candidate
	// (birth < boundBirth); every other relation belongs to an earlier
	// component or the EDB and is settled. Births are issued by one
	// monotone counter, so justification chains strictly decrease and
	// circular keep-alives are impossible — including cycles through
	// sibling relations of the same component, which a per-relation
	// position measure could not order.
	boundHeads map[string]bool
	boundBirth uint64
}

// stepView builds the stamp/tombstone view one positive step probes
// under: the delta step never includes tombstones (a deleted fact is
// no longer part of the delta) and never carries the pruner's birth
// bound (the delta is the change set itself, not a support).
func (opts *runOpts) stepView(s *step, isDelta bool) instance.View {
	if isDelta {
		return instance.View{}
	}
	v := instance.View{Dead: opts.includeDead}
	if opts.boundHeads[s.pred.Name] {
		v.MaxBirth = opts.boundBirth
	}
	return v
}

// run is the frame of one plan execution: what a run needs beyond the
// compiled plan. A driver owns one and exec re-points it at every plan
// it executes, so a maintenance phase of thousands of one-tuple delta
// joins allocates its slices, scratch and valuation once. No relation
// is kept between runs: a sink's Ensure may epoch-clone a frozen
// relation, so a pointer resolved by one run says nothing about the
// next. A frame serves one run at a time: a run started from inside
// another one's sink (the overdeletion pruner's goal check) and every
// parallel worker have a driver, and so a frame, of their own.
type run struct {
	dr   *driver // whose instance and options the run reads
	plan *plan
	win  window // a hoisted plan's delta step iterates only this window
	sink sinkFunc
	err  error // the first error; every step returns at once after it
	// env is the run's valuation. Matching undoes its bindings as it
	// unwinds, so between runs it is empty — or holds exactly what the
	// caller bound before exec (derivesGoal).
	env   *Env
	slots []slot // one per step of the longest plan run so far
}

// slot is what the frame holds for one step: where the step reads and
// the buffers it evaluates into, rebuilt in place for every binding
// reaching the step. Reuse is safe because the buffers are private to
// the frame and nothing downstream retains them: index and membership
// probes compare inside the call, and head tuples are copied on insert.
type slot struct {
	rel  *instance.Relation
	idx  *instance.Index // the exact index over the step's BoundCols, if any
	view instance.View
	// next continues the run at the following step. Match and MatchTuple
	// call it per binding; it is made once per slot, not per candidate.
	next func()

	vals []value.Path   // exact-index probe values (one per bound column)
	sub  []value.Path   // unbound-column projection of a candidate tuple
	neg  instance.Tuple // negated-predicate probe tuple
	bufA value.Path     // ground side of equations; affix probes
	bufB value.Path     // right side of negated equations
}

// sized returns s with length n, keeping the elements it already has
// (and so the buffers they own).
func sized[S ~[]E, E any](s S, n int) S { return slices.Grow(s[:0], n)[:n] }

// valuation returns the frame's Env, for callers that bind variables
// before a run.
func (dr *driver) valuation() *Env {
	if dr.frame.env == nil {
		dr.frame.env = NewEnv()
	}
	return dr.frame.env
}

// resolve returns the relation step i of the item's plan reads — a
// hoisted plan's delta step reads the item's log, when it has one —
// and, when the step probes one, its exact index: once per run,
// because map and index-signature lookups are far too slow for once
// per binding.
func (dr *driver) resolve(it workItem, i int) (*instance.Relation, *instance.Index) {
	s := &it.plan.steps[i]
	if s.kind != stepPred && s.kind != stepNegPred {
		return nil, nil
	}
	rel := it.log
	if i > 0 || rel == nil {
		rel = dr.inst.Relation(s.pred.Name)
	}
	if rel == nil || s.kind != stepPred || len(s.BoundCols) == 0 {
		return rel, nil
	}
	return rel, rel.Index(s.BoundCols...)
}

// exec runs one work item, feeding every derivation to sink. On a
// hoisted plan the first step — the delta predicate — iterates only the
// item's window of its relation instead of all tuples; other plans
// ignore it. A relation first created by this very run's derivations
// stays unseen until the next semi-naive round, whose delta window
// covers the new facts.
func (dr *driver) exec(it workItem, sink sinkFunc) error {
	p := it.plan
	r := &dr.frame
	r.dr, r.plan, r.win, r.sink = dr, p, it.win, sink
	dr.valuation() // r.env: fresh, or what the caller bound into it
	for len(r.slots) < len(p.steps) {
		i := len(r.slots)
		r.slots = append(r.slots, slot{next: func() { r.step(i + 1) }})
	}
	for i := range p.steps {
		s, sl := &p.steps[i], &r.slots[i]
		sl.rel, sl.idx = dr.resolve(it, i)
		switch s.kind {
		case stepPred:
			sl.view = dr.opts.stepView(s, p.hoisted && i == 0)
			sl.vals, sl.sub = sized(sl.vals, len(s.BoundCols)), sized(sl.sub, len(s.unboundCols))
		case stepNegPred:
			sl.neg = sized(sl.neg, len(s.pred.Args))
		}
	}
	r.step(0)
	err := r.err
	r.err = nil
	return err
}

// step runs step i of the plan under the current valuation; past the
// last step the valuation satisfies the body and goes to the sink.
func (r *run) step(i int) {
	if r.err != nil {
		return
	}
	if i == len(r.plan.steps) {
		r.err = r.sink(r.plan.rule.Head, r.env)
		return
	}
	switch s, sl := &r.plan.steps[i], &r.slots[i]; s.kind {
	case stepPred:
		r.pred(i, s, sl)
	case stepEq:
		r.eq(s, sl)
	case stepNegPred:
		r.negPred(i, s, sl)
	case stepNegEq:
		r.negEq(i, s, sl)
	}
}

// pred joins a positive predicate: every tuple of the step's relation
// (of the window, on a delta step) that the view admits and the
// arguments match continues the run.
func (r *run) pred(i int, s *step, sl *slot) {
	rel := sl.rel
	if rel == nil {
		return
	}
	lo, hi := 0, rel.Size()
	if r.plan.hoisted && i == 0 {
		lo, hi = r.win.lo, r.win.hi
	}
	cands, probed := r.candidates(s, sl)
	if !probed {
		// The view carries tombstone visibility (the DRed overdelete joins
		// against the pre-deletion state) and the pruner's birth bound;
		// see stepView.
		// The probes apply it themselves.
		for pos := lo; pos < hi && r.err == nil; pos++ {
			if (sl.view.Dead || rel.Live(pos)) && sl.view.Admits(rel.StampAt(pos)) {
				r.env.MatchTuple(s.pred.Args, rel.TupleAt(pos), sl.next)
			}
		}
		return
	}
	// An exact probe fixed the bound columns, so only the others need
	// matching (none: the candidate is the match); an affix probe
	// verifies candidates with a full MatchTuple.
	for _, pos := range cands {
		if pos < lo || pos >= hi {
			continue
		}
		switch {
		case sl.idx == nil:
			r.env.MatchTuple(s.pred.Args, rel.TupleAt(pos), sl.next)
		case len(s.unboundCols) == 0:
			r.step(i + 1)
		default:
			t := rel.TupleAt(pos)
			for j, c := range s.unboundCols {
				sl.sub[j] = t[c]
			}
			r.env.MatchTuple(s.unboundArgs, sl.sub, sl.next)
		}
		if r.err != nil {
			return
		}
	}
}

// candidates resolves a predicate step's candidate positions from the
// best access path the bindings make ground: the exact index over the
// bound columns, else the ground prefix of one argument, else its
// ground trailing terms (the paper's bound-suffix patterns; term
// evaluation concatenates, so the evaluated trailing terms ARE the
// suffix of the evaluated argument). An affix that evaluates to the
// empty path selects nothing: the step falls back to the scan, which is
// what probed == false asks of the caller.
func (r *run) candidates(s *step, sl *slot) (cands []int, probed bool) {
	if sl.idx != nil {
		for j, c := range s.BoundCols {
			sl.vals[j] = r.env.EvalAppend(s.pred.Args[c], sl.vals[j][:0])
		}
		return sl.idx.Lookup(sl.view, sl.vals...), true
	}
	if s.PrefixCol >= 0 {
		sl.bufA = r.env.EvalAppend(s.pred.Args[s.PrefixCol][:s.PrefixLen], sl.bufA[:0])
		if len(sl.bufA) > 0 {
			return sl.rel.PrefixLookup(sl.view, s.PrefixCol, sl.bufA), true
		}
	}
	if s.SuffixCol >= 0 {
		arg := s.pred.Args[s.SuffixCol]
		sl.bufA = r.env.EvalAppend(arg[len(arg)-s.SuffixLen:], sl.bufA[:0])
		if len(sl.bufA) > 0 {
			return sl.rel.SuffixLookup(sl.view, s.SuffixCol, sl.bufA), true
		}
	}
	return nil, false
}

// eq evaluates the ground side of a positive equation and matches the
// other side against it. The match binds pattern variables to subslices
// of the scratch; by the time this step runs again the match has
// unwound, so reuse is safe.
func (r *run) eq(s *step, sl *slot) {
	sl.bufA = r.env.EvalAppend(s.ground, sl.bufA[:0])
	r.env.Match(s.pattern, sl.bufA, sl.next)
}

// negPred tests a negated predicate. All arguments are ground by
// safety: a single probe of the relation's built-in full-tuple hash
// index. Negated relations live in earlier components, so the relation
// resolved by exec cannot go stale mid-run.
func (r *run) negPred(i int, s *step, sl *slot) {
	if sl.rel != nil {
		for k, a := range s.pred.Args {
			sl.neg[k] = r.env.EvalAppend(a, sl.neg[k][:0])
		}
		if sl.rel.Position(instance.View{}, sl.neg.Hash(), sl.neg) >= 0 {
			return
		}
	}
	r.step(i + 1)
}

// negEq compares the two sides of a nonequality, both ground by safety.
func (r *run) negEq(i int, s *step, sl *slot) {
	sl.bufA = r.env.EvalAppend(s.ground, sl.bufA[:0])
	sl.bufB = r.env.EvalAppend(s.pattern, sl.bufB[:0])
	if !sl.bufA.Equal(sl.bufB) {
		r.step(i + 1)
	}
}
