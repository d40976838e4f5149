package eval

import (
	"slices"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/value"
)

// sinkFunc consumes one derivation: the head of the plan's rule
// instantiated under the valuation the body search arrived at (see
// driver.head). A deriving phase adds it to the instance (driver.derive);
// DRed's overdeletion deletes it instead, and a goal check stops at the
// first one.
type sinkFunc func(p *plan, env *Env) error

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
	// churn, never correctness. A window's delta step always skips
	// tombstones.
	includeDead bool
	// boundHeads/boundBirth are the overdeletion pruner's well-founded
	// support check (see dred.go): positive non-delta steps over a
	// relation named in boundHeads, the candidate's component's heads,
	// only accept supports born before boundBirth (0: any birth); every
	// other relation belongs to an earlier component or the EDB.
	boundHeads map[string]bool
	boundBirth uint64
}

// stepView builds the stamp/tombstone view one positive step probes
// under: a window's delta step never includes tombstones (a deleted
// fact is no longer part of the delta) and never carries the pruner's
// birth bound (the delta is the change set itself, not a support).
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
// another one's sink (the overdeletion pruner's goal check) has a
// driver, and so a frame, of its own.
type run struct {
	dr   *driver // whose instance and options the run reads
	plan *plan
	sel  []int  // see workItem
	win  window // a hoisted plan's delta step iterates only this window (of sel)
	sink sinkFunc
	err  error // the first error; every step returns at once after it
	// env is the run's valuation, one slot per variable of the plan's
	// rule. Matching undoes its bindings as it unwinds, so between runs
	// every slot is unbound — or holds exactly what the caller bound
	// before exec (derivesGoal). A slot left bound would read as another
	// variable in the next plan's numbering.
	env     *Env
	scratch []stepScratch // one per step of the longest plan run so far
}

// stepScratch is what the frame holds for one step: where the step
// reads and the buffers it evaluates into, rebuilt in place for every
// binding reaching the step. Reuse is safe because the buffers are
// private to the frame and nothing downstream retains them: index and
// membership probes compare inside the call, and head tuples are copied
// on insert.
type stepScratch struct {
	rel  *instance.Relation
	idx  *instance.Index // the exact index over the step's BoundCols, if any
	view instance.View
	// next continues the run at the following step. Match and MatchTuple
	// call it per binding; it is made once per slot, not per candidate.
	next func()

	vals  []value.Path   // exact-index probe values (one per bound column)
	cands []int          // the positions a probe returned
	sub   []value.Path   // unbound-column projection of a candidate tuple
	neg   instance.Tuple // negated-predicate probe tuple
	bufA  value.Path     // ground side of equations; affix probes
	bufB  value.Path     // right side of negated equations
}

// sized returns s with length n, keeping the elements it already has
// (and so the buffers they own).
func sized[S ~[]E, E any](s S, n int) S { return slices.Grow(s[:0], n)[:n] }

// valuation returns the frame's Env pointed at the numbering vars (see
// Env.use), for exec and for callers that bind variables before a run.
func (dr *driver) valuation(vars []ast.Var) *Env {
	if dr.frame.env == nil {
		dr.frame.env = NewEnv()
	}
	dr.frame.env.use(vars)
	return dr.frame.env
}

// resolve returns the relation step i of the plan reads and, when the
// step probes one, its exact index: once per run, because map and
// index-signature lookups are far too slow for once per binding.
func (dr *driver) resolve(p *plan, i int) (*instance.Relation, *instance.Index) {
	s := &p.steps[i]
	if s.kind != stepPred && s.kind != stepNegPred {
		return nil, nil
	}
	rel := dr.inst.Relation(s.pred.Name)
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
	r.dr, r.plan, r.sel, r.win, r.sink = dr, p, it.sel, it.win, sink
	dr.valuation(p.vars) // keeps what the caller bound into it
	for len(r.scratch) < len(p.steps) {
		i := len(r.scratch)
		r.scratch = append(r.scratch, stepScratch{next: func() { r.step(i + 1) }})
	}
	for i := range p.steps {
		s, sl := &p.steps[i], &r.scratch[i]
		sl.rel, sl.idx = dr.resolve(p, i)
		switch s.kind {
		case stepPred:
			sl.view = dr.opts.stepView(s, p.hoisted && i == 0)
			sl.vals, sl.sub = sized(sl.vals, len(s.BoundCols)), sized(sl.sub, len(s.unboundCols))
		case stepNegPred:
			sl.neg = sized(sl.neg, len(s.args))
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
		r.err = r.sink(r.plan, r.env)
		return
	}
	switch s, sl := &r.plan.steps[i], &r.scratch[i]; s.kind {
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
// arguments match continues the run. A delta step over deletions
// matches each selected position, tombstoned, directly.
func (r *run) pred(i int, s *step, sl *stepScratch) {
	rel := sl.rel
	if rel == nil {
		return
	}
	lo, hi := 0, rel.Size()
	if r.plan.hoisted && i == 0 {
		lo, hi = r.win.lo, r.win.hi
		if r.sel != nil {
			for k := lo; k < hi && r.err == nil; k++ {
				r.env.matchTuple(s.args, rel.TupleAt(r.sel[k]), sl.next)
			}
			return
		}
	}
	if !r.candidates(s, sl) {
		// The view carries tombstone visibility (the DRed overdelete joins
		// against the pre-deletion state) and the pruner's birth bound;
		// see stepView.
		// The probes apply it themselves.
		for pos := lo; pos < hi && r.err == nil; pos++ {
			if (sl.view.Dead || rel.Live(pos)) && sl.view.Admits(rel.StampAt(pos)) {
				r.env.matchTuple(s.args, rel.TupleAt(pos), sl.next)
			}
		}
		return
	}
	// An exact probe fixed the bound columns, so only the others need
	// matching (none: the candidate is the match); an affix probe
	// verifies candidates with a full MatchTuple.
	for _, pos := range sl.cands {
		if pos < lo || pos >= hi {
			continue
		}
		switch {
		case sl.idx == nil:
			r.env.matchTuple(s.args, rel.TupleAt(pos), sl.next)
		case len(s.unboundCols) == 0:
			r.step(i + 1)
		default:
			t := rel.TupleAt(pos)
			for j, c := range s.unboundCols {
				sl.sub[j] = t[c]
			}
			r.env.matchTuple(s.unboundArgs, sl.sub, sl.next)
		}
		if r.err != nil {
			return
		}
	}
}

// candidates probes a predicate step's candidate positions into
// sl.cands through the best access path the bindings make ground: the exact index over the
// bound columns, else the ground prefix of one argument, else its
// ground trailing terms (the paper's bound-suffix patterns; term
// evaluation concatenates, so the evaluated trailing terms ARE the
// suffix of the evaluated argument). An affix that evaluates to the
// empty path selects nothing: the step falls back to the scan, which is
// what a false result asks of the caller.
func (r *run) candidates(s *step, sl *stepScratch) bool {
	if sl.idx != nil {
		for j, c := range s.BoundCols {
			sl.vals[j] = r.env.evalInto(s.keys[c], sl.vals[j][:0], 0)
		}
		sl.cands = sl.idx.Lookup(sl.cands[:0], sl.view, sl.vals...)
		return true
	}
	if s.PrefixCol >= 0 {
		sl.bufA = r.env.evalInto(s.keys[s.PrefixCol][:s.PrefixLen], sl.bufA[:0], 0)
		if len(sl.bufA) > 0 {
			sl.cands = sl.rel.PrefixLookup(sl.cands[:0], sl.view, s.PrefixCol, sl.bufA)
			return true
		}
	}
	if s.SuffixCol >= 0 {
		arg := s.keys[s.SuffixCol]
		sl.bufA = r.env.evalInto(arg[len(arg)-s.SuffixLen:], sl.bufA[:0], 0)
		if len(sl.bufA) > 0 {
			sl.cands = sl.rel.SuffixLookup(sl.cands[:0], sl.view, s.SuffixCol, sl.bufA)
			return true
		}
	}
	return false
}

// eq evaluates the ground side of a positive equation and matches the
// other side against it. The match binds pattern variables to subslices
// of the scratch; by the time this step runs again the match has
// unwound, so reuse is safe.
func (r *run) eq(s *step, sl *stepScratch) {
	sl.bufA = r.env.evalInto(s.lhs, sl.bufA[:0], 0)
	r.env.matchSeq(s.rhs, sl.bufA, sl.next)
}

// negPred tests a negated predicate. All arguments are ground by
// safety: a single probe of the relation's built-in full-tuple hash
// index. Negated relations live in earlier components, so the relation
// resolved by exec cannot go stale mid-run.
func (r *run) negPred(i int, s *step, sl *stepScratch) {
	if sl.rel != nil {
		for k, a := range s.args {
			sl.neg[k] = r.env.evalInto(a, sl.neg[k][:0], 0)
		}
		if sl.rel.Position(instance.View{}, sl.neg.Hash(), sl.neg) >= 0 {
			return
		}
	}
	r.step(i + 1)
}

// negEq compares the two sides of a nonequality, both ground by safety.
func (r *run) negEq(i int, s *step, sl *stepScratch) {
	sl.bufA = r.env.evalInto(s.lhs, sl.bufA[:0], 0)
	sl.bufB = r.env.evalInto(s.rhs, sl.bufB[:0], 0)
	if !sl.bufA.Equal(sl.bufB) {
		r.step(i + 1)
	}
}
