package eval

import (
	"errors"
	"fmt"
	"runtime"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
	"seqlog/internal/value"
)

// ErrNonTermination reports that evaluation exceeded its limits. The
// paper only considers programs that terminate on every instance
// (§2.3); programs like Example 2.3 trip this error.
var ErrNonTermination = errors.New("evaluation exceeded limits (program may not terminate)")

// Limits bound and configure an evaluation. Zero values mean "use the
// default".
type Limits struct {
	// MaxFacts bounds the total number of derived facts.
	MaxFacts int
	// MaxIterations bounds fixpoint rounds per stratum.
	MaxIterations int
	// MaxPathLen bounds the length of any derived path (0 = unbounded).
	MaxPathLen int
	// Parallelism sets the number of worker goroutines evaluating each
	// fixpoint round. 0 and 1 select the sequential evaluator; values
	// above 1 select the parallel evaluator with that many workers; a
	// negative value uses runtime.GOMAXPROCS(0). Both evaluators
	// compute the same least model (the parallel one deterministically,
	// independent of scheduling); parallelism only changes the
	// wall-clock cost of getting there.
	Parallelism int
}

// DefaultLimits are generous enough for all paper examples.
var DefaultLimits = Limits{MaxFacts: 1 << 20, MaxIterations: 1 << 20}

func (l Limits) orDefault() Limits {
	if l.MaxFacts == 0 {
		l.MaxFacts = DefaultLimits.MaxFacts
	}
	if l.MaxIterations == 0 {
		l.MaxIterations = DefaultLimits.MaxIterations
	}
	return l
}

// workers normalizes Limits.Parallelism to a concrete worker count.
func (l Limits) workers() int {
	switch {
	case l.Parallelism < 0:
		return runtime.GOMAXPROCS(0)
	case l.Parallelism <= 1:
		return 1
	default:
		return l.Parallelism
	}
}

// Eval computes P(I): the least instance extending edb that satisfies
// every rule, stratum by stratum (paper §2.3). The input instance is
// not modified (its relations are shared copy-on-write with the
// result, see Prepared.Eval). The result contains the EDB facts plus
// all derived IDB facts.
//
// Eval compiles the program on every call; callers evaluating the same
// program repeatedly should Compile once and reuse the *Prepared, or
// keep a live materialized view with an Engine.
func Eval(prog ast.Program, edb *instance.Instance, limits Limits) (*instance.Instance, error) {
	p, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	return p.Eval(edb, limits)
}

// Query evaluates the program and returns the contents of one output
// relation; see Prepared.Query. Validation, planning and arities are
// computed once per call through the shared compile path.
func Query(prog ast.Program, edb *instance.Instance, output string, limits Limits) (*instance.Relation, error) {
	p, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	return p.Query(edb, output, limits)
}

// Holds evaluates the program and reports whether the nullary output
// relation holds (boolean queries, §5.1.1); see Prepared.Holds.
func Holds(prog ast.Program, edb *instance.Instance, output string, limits Limits) (bool, error) {
	p, err := Compile(prog)
	if err != nil {
		return false, err
	}
	return p.Holds(edb, output, limits)
}

// Explain compiles every rule of the program and returns, in rule
// order, a one-line description of the join plan the evaluator will
// execute: the chosen predicate order and, per predicate, the access
// path (exact index, ground-prefix index, or scan).
func Explain(prog ast.Program) ([]string, error) {
	p, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	return p.Explain(), nil
}

// localSizes returns the current tuple-log high-water mark (Size, not
// the live count) of every local (head) relation present in the
// instance; absent relations are simply not in the map, which reads as
// 0. Delta windows are position ranges, so all watermark bookkeeping
// uses Size — with tombstones present Len would undercount positions.
func localSizes(local map[string]bool, inst *instance.Instance) map[string]int {
	m := make(map[string]int, len(local))
	for name := range local {
		if rel := inst.Relation(name); rel != nil {
			m[name] = rel.Size()
		}
	}
	return m
}

// window is a half-open position range [lo, hi) into a relation's
// tuple log. Who produced the positions — and therefore which strata
// may see them — is read from their derivation stamps, not tracked on
// the window.
type window struct {
	lo, hi int
}

// workItem is one plan run of a round. On a hoisted plan win is the
// (slice of a) change window the delta step iterates; base plans run
// over the full relations and leave it zero.
type workItem struct {
	plan *plan
	win  window
}

// fullItems is round 0's work: every base plan once, over the full
// relations.
func fullItems(plans []*plan) []workItem {
	items := make([]workItem, len(plans))
	for i, p := range plans {
		items[i] = workItem{plan: p}
	}
	return items
}

// driver runs one stratum's rules for one evaluation phase: round 0 and
// the semi-naive rounds of the from-scratch evaluator, and each phase
// of DRed maintenance. The phases differ in what consumes a derivation
// (the sink every method takes), in what every run adds to an ordinary
// one (opts) and in where a round's change windows come from; how the
// runs are enumerated and executed is the same everywhere.
type driver struct {
	plans  []*plan
	inst   *instance.Instance
	limits Limits
	opts   runOpts
	// stats counts the plan executions of delta and negDelta; the
	// maintenance phases fold it into their run's stats.
	stats PlanStats
	// derived is set when the phase's sink is derive into inst, counting
	// new facts here: only then can a round fan out to workers, whose
	// buffers are merged by deriving.
	derived *int

	items []workItem // the current delta round's work, reused round to round
}

// workers is how many ways a round of this driver is split.
func (dr *driver) workers() int {
	if dr.derived == nil {
		return 1
	}
	return dr.limits.workers()
}

// run executes one round's work items. With Limits.Parallelism > 1 a
// deriving round — one item per rule in round 0, one per (rule,
// delta-restricted predicate, window slice) afterwards — is fanned out
// across a bounded worker pool. Relations are frozen during the fan-out
// (workers only read the shared instance, deriving into private
// buffers) and the buffers are merged single-threaded at the round
// barrier. Merging in work-item order keeps the result instance —
// including its insertion order — independent of goroutine scheduling.
// Otherwise the items run inline, one after the other, into sink.
func (dr *driver) run(items []workItem, sink sinkFunc) error {
	if workers := dr.workers(); workers > 1 {
		return runRoundParallel(items, dr.inst, workers, dr.limits, dr.derived, dr.opts.visTag)
	}
	for _, it := range items {
		if err := runPlanOpts(it.plan, dr.inst, it.win, sink, dr.opts); err != nil {
			return err
		}
	}
	return nil
}

// delta runs one delta round: for every rule and every positive body
// atom, the atom's hoisted variant (delta step first, the rest of the
// body index-probed) once per change window of the atom's relation.
// windows says where the changes come from — the positions a stratum's
// own heads grew by since the last round (fixpoint), the insertion
// windows a stratum has not consumed, or the visible ranges of the
// deletion logs passed as opts.deltaRels — and may reuse the slice it
// returns: it is consumed before the next call. Each window is cut into
// one slice per worker (see appendSlices); stats counts one plan
// execution per slice. The round's items stay in dr.items.
func (dr *driver) delta(windows func(name string) []window, sink sinkFunc) error {
	dr.items = dr.items[:0]
	chunks := dr.workers()
	for _, p := range dr.plans {
		for _, run := range p.variants {
			for _, w := range windows(run.steps[0].pred.Name) {
				n := len(dr.items)
				dr.items = appendSlices(dr.items, run, w, chunks)
				for range dr.items[n:] {
					run.note(&dr.stats)
				}
			}
		}
	}
	return dr.run(dr.items, sink)
}

// fixpoint iterates semi-naive rounds until no local relation grows:
// each round re-evaluates the stratum's rules with one local positive
// predicate restricted to the window of facts appended since the
// window start recorded in prev (see delta); the facts the round
// appends form the next round's windows. Shared by the from-scratch
// evaluator (after its round 0), the maintenance insert phase (after
// its delta round) and the rederive phase (whose sink restores instead
// of deriving).
func (dr *driver) fixpoint(local map[string]bool, prev map[string]int, sink sinkFunc) error {
	var one []window // backs the single window grown returns
	for iter := 0; ; iter++ {
		grew := false
		for name := range local {
			if rel := dr.inst.Relation(name); rel != nil && rel.Size() > prev[name] {
				grew = true
				break
			}
		}
		if !grew {
			return nil
		}
		if iter >= dr.limits.MaxIterations {
			return fmt.Errorf("%w: %d fixpoint rounds", ErrNonTermination, iter)
		}
		cur := localSizes(local, dr.inst)
		if one == nil {
			one = make([]window, 1)
		}
		// Both maps hold the local relations only, so every other name
		// reads as an empty window.
		grown := func(name string) []window {
			lo, hi := prev[name], cur[name]
			if hi <= lo {
				return nil
			}
			one[0] = window{lo, hi}
			return one
		}
		if err := dr.delta(grown, sink); err != nil {
			return err
		}
		prev = cur
	}
}

// runStratum runs the semi-naive fixpoint of one compiled stratum from
// scratch. Deltas are tracked by watermark: relations are append-only,
// so the facts derived in a round are exactly the insertion window
// [Size before, Size after), iterated in place by position (TupleAt,
// skipping tombstones via Live) — no per-round delta instances.
//
// visTag is the derivation-stamp tag facts derived by this stratum are
// born with (si+1 for stratum si; see instance.MakeStamp); 0 means the
// run neither tags nor filters (Prepared.Eval on a fresh result
// instance, where strata are already ordered by construction).
func runStratum(plans []*plan, local map[string]bool, inst *instance.Instance, limits Limits, derived *int, visTag uint64) error {
	dr := &driver{plans: plans, inst: inst, limits: limits, opts: runOpts{negStep: -1, visTag: visTag}, derived: derived}
	hb := &headScratch{}
	sink := func(head ast.Pred, env *Env) error {
		return derive(head, env, inst, limits, derived, hb, visTag)
	}
	// Round 0: evaluate every rule against the full instance.
	prev := localSizes(local, inst)
	if err := dr.run(fullItems(plans), sink); err != nil {
		return err
	}
	return dr.fixpoint(local, prev, sink)
}

// sinkFunc consumes one derivation: the rule head instantiated under
// the valuation the body search arrived at. The sequential evaluator
// derives straight into the shared instance; parallel workers derive
// into private buffers merged at the round barrier.
type sinkFunc func(head ast.Pred, env *Env) error

// stepScratch holds the per-step reusable buffers of one plan run:
// probe values, unbound-column projections, and negated-literal
// evaluation results are rebuilt in place for every binding reaching
// the step instead of being reallocated. Safe because the buffers are
// private to the run (worker-private under the parallel protocol) and
// nothing downstream retains them: index and membership probes compare
// inside the call, and head tuples are copied on insert.
type stepScratch struct {
	vals []value.Path   // exact-index probe values (one per bound column)
	sub  []value.Path   // unbound-column projection of a candidate tuple
	neg  instance.Tuple // negated-predicate probe tuple
	bufA value.Path     // ground side of equations; prefix probes
	bufB value.Path     // right side of negated equations
}

// runOpts extends a plan run for the DRed maintenance phases; the zero
// value (with negStep -1) is an ordinary run.
type runOpts struct {
	// deltaRels substitutes side relations for the delta step's
	// relation: the step iterates the window of deltaRels[name] instead
	// of the instance relation of the same name. The overdeletion phase
	// passes the deletion logs, to join the set of deleted facts against
	// the rest of the body.
	deltaRels map[string]*instance.Relation
	// includeDead makes non-delta positive predicate steps match
	// tombstoned tuples too, so the join sees a superset of the
	// pre-deletion state: live tuples plus every tombstone not yet
	// compacted (this run's deletions, and any stale ones below the
	// engine's amortized-compaction threshold). A superset is exactly
	// the direction DRed's overdeletion needs — extra candidates are
	// restored by rederivation — and the stale tombstones only cost
	// churn, never correctness. The delta step always skips tombstones.
	includeDead bool
	// negStep, when >= 0, turns the negated predicate step at that index
	// into a positive delta probe: the step succeeds exactly when
	// negProbe accepts the ground tuple (instead of when the relation
	// does not contain it). Used to restrict a run to derivations that
	// depend on a change of the negated relation.
	negStep  int
	negProbe func(h uint64, t instance.Tuple) bool
	// visTag, when nonzero, restricts every positive step and negation
	// probe to the stratum-exact view: only tuple-log positions whose
	// derivation stamp carries a tag at most visTag (si+1 for stratum
	// si; base facts are tagged 0) are visible. This is how maintenance
	// reproduces Prepared.Eval's stratum-ordered pass — a side atom or
	// negated atom never sees facts a later stratum produced. 0 (the
	// from-scratch evaluator) reads everything.
	visTag uint64
	// boundHeads/boundBirth are the overdeletion pruner's well-founded
	// support check: positive non-delta steps over a relation named in
	// boundHeads (the candidate's stratum's heads — the relations still
	// in flux) only accept supports stamped before the candidate:
	// produced by an earlier stratum (tag < visTag), or born earlier in
	// this stratum (birth < boundBirth). Birth stamps are issued by one
	// monotone counter, so justification chains strictly decrease and
	// circular keep-alives are impossible — including cycles through
	// sibling relations of the same stratum, which a per-relation
	// position measure could not order.
	boundHeads map[string]bool
	boundBirth uint64
	// env pre-seeds the valuation (goal-directed rederivation binds the
	// head against a candidate fact before running the body). Nil means
	// a fresh environment.
	env *Env
}

// stepView builds the stamp/tombstone view one positive step probes
// under: the delta step never includes tombstones (a deleted fact is
// no longer part of the delta) and never carries the pruner's birth
// bound (the delta is the change set itself, not a support).
func (opts *runOpts) stepView(s *step, isDelta bool) instance.View {
	v := instance.View{MaxTag: opts.visTag}
	if !isDelta {
		v.Dead = opts.includeDead
		if opts.boundHeads != nil && opts.boundHeads[s.pred.Name] {
			v.MaxBirth = opts.boundBirth
		}
	}
	return v
}

// runPlanOpts evaluates one rule, feeding every derivation to sink. On
// a hoisted plan the first step — the delta predicate — iterates only
// the window win of its relation instead of all tuples; other plans
// ignore win. opts carries the DRed extensions; see runOpts.
func runPlanOpts(p *plan, inst *instance.Instance, win window, sink sinkFunc, opts runOpts) error {
	env := opts.env
	if env == nil {
		env = NewEnv()
	}
	// Resolve each step's relation and exact index once per run: exec
	// fires once per binding reaching the step, far too hot for map and
	// index-signature lookups. A relation first created by this very
	// run's derivations stays unseen until the next semi-naive round,
	// whose delta window covers the new facts.
	rels := make([]*instance.Relation, len(p.steps))
	idxs := make([]*instance.Index, len(p.steps))
	views := make([]instance.View, len(p.steps))
	scratch := make([]stepScratch, len(p.steps))
	for i := range p.steps {
		s := &p.steps[i]
		switch s.kind {
		case stepPred:
			scratch[i].vals = make([]value.Path, len(s.BoundCols))
			scratch[i].sub = make([]value.Path, len(s.unboundCols))
			views[i] = opts.stepView(s, p.hoisted && i == 0)
		case stepNegPred:
			scratch[i].neg = make(instance.Tuple, len(s.pred.Args))
		}
		if s.kind != stepPred && s.kind != stepNegPred {
			continue
		}
		rels[i] = inst.Relation(s.pred.Name)
		if p.hoisted && i == 0 && opts.deltaRels != nil {
			rels[i] = opts.deltaRels[s.pred.Name]
		}
		if s.kind == stepPred && rels[i] != nil &&
			rels[i].Arity == len(s.pred.Args) && len(s.BoundCols) > 0 {
			idxs[i] = rels[i].Index(s.BoundCols...)
		}
	}
	var evalErr error
	var exec func(i int)
	exec = func(i int) {
		if evalErr != nil {
			return
		}
		if i == len(p.steps) {
			evalErr = sink(p.rule.Head, env)
			return
		}
		s := p.steps[i]
		switch s.kind {
		case stepPred:
			rel := rels[i]
			if rel == nil {
				return
			}
			if rel.Arity != len(s.pred.Args) {
				evalErr = fmt.Errorf("predicate %s used with arity %d but relation has arity %d", s.pred.Name, len(s.pred.Args), rel.Arity)
				return
			}
			lo, hi := 0, rel.Size()
			if p.hoisted && i == 0 {
				lo, hi = win.lo, win.hi
			}
			// The step's view carries tombstone visibility (the DRed
			// overdelete joins against the pre-deletion state), the
			// stamp tag bound (stratum-exact reads), and the pruner's
			// birth bound (well-founded support check); see stepView.
			v := views[i]
			sc := &scratch[i]
			// Resolve the candidate positions from the best access path
			// the bindings make ground: the exact index over the bound
			// columns, else the ground prefix of one argument, else its
			// ground trailing terms (the paper's bound-suffix patterns;
			// term evaluation concatenates, so the evaluated trailing
			// terms ARE the suffix of the evaluated argument). An affix
			// that evaluates to the empty path selects nothing: try the
			// next path, finally the scan.
			var cands []int
			exact, probed := idxs[i] != nil, idxs[i] != nil
			if exact {
				for j, c := range s.BoundCols {
					sc.vals[j] = env.EvalAppend(s.pred.Args[c], sc.vals[j][:0])
				}
				cands = idxs[i].Lookup(v, sc.vals...)
			}
			if !probed && s.PrefixCol >= 0 {
				sc.bufA = env.EvalAppend(s.pred.Args[s.PrefixCol][:s.PrefixLen], sc.bufA[:0])
				if probed = len(sc.bufA) > 0; probed {
					cands = rel.PrefixLookup(v, s.PrefixCol, sc.bufA)
				}
			}
			if !probed && s.SuffixCol >= 0 {
				arg := s.pred.Args[s.SuffixCol]
				sc.bufA = env.EvalAppend(arg[len(arg)-s.SuffixLen:], sc.bufA[:0])
				if probed = len(sc.bufA) > 0; probed {
					cands = rel.SuffixLookup(v, s.SuffixCol, sc.bufA)
				}
			}
			if probed {
				// An exact probe fixed the bound columns, so only the
				// others need matching (none: the candidate is the match);
				// an affix probe verifies candidates with a full MatchTuple.
				for _, pos := range cands {
					if pos < lo || pos >= hi {
						continue
					}
					switch {
					case !exact:
						env.MatchTuple(s.pred.Args, rel.TupleAt(pos), func() { exec(i + 1) })
					case len(s.unboundCols) == 0:
						exec(i + 1)
					default:
						t := rel.TupleAt(pos)
						for j, c := range s.unboundCols {
							sc.sub[j] = t[c]
						}
						env.MatchTuple(s.unboundArgs, sc.sub, func() { exec(i + 1) })
					}
					if evalErr != nil {
						return
					}
				}
				return
			}
			for pos := lo; pos < hi; pos++ {
				if !v.Dead && !rel.Live(pos) {
					continue
				}
				if !v.Admits(rel.StampAt(pos)) {
					continue
				}
				env.MatchTuple(s.pred.Args, rel.TupleAt(pos), func() { exec(i + 1) })
				if evalErr != nil {
					return
				}
			}
		case stepEq:
			// The match binds pattern variables to subslices of the
			// scratch; by the time this step runs again the match has
			// unwound, so reuse is safe.
			sc := &scratch[i]
			sc.bufA = env.EvalAppend(s.ground, sc.bufA[:0])
			env.Match(s.pattern, sc.bufA, func() { exec(i + 1) })
		case stepNegPred:
			// All arguments are ground by safety: a single probe of the
			// relation's built-in full-tuple hash index. Negated
			// relations live in earlier strata, so the resolution
			// hoisted above cannot go stale mid-run.
			sc := &scratch[i]
			if i == opts.negStep {
				// Delta probe: the run is restricted to derivations that
				// depend on a change of this negated relation, so the
				// step succeeds exactly when the ground tuple is in the
				// change set (and fails otherwise, replacing the normal
				// absence check; the probe itself encodes the required
				// relationship to the live relation).
				for k, a := range s.pred.Args {
					sc.neg[k] = env.EvalAppend(a, sc.neg[k][:0])
				}
				if opts.negProbe(sc.neg.Hash(), sc.neg) {
					exec(i + 1)
				}
				return
			}
			if rel := rels[i]; rel != nil {
				for k, a := range s.pred.Args {
					sc.neg[k] = env.EvalAppend(a, sc.neg[k][:0])
				}
				// Negated relations live in earlier strata, so under a
				// stratum-exact view the probe must not see facts a later
				// handwritten stratum re-derives into the same head.
				if rel.Position(instance.View{MaxTag: opts.visTag}, sc.neg.Hash(), sc.neg) >= 0 {
					return
				}
			}
			exec(i + 1)
		case stepNegEq:
			sc := &scratch[i]
			sc.bufA = env.EvalAppend(s.ground, sc.bufA[:0])
			sc.bufB = env.EvalAppend(s.pattern, sc.bufB[:0])
			if !sc.bufA.Equal(sc.bufB) {
				exec(i + 1)
			}
		}
	}
	exec(0)
	return evalErr
}

// headScratch owns the reusable buffers one sink uses to instantiate
// rule heads: the tuple and its per-argument path buffers are rebuilt
// in place for every derivation, and only tuples that turn out to be
// new are copied into stable storage (instance.CopyTuple). In the hot
// fixpoint rounds most derivations rediscover known facts, so most
// derivations allocate nothing.
type headScratch struct {
	tuple instance.Tuple
	bufs  []value.Path
}

// build instantiates the rule head under the current valuation into
// the scratch, enforcing MaxPathLen. The returned tuple aliases the
// scratch: probe with it, then CopyTuple before inserting. Shared by
// the sequential derive and the parallel bufferSink so the two
// evaluators cannot drift.
func (hb *headScratch) build(head ast.Pred, env *Env, limits Limits) (instance.Tuple, error) {
	for len(hb.bufs) < len(head.Args) {
		hb.bufs = append(hb.bufs, nil)
	}
	hb.tuple = hb.tuple[:0]
	for i, a := range head.Args {
		hb.bufs[i] = env.EvalAppend(a, hb.bufs[i][:0])
		if limits.MaxPathLen > 0 && len(hb.bufs[i]) > limits.MaxPathLen {
			return nil, fmt.Errorf("%w: derived path of length %d exceeds limit %d", ErrNonTermination, len(hb.bufs[i]), limits.MaxPathLen)
		}
		hb.tuple = append(hb.tuple, hb.bufs[i])
	}
	return hb.tuple, nil
}

func derive(head ast.Pred, env *Env, inst *instance.Instance, limits Limits, derived *int, hb *headScratch, visTag uint64) error {
	t, err := hb.build(head, env, limits)
	if err != nil {
		return err
	}
	rel := inst.Ensure(head.Name, len(head.Args))
	h := t.Hash()
	if !rel.AddFromScratch(h, t) {
		promote(rel, h, t, visTag)
		return nil
	}
	*derived++
	if *derived > limits.MaxFacts {
		return fmt.Errorf("%w: more than %d derived facts", ErrNonTermination, limits.MaxFacts)
	}
	return nil
}

// promote handles a derivation whose fact already exists. If a later
// stratum produced it (its stamp tag exceeds visTag) it is invisible
// under this stratum's exact view, so it is deleted and re-added to be
// born here: the fresh position lands in the current insertion window,
// and downstream strata and negation probes see it exactly where
// Prepared.Eval's stratum-ordered pass would have put it. The fact set
// is unchanged, so callers do not count it as derived. The sequential
// derive and the parallel round merge both come through here.
func promote(rel *instance.Relation, h uint64, t instance.Tuple, visTag uint64) {
	if visTag == 0 {
		return
	}
	pos := rel.Position(instance.View{}, h, t)
	if instance.StampTag(rel.StampAt(pos)) <= visTag {
		return
	}
	stored := rel.TupleAt(pos)
	rel.DeleteHashed(h, stored)
	rel.AddHashed(h, stored)
}

// Valuation is an immutable snapshot valuation, used by tests and by
// the rewrite engine's equivalence checks.
type Valuation map[ast.Var]value.Path
