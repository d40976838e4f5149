package eval

import (
	"errors"
	"fmt"
	"strconv"

	"seqlog/internal/instance"
)

// ErrNonTermination reports that evaluation exceeded its limits. The
// paper only considers programs that terminate on every instance
// (§2.3); programs like Example 2.3 trip this error.
var ErrNonTermination = errors.New("evaluation exceeded limits (program may not terminate)")

// Limits bound an evaluation. Zero values mean "use the default".
type Limits struct {
	// MaxFacts bounds the total number of derived facts, and so every
	// round loop too (docs/evaluation.md, "Limits").
	MaxFacts int
	// MaxPathLen bounds the length of any derived path (0 = unbounded).
	MaxPathLen int
	// Deprecated: Parallelism is ignored. Every evaluation, from scratch
	// or maintenance, runs on the calling goroutine (see
	// Prepared.fixpoint); the field stays only while bench/mirror.go:45
	// names it.
	Parallelism int
}

// DefaultLimits are generous enough for all paper examples.
var DefaultLimits = Limits{MaxFacts: 1 << 20}

func (l Limits) orDefault() Limits {
	if l.MaxFacts == 0 {
		l.MaxFacts = DefaultLimits.MaxFacts
	}
	return l
}

// SetMaxFacts is the -max-facts flag of seqlog and seqlogd (flag.Func),
// so both refuse a negative bound at the command line, in the same
// words: orDefault replaces only 0, and every evaluation would fail.
func (l *Limits) SetMaxFacts(s string) error {
	n, err := strconv.Atoi(s)
	if err == nil && n < 0 {
		err = errors.New("the bound on derived facts cannot be negative")
	}
	l.MaxFacts = n
	return err
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
// tuple log.
type window struct {
	lo, hi int
}

// workItem is one plan run. On a hoisted plan the delta step iterates
// the instance's own relation of its name, resolved when the run starts
// (a sink's Ensure may epoch-clone a relation, so no instance relation
// is carried from one run to the next): the positions in window win or,
// when sel is set, the positions sel[win.lo:win.hi], a maintenance
// run's deletions, which are tombstoned. Base plans run over the full
// relations and leave both zero.
type workItem struct {
	plan *plan
	sel  []int
	win  window
}

// driver runs one component's rules for one evaluation phase: round 0 and
// the semi-naive rounds of the from-scratch evaluator, and each phase
// of DRed maintenance. The phases differ in what consumes a derivation
// (the sink run and delta take; fixpoint always derives), in what
// every run adds to an ordinary one (opts) and in where a round's
// change windows come from; how the runs are enumerated and executed
// is the same everywhere. The driver owns what its runs share, down to
// the frame and head scratch they execute in: it serves one goroutine,
// one run at a time, never copied.
type driver struct {
	plans  []*plan
	inst   *instance.Instance
	limits Limits
	opts   runOpts
	// stats, when set, counts the plan executions of delta and the goal
	// runs of derivesGoal: the maintenance run's PlanStats.
	stats *PlanStats
	// derived is set when the phase derives into inst (derive, and so
	// fixpoint), counting new facts here.
	derived *int

	frame run // the one plan execution in flight; see exec
	// headBuf is the reusable tuple rule heads are instantiated into:
	// rebuilt in place for every derivation, and only tuples that turn
	// out to be new are copied into stable storage (AddFromScratch). In
	// the hot fixpoint rounds most derivations rediscover known facts, so
	// most derivations allocate nothing.
	headBuf instance.Tuple
}

// delta runs one delta round: for every rule and every body atom, the
// atom's hoisted variant (delta step first, the rest of the body
// index-probed) once per change window of the atom's relation. changes
// says where the changes of a relation read with sign neg come from —
// the positions a component's own heads grew by since the last round
// (fixpoint), the run's insertion windows, or its deletions — as
// windows into the instance's own relation or, with sel set, into the
// list of positions sel. It may reuse the window slice it returns: it
// is consumed before the next call. Each window is one run, executed as
// it is enumerated: every caller fixes its windows when the round
// starts, so no run changes what changes returns. stats counts one plan
// execution per window, and delta returns the runs.
func (dr *driver) delta(changes func(name string, neg bool) (sel []int, wins []window), sink sinkFunc) (int, error) {
	runs := 0
	for _, p := range dr.plans {
		for _, v := range p.variants {
			sel, wins := changes(v.steps[0].pred.Name, v.neg)
			for _, w := range wins {
				v.note(dr.stats)
				runs++
				if err := dr.exec(workItem{plan: v, sel: sel, win: w}, sink); err != nil {
					return runs, err
				}
			}
		}
	}
	return runs, nil
}

// fixpoint iterates semi-naive rounds until no local relation grows:
// each round re-evaluates the component's rules with one local positive
// predicate restricted to the window of facts appended since the
// window start recorded in prev (see delta); the facts the round
// appends form the next round's windows. Every round derives (its sink
// is derive). Shared by the from-scratch evaluator (after its round 0)
// and the maintenance reinsert phase (after its goal pass and delta
// round). A round runs only after the last one appended a fact, so
// MaxFacts bounds the rounds too.
func (dr *driver) fixpoint(local map[string]bool, prev map[string]int) error {
	var one []window // backs the single window grown returns
	for {
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
		cur := localSizes(local, dr.inst)
		if one == nil {
			one = make([]window, 1)
		}
		// Both maps hold the local relations only, so every other name
		// reads as an empty window — every negated one among them: it
		// belongs to an earlier component.
		grown := func(name string, _ bool) ([]int, []window) {
			lo, hi := prev[name], cur[name]
			if hi <= lo {
				return nil, nil
			}
			one[0] = window{lo, hi}
			return nil, one
		}
		if _, err := dr.delta(grown, dr.derive); err != nil {
			return err
		}
		prev = cur
	}
}

// fixpoint runs the semi-naive fixpoint of every component in
// dependency order, from scratch, over inst (Prepared.Eval, NewEngine),
// after the door check.
// Deltas are tracked by watermark: relations are append-only, so the
// facts derived in a round are exactly the insertion window [Size
// before, Size after), iterated in place by position (TupleAt, skipping
// tombstones via Live) — no per-round delta instances.
//
// Like every maintenance phase, it runs on one goroutine: the least
// fixpoint is unique, so splitting a round would change only the cost
// (docs/evaluation.md, "One thread per evaluation").
func (p *Prepared) fixpoint(inst *instance.Instance, limits Limits, derived *int) error {
	for _, name := range inst.Names() {
		if err := p.checkArity(name, inst.Relation(name), "instance holds"); err != nil {
			return err
		}
	}
	for i := range p.comps {
		c := &p.comps[i]
		dr := &driver{plans: c.plans, inst: inst, limits: limits, derived: derived}
		// Round 0: evaluate every rule against the full instance.
		prev := localSizes(c.heads, inst)
		var err error
		for _, pl := range c.plans {
			if err = dr.exec(workItem{plan: pl}, dr.derive); err != nil {
				break
			}
		}
		if err == nil {
			err = dr.fixpoint(c.heads, prev)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
	}
	return nil
}

// head instantiates the plan's compiled rule head under the valuation
// into the driver's scratch, enforcing MaxPathLen, and hashes it. The
// returned tuple aliases the scratch: probe with it, or insert it
// through AddFromScratch, which copies it. Every sink builds its head
// here, so the evaluators cannot drift.
func (dr *driver) head(p *plan, env *Env) (instance.Tuple, uint64, error) {
	t := sized(dr.headBuf, len(p.head))
	dr.headBuf = t
	for i, a := range p.head {
		t[i] = env.evalInto(a, t[i][:0], 0)
		if max := dr.limits.MaxPathLen; max > 0 && len(t[i]) > max {
			return nil, 0, fmt.Errorf("%w: derived path of length %d exceeds limit %d", ErrNonTermination, len(t[i]), max)
		}
	}
	return t, t.Hash(), nil
}

// derive is the sink of a deriving driver: the instantiated head is
// added to the instance (copied only when it is new) and counted.
func (dr *driver) derive(p *plan, env *Env) error {
	t, h, err := dr.head(p, env)
	if err != nil {
		return err
	}
	if !dr.inst.Ensure(p.rule.Head.Name, len(t)).AddFromScratch(h, t) {
		return nil
	}
	return dr.count()
}

// count records one new fact against MaxFacts.
func (dr *driver) count() error {
	*dr.derived++
	if *dr.derived > dr.limits.MaxFacts {
		return fmt.Errorf("%w: more than %d derived facts", ErrNonTermination, dr.limits.MaxFacts)
	}
	return nil
}
