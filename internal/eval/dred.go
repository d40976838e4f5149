package eval

// Delete-and-rederive (DRed) incremental maintenance. One maintenance
// run — an Engine.Assert or Engine.Retract — walks the program's
// dependency components (see component) once, in dependency order,
// applying three phases per component:
//
//  1. overdelete: tombstone every materialized fact of the component's
//     heads whose known derivations may involve a changed fact — a
//     deleted fact used positively (chased semi-naively over the
//     deletion log, so deletions cascade through recursion), or an
//     inserted fact under negation (a derivation whose negated atom now
//     matches was invalidated by the insertion). Side atoms join
//     against the pre-deletion state (live tuples plus everything
//     tombstoned this run), the over-approximation DRed requires:
//     deleting too much is safe because phase 2 restores survivors,
//     while deleting too little would leave unsupported facts behind.
//     Before tombstoning, a well-founded support check prunes
//     candidates that plainly keep a derivation from supports born
//     strictly before them (see the stamp paragraph below), which is
//     what stops the cascade at its frontier.
//  2. rederive: each overdeleted candidate is checked goal-directedly —
//     the head matched against the candidate fact, the rule body run
//     against the live state through a head-bound rederive plan —
//     and knock-on restorations then propagate semi-naively over the
//     restore windows.
//  3. insert: new consequences are derived delta-first — insertion
//     windows joined through positive literals (the classic semi-naive
//     incremental round), net deletions joined through negated literals
//     (derivations blocked only by a fact this run removed are new),
//     then the component-local fixpoint.
//
// Both signs run through the same delta-hoisted variants (see
// plan.compileVariants): a negated atom's variant is the rule with that
// literal made positive and hoisted, so its delta step iterates the
// changes of the negated relation. Overdeletion feeds it the
// insertions, the insert phase the net deletions — the reverse of what
// the positive atoms read.
//
// Net insertions are tracked as windows into the relations' tuple
// logs, net deletions as side relations. Every rule for a relation sits
// in its relation's component, and a component reads only its own
// heads and those of earlier components. So when a component runs,
// every change it reads outside its heads is final — the caller's
// batch or an earlier component made it — and it consumes the whole
// logs; a component none of whose reads changed is skipped. For a
// non-recursive component the chase and the round loops end after one
// pass, since no rule reads its own heads.
//
// Provenance is carried by derivation stamps: every position of the
// materialization's tuple log records its birth, issued by one
// monotone counter across ALL relations (instance.Stamper). They give
// the overdeletion pruner its well-founded order: a candidate is kept
// when some rule derives it from supports that are either settled (a
// relation of an earlier component, or the EDB) or, in one of the
// component's own heads, born strictly before the candidate.
// Justification chains strictly decrease, so circular keep-alives are
// impossible — even through mutually recursive sibling relations of
// the same component, which a per-relation position measure could not
// order.

import (
	"errors"
	"fmt"
	"sort"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
)

// errStopRun aborts a plan run after the first derivation; the
// goal-directed rederivation check only needs existence.
var errStopRun = errors.New("eval: stop after first derivation")

// deltas is what a maintenance run has changed so far. A run starts
// from the caller's batch — Engine.write builds the seed deltas before
// any maintenance state exists — and every component adds to them.
type deltas struct {
	// ins[name] lists the windows of e.inst.Relation(name)'s tuple log
	// holding facts this run inserted: the asserted batch plus the
	// insert-phase derivations. Rederived facts are not recorded: a fact
	// that was overdeleted and then restored is unchanged as far as
	// later components are concerned.
	ins map[string][]window
	// del[name] holds the facts this run removed from the
	// materialization and has not restored; entries are tombstoned in
	// place when a rederivation (or an insert-phase re-derivation)
	// brings the fact back, so the live entries are always the net
	// deletions.
	del map[string]*instance.Relation
}

// maintenance is the state of one DRed maintenance run.
type maintenance struct {
	e *Engine
	deltas
	// stats is the run's outcome so far — what the phases count into (and
	// their drivers, into stats.Plans) and Engine.write reports.
	stats MaintenanceStats
}

// delFor returns the deletion log for name, creating it on first use.
func (m *maintenance) delFor(name string, arity int) *instance.Relation {
	dl := m.del[name]
	if dl == nil {
		dl = instance.NewRelation(arity)
		m.del[name] = dl
	}
	return dl
}

// run walks the components once, in dependency order, applying the
// DRed phases to every component that reads a changed relation and
// skipping the rest.
func (m *maintenance) run() error {
	for i := range m.e.prep.comps {
		c := &m.e.prep.comps[i]
		if !m.changed(c.reads) {
			m.stats.Skipped++
			continue
		}
		m.stats.Incremental++
		err := m.overdelete(c)
		if err == nil {
			err = m.rederive(c)
		}
		if err == nil {
			err = m.insert(c)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
	}
	return nil
}

// changed reports whether this run has inserted into or deleted from
// any of the named relations.
func (m *maintenance) changed(names map[string]bool) bool {
	for name := range names {
		if len(m.ins[name]) > 0 || m.del[name] != nil {
			return true
		}
	}
	return false
}

// driver returns the driver of one maintenance phase: it reads the
// engine's instance (through whatever view opts adds) and counts its
// plan executions into the run's stats.
func (m *maintenance) driver(plans []*plan, opts runOpts) *driver {
	return &driver{plans: plans, inst: m.e.inst, limits: m.e.limits, opts: opts, stats: &m.stats.Plans}
}

// overdelete is phase 1; see the package comment.
func (m *maintenance) overdelete(c *component) error {
	e := m.e
	// The side atoms join against the pre-deletion state.
	dr := m.driver(c.plans, runOpts{includeDead: true})
	// The pruner's goal checks start from inside the sink, that is inside
	// a run of dr: they go through a driver, and so a frame, of their own.
	goal := m.driver(nil, runOpts{boundHeads: c.heads})
	sink := func(head ast.Pred, env *Env) error {
		t, h, err := dr.head(head, env)
		if err != nil {
			return err
		}
		rel := e.inst.Relation(head.Name)
		if rel == nil {
			return nil
		}
		pos := rel.Position(instance.View{}, h, t)
		if pos < 0 {
			return nil // already deleted, or never materialized
		}
		// EDB-provided facts of IDB relations are base facts, not
		// derivations: they survive every overdeletion.
		if s := e.seeds[head.Name]; s != nil && s.Position(instance.View{}, h, t) >= 0 {
			return nil
		}
		// Well-founded pruning: keep the candidate outright when some
		// rule still derives it from live facts that are settled or born
		// before it. Births come from one monotone counter, so the
		// measure totally orders the whole component's facts (sibling
		// relations included) and circular keep-alives are impossible;
		// if a justifying support dies later, its deletion delta
		// re-derives this candidate and the check runs again. Pruning
		// here is what keeps a retraction's cost proportional to the
		// facts that actually lose their support, instead of the whole
		// downward closure: in well-connected data most candidates have
		// an older alternative derivation and the cascade stops at the
		// frontier.
		kept, err := goal.derivesGoal(c.rederive, head.Name, t, rel.StampAt(pos))
		if err != nil {
			return err
		}
		if kept {
			m.stats.StampPruned++
			return nil
		}
		dst := e.inst.Ensure(head.Name, len(head.Args))
		if !dst.DeleteHashed(h, t) {
			return nil
		}
		m.delFor(head.Name, len(head.Args)).AddFromScratch(h, t)
		e.derived--
		m.stats.Overdeleted++
		return nil
	}
	// Deletions used positively: the downward closure of the deletion
	// logs, chased semi-naively (the component's own overdeletions feed
	// back through recursive rules); proc[name] is the prefix of name's
	// log already chased. Insertions under negation: derivations whose
	// negated atom matches a fact inserted by this run held before the
	// insertion and are invalid now. A negated relation belongs to an
	// earlier component, so its insertions are final and round 0 reads
	// them all; tuples already deleted again are tombstones the delta
	// step skips.
	proc := map[string]int{}
	var one [1]window // backs the single window changes returns
	for round := 0; ; round++ {
		if round > e.limits.MaxIterations {
			return fmt.Errorf("%w: %d overdeletion rounds", ErrNonTermination, round)
		}
		cur := map[string]int{}
		for name := range c.reads {
			if dl := m.del[name]; dl != nil {
				cur[name] = dl.Size()
			}
		}
		changes := func(name string, neg bool) (*instance.Relation, []window) {
			if neg {
				if round > 0 {
					return nil, nil
				}
				return nil, m.ins[name]
			}
			if lo, hi := proc[name], cur[name]; hi > lo {
				one[0] = window{lo, hi}
				return m.del[name], one[:]
			}
			return nil, nil
		}
		if err := dr.delta(changes, sink); err != nil {
			return err
		}
		if len(dr.items) == 0 {
			return nil
		}
		proc = cur
	}
}

// rederive is phase 2; see the package comment. It runs one
// goal-directed pass over the candidates (each checked against the
// live state through the head-bound rederive plans), then chases the
// knock-on restorations semi-naively: a restored fact can give another
// candidate its derivation back, so the restore windows are joined
// delta-first with a sink that only restores still-deleted facts —
// never a second full pass over the candidate set.
func (m *maintenance) rederive(c *component) error {
	e := m.e
	inst := e.inst
	candidates := 0
	for name := range c.heads {
		if dl := m.del[name]; dl != nil {
			candidates += dl.Len()
		}
	}
	if candidates == 0 {
		return nil
	}
	prev := localSizes(c.heads, inst)
	restore := func(name string, arity int, h uint64, t instance.Tuple) {
		if inst.Ensure(name, arity).AddHashed(h, t) {
			e.derived++
			m.stats.Rederived++
		}
		m.del[name].DeleteHashed(h, t) // restored, or already back
	}
	dr := m.driver(c.plans, runOpts{})
	for _, name := range sortedNames(c.heads) {
		dl := m.del[name]
		if dl == nil {
			continue
		}
		arity := e.prep.arities[name]
		for pos := 0; pos < dl.Size(); pos++ {
			if !dl.Live(pos) {
				continue
			}
			t := dl.TupleAt(pos) // owned by the deletion log, safe to share
			ok, err := dr.derivesGoal(c.rederive, name, t, 0)
			if err != nil {
				return err
			}
			if ok {
				restore(name, arity, dl.HashAt(pos), t)
			}
		}
	}
	// Delta propagation over the restore windows: keep a derived fact
	// only when it is a still-deleted candidate.
	sink := func(head ast.Pred, env *Env) error {
		t, h, err := dr.head(head, env)
		if err != nil {
			return err
		}
		dl := m.del[head.Name]
		if dl == nil {
			return nil
		}
		pos := dl.Position(instance.View{}, h, t)
		if pos < 0 {
			return nil // not a candidate: the fact already exists (or never did)
		}
		restore(head.Name, len(head.Args), dl.HashAt(pos), dl.TupleAt(pos))
		return nil
	}
	return dr.fixpoint(c.heads, prev, sink)
}

// derivesGoal reports whether some rule of the component derives the
// fact name(t...): the rule head is matched against the fact (in the
// frame's own valuation, which the run starts from) and the body
// evaluated against the live state through the head-bound rederive
// plan, stopping at the first derivation found. On a plain driver this
// is the rederive phase's check that the fact is still derivable; on
// the overdeletion pruner's (opts.boundHeads set), supports read from
// the component's own heads — the relations still in flux — must be born
// strictly before boundBirth, the well-founded variant of the check.
// Every rule participates: the birth order covers mutual recursion
// through sibling relations.
func (dr *driver) derivesGoal(plans []*plan, name string, t instance.Tuple, boundBirth uint64) (bool, error) {
	dr.opts.boundBirth = boundBirth
	for _, rp := range plans {
		if rp.rule.Head.Name != name {
			continue
		}
		var runErr error
		dr.valuation().MatchTuple(rp.rule.Head.Args, t, func() {
			if runErr == nil {
				runErr = dr.exec(workItem{plan: rp}, func(ast.Pred, *Env) error { return errStopRun })
			}
		})
		if errors.Is(runErr, errStopRun) {
			return true, nil
		}
		if runErr != nil {
			return false, runErr
		}
	}
	return false, nil
}

// insert is phase 3; see the package comment.
func (m *maintenance) insert(c *component) error {
	inst := m.e.inst
	dr := m.driver(c.plans, runOpts{})
	dr.derived = &m.e.derived
	sink := dr.derive
	prev := localSizes(c.heads, inst)
	// One delta round over both changes that enable derivations: the
	// insertion windows through positive atoms (the classic incremental
	// round), and the net deletions through negated atoms — a derivation
	// blocked only by a fact this run removed (and did not restore) is
	// new. The net deletions are the live entries of the deletion log:
	// restored facts are tombstoned there.
	var one [1]window // backs the single window changes returns
	changes := func(name string, neg bool) (*instance.Relation, []window) {
		if !neg {
			return nil, m.ins[name]
		}
		if dl := m.del[name]; dl != nil && dl.Len() > 0 {
			one[0] = window{0, dl.Size()}
			return dl, one[:]
		}
		return nil, nil
	}
	if err := dr.delta(changes, sink); err != nil {
		return err
	}
	// Then chase the component-local consequences.
	if err := dr.fixpoint(c.heads, prev, sink); err != nil {
		return err
	}
	// Record the insertion windows for later components, and collapse facts
	// that were both overdeleted and re-derived by this phase back to
	// "unchanged": their deletion-log entry dies. (The insertion window
	// still over-approximates by covering the re-derived positions;
	// downstream overdeletion plus rederivation absorbs that.)
	for _, name := range sortedNames(c.heads) {
		rel := inst.Relation(name)
		if rel == nil {
			continue
		}
		if hi := rel.Size(); hi > prev[name] {
			m.ins[name] = append(m.ins[name], window{lo: prev[name], hi: hi})
		}
		dl := m.del[name]
		if dl == nil {
			continue
		}
		for pos := 0; pos < dl.Size(); pos++ {
			if !dl.Live(pos) {
				continue
			}
			h := dl.HashAt(pos)
			if t := dl.TupleAt(pos); rel.Position(instance.View{}, h, t) >= 0 {
				dl.DeleteHashed(h, t)
				m.stats.Rederived++
			}
		}
	}
	return nil
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
