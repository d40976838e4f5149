package eval

// Delete-and-rederive (DRed) incremental maintenance. One maintenance
// run — an Engine.Assert or Engine.Retract — walks the program's
// dependency components (see component) once, in dependency order,
// applying two phases per component:
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
//  2. reinsert: each overdeleted candidate is first checked
//     goal-directedly — the head matched against the candidate fact,
//     the body run on the live state through a head-bound goal plan
//     (compileGoal) — and restored when it still derives. Then new
//     consequences are derived delta-first — insertion windows joined
//     through positive literals (the classic semi-naive incremental
//     round), net deletions joined through negated literals
//     (derivations blocked only by a fact this run removed are new) —
//     and the one component-local fixpoint chases them together with
//     the restorations, so a candidate whose only surviving derivation
//     runs through a restored fact comes back there.
//
// Both signs run through the same delta-hoisted variants (see
// plan.compileVariants): a negated atom's variant is the rule with that
// literal made positive and hoisted, so its delta step iterates the
// changes of the negated relation. Overdeletion feeds it the
// insertions, reinsertion the net deletions — the reverse of what the
// positive atoms read.
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
	"time"

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
	// reinsert-phase derivations. The goal pass's restorations are not
	// recorded: a fact that was overdeleted and then restored is
	// unchanged as far as later components are concerned.
	ins map[string][]window
	// del[name] holds the facts this run removed from the
	// materialization and has not restored; the reinsert phase
	// tombstones an entry in place once the fact is back, so the live
	// entries are always the net deletions.
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
		start := time.Now()
		err := m.overdelete(c)
		overdeleted := time.Now()
		m.stats.Overdelete += overdeleted.Sub(start)
		if err == nil {
			err = m.reinsert(c)
			m.stats.Reinsert += time.Since(overdeleted)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", c, err)
		}
	}
	return nil
}

// changed reports whether this run has inserted into any of the named
// relations or deleted from one and not restored it.
func (m *maintenance) changed(names map[string]bool) bool {
	for name := range names {
		if dl := m.del[name]; len(m.ins[name]) > 0 || dl != nil && dl.Len() > 0 {
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
	sink := func(p *plan, env *Env) error {
		t, h, err := dr.head(p, env)
		if err != nil {
			return err
		}
		name := p.rule.Head.Name
		rel := e.inst.Relation(name)
		if rel == nil {
			return nil
		}
		pos := rel.Position(instance.View{}, h, t)
		if pos < 0 {
			return nil // already deleted, or never materialized
		}
		// EDB-provided facts of IDB relations are base facts, not
		// derivations: they survive every overdeletion.
		if s := e.seeds[name]; s != nil && s.Position(instance.View{}, h, t) >= 0 {
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
		kept, err := goal.derivesGoal(c.rederive, name, t, rel.StampAt(pos))
		if err != nil {
			return err
		}
		if kept {
			m.stats.StampPruned++
			return nil
		}
		dst := e.inst.Ensure(name, len(t))
		if !dst.DeleteHashed(h, t) {
			return nil
		}
		m.delFor(name, len(t)).AddFromScratch(h, t)
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
		if runs, err := dr.delta(changes, sink); err != nil || runs == 0 {
			return err
		}
		proc = cur
	}
}

// derivesGoal reports whether some rule of the component derives the
// fact name(t...): the rule head is matched against the fact (into
// the goal plan's slots of the frame's own valuation, which the run
// starts from) and the body evaluated against the live state through
// the head-bound goal plan (compileGoal), stopping at the first
// derivation found. On a plain driver this
// is the reinsert phase's check that the fact is still derivable; on
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
		dr.valuation(rp.vars).matchTuple(rp.head, t, func() {
			if runErr == nil {
				runErr = dr.exec(workItem{plan: rp}, func(*plan, *Env) error { return errStopRun })
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

// reinsert is phase 2; see the package comment.
func (m *maintenance) reinsert(c *component) error {
	e := m.e
	inst := e.inst
	dr := m.driver(c.plans, runOpts{})
	dr.derived = &e.derived
	// The fixpoint starts before the goal pass, so it chases the restored
	// facts too: a restored fact can give another candidate, checked
	// before it, its derivation back.
	prev := localSizes(c.heads, inst)
	for _, name := range sortedNames(c.heads) {
		dl := m.del[name]
		if dl == nil {
			continue
		}
		for pos := 0; pos < dl.Size(); pos++ {
			if !dl.Live(pos) {
				continue
			}
			t := dl.TupleAt(pos) // owned by the deletion log, safe to share
			ok, err := dr.derivesGoal(c.rederive, name, t, 0)
			if err != nil {
				return err
			}
			if ok && inst.Ensure(name, len(t)).AddHashed(dl.HashAt(pos), t) {
				e.derived++
			}
		}
	}
	from := localSizes(c.heads, inst)
	// One delta round over both changes that enable derivations: the
	// insertion windows through positive atoms (the classic incremental
	// round), and the net deletions through negated atoms — a derivation
	// blocked only by a fact this run removed (and did not restore) is
	// new. A negated relation belongs to an earlier component, so its
	// net deletions are final: the live entries of its deletion log.
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
	if _, err := dr.delta(changes, dr.derive); err != nil {
		return err
	}
	// Then chase the component-local consequences, restorations included.
	if err := dr.fixpoint(c.heads, prev); err != nil {
		return err
	}
	// Record the insertion windows for later components, and collapse facts
	// that were both overdeleted and brought back by this phase to
	// "unchanged": their deletion-log entry dies. The goal pass's
	// restorations lie before from, outside the windows; the windows
	// still over-approximate by covering the fixpoint's re-derived
	// positions, which downstream overdeletion plus reinsertion absorbs.
	for _, name := range sortedNames(c.heads) {
		rel := inst.Relation(name)
		if rel == nil {
			continue
		}
		if hi := rel.Size(); hi > from[name] {
			m.ins[name] = append(m.ins[name], window{lo: from[name], hi: hi})
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
