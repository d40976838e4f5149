package eval

// Delete-and-rederive (DRed) incremental maintenance. One maintenance
// run — an Engine.Assert or Engine.Retract — walks the program's
// dependency components (see component) once, in dependency order,
// applying two phases per component:
//
//  1. overdelete: tombstone every materialized fact of the component's
//     heads whose known derivations may involve a changed fact — a
//     deleted fact used positively (chased semi-naively over the
//     run's deletions, so deletions cascade through recursion), or an
//     inserted fact under negation (a derivation whose negated atom now
//     matches was invalidated by the insertion). Side atoms join
//     against the pre-deletion state (live tuples plus everything
//     tombstoned this run), the over-approximation DRed requires:
//     deleting too much is safe because phase 2 restores survivors,
//     while deleting too little would leave unsupported facts behind.
//     Before tombstoning, a well-founded support check prunes
//     candidates that keep a derivation from supports born before
//     them, or that can be given one (see the stamp paragraph below),
//     which is what stops the cascade at its frontier.
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
// Both kinds of change are positions in the relations' own tuple logs:
// net insertions as windows, net deletions as lists of tombstoned
// positions, whose tuple, hash and birth stay readable until Compact,
// which runs only between writes. Every rule for a relation sits
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
// monotone counter across ALL relations (instance.Stamper) and moved
// older only by the pruner's proofs. The pruner keeps invariant I:
// every live fact has a derivation whose premises in its component's
// heads are live and born strictly before it (settled premises, of an
// earlier component or the EDB, always qualify). A candidate is kept
// when some rule derives it from such supports, so justification
// chains strictly decrease and circular keep-alives are impossible,
// even through sibling relations. Failing that, prove searches for a
// derivation through younger supports and gives each one it proves
// the birth max(its premises') + 1, below the candidate's: moving a
// fact older keeps I for the facts it supports, and a support that
// dies later in the write re-derives, through its deletion delta, what
// it supported (docs/evaluation.md, "Invariant I").

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"seqlog/internal/instance"
)

// errStopRun aborts a plan run after the first derivation; the
// goal-directed rederivation check only needs existence.
var errStopRun = errors.New("eval: stop after first derivation")

// stopRun is the sink of a check that stops at the first derivation.
func stopRun(*plan, *Env) error { return errStopRun }

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
	// del[name] lists, in deletion order, the positions of
	// e.inst.Relation(name)'s tuple log this run tombstoned and has not
	// restored: the reinsert phase drops a position once its fact is
	// back (at a new position), so the list is always the net deletions.
	del map[string][]int
}

// maintenance is the state of one DRed maintenance run.
type maintenance struct {
	e *Engine
	deltas
	// stats is the run's outcome so far — what the phases count into (and
	// their drivers, into stats.Plans) and Engine.write reports.
	stats MaintenanceStats
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
		if len(m.ins[name]) > 0 || len(m.del[name]) > 0 {
			return true
		}
	}
	return false
}

// driver readies dr, one of the engine's, for one maintenance phase:
// it reads the engine's instance (through whatever view opts adds) and
// counts its plan executions into the run's stats. Its frame and head
// scratch carry over from the last write.
func (m *maintenance) driver(dr *driver, plans []*plan, opts runOpts) *driver {
	dr.plans, dr.inst, dr.limits, dr.opts, dr.stats, dr.derived = plans, m.e.inst, m.e.limits, opts, &m.stats.Plans, nil
	return dr
}

// overdelete is phase 1; see the package comment.
func (m *maintenance) overdelete(c *component) error {
	e := m.e
	// The side atoms join against the pre-deletion state.
	dr := m.driver(&e.over, c.plans, runOpts{includeDead: true})
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
		// Well-founded pruning (see the package comment): it keeps a
		// retraction's cost proportional to the facts that lose their
		// support, not to their downward closure.
		kept, err := m.prove(c, 0, name, pos, rel.StampAt(pos))
		if err != nil {
			return err
		}
		if kept {
			m.stats.StampPruned++
			return nil
		}
		e.inst.Ensure(name, len(t)).DeleteHashed(h, t)
		m.del[name] = append(m.del[name], pos)
		e.derived--
		m.stats.Overdeleted++
		return nil
	}
	// Deletions used positively: the downward closure of the run's
	// deletions, chased semi-naively (the component's own overdeletions
	// feed back through recursive rules); proc[name] is the prefix of
	// name's list already chased. Insertions under negation: derivations
	// whose negated atom matches a fact inserted by this run held before
	// the insertion and are invalid now. A negated relation belongs to
	// an earlier component, so its insertions are final and round 0
	// reads them all; tuples already deleted again are tombstones the
	// window's delta step skips.
	proc, cur := map[string]int{}, map[string]int{}
	var one [1]window // backs the single window changes returns
	for round := 0; ; round++ {
		clear(cur)
		for name := range c.reads {
			cur[name] = len(m.del[name])
		}
		changes := func(name string, neg bool) ([]int, []window) {
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
		proc, cur = cur, proc
	}
}

// prover is the goal driver of proof depth d and the state of its
// proof. The pruner's checks start from inside the overdeletion sink,
// that is inside a run: they go through drivers, and so frames, of
// their own, and a premise met at depth d is proved inside a sink of
// goals[d], on goals[d+1]. NewEngine binds the sink, premises, once.
type prover struct {
	driver
	m            *maintenance
	c            *component
	name         string // the fact proved at this depth, by position
	pos, d       int
	bound, birth uint64
	sink         sinkFunc
}

// prove reports whether the live fact at pos of name derives from
// in-component premises born before bound, or proved so one depth down,
// and gives the fact at depth d > 0 the birth max(its premises') + 1 <
// bound; the candidate at depth 0 keeps its own. Its first step is the
// birth-bounded check; below the engine's proofDepth, a second run
// proves younger premises (premises). A component whose rules read no
// head of their own has no such premise: there the bound constrains no
// step, so the second run would repeat the first.
func (m *maintenance) prove(c *component, d int, name string, pos int, bound uint64) (bool, error) {
	pv, rel := m.e.goals[d], m.e.inst.Relation(name)
	m.driver(&pv.driver, nil, runOpts{boundHeads: c.heads})
	pv.m, pv.c, pv.name, pv.pos, pv.d, pv.bound = m, c, name, pos, d, bound
	sink := pv.sink
	if d == 0 {
		sink = stopRun // the candidate needs no birth
	}
	ok, err := pv.derivesGoal(c.rederive, name, rel.TupleAt(pos), bound, sink)
	if !ok && err == nil && d < m.e.proofDepth && c.recursive {
		ok, err = pv.derivesGoal(c.rederive, name, rel.TupleAt(pos), 0, pv.sink)
	}
	if ok && d > 0 {
		m.e.inst.Ensure(name, rel.Arity).Rebirth(pos, pv.birth+1)
	}
	return ok, err
}

// premises is a prover's sink: it accepts a derivation whose premises
// in the component's heads are born before the bound or proved one
// depth down, not from a proof in progress, and records their latest
// birth.
func (pv *prover) premises(p *plan, env *Env) error {
	pv.birth = 0
	for _, i := range p.predSteps {
		s := &p.steps[i]
		if !pv.c.heads[s.pred.Name] {
			continue
		}
		t := sized(pv.headBuf, len(s.args))
		for j, a := range s.args {
			t[j] = env.evalInto(a, t[j][:0], 0)
		}
		pv.headBuf = t
		rel := pv.inst.Relation(s.pred.Name)
		pos := rel.Position(instance.View{}, t.Hash(), t)
		if rel.StampAt(pos) >= pv.bound {
			inProgress := func(g *prover) bool { return g.name == s.pred.Name && g.pos == pos }
			if slices.ContainsFunc(pv.m.e.goals[:pv.d+1], inProgress) {
				return nil
			}
			if ok, err := pv.m.prove(pv.c, pv.d+1, s.pred.Name, pos, pv.bound); err != nil || !ok {
				return err
			}
		}
		pv.birth = max(pv.birth, pv.inst.Relation(s.pred.Name).StampAt(pos))
	}
	if pv.d > 0 && pv.birth+1 >= pv.bound {
		return nil
	}
	return errStopRun
}

// derivesGoal reports whether some rule of the component derives the
// fact name(t...): the rule head is matched against the fact (into
// the goal plan's slots of the frame's own valuation, which the run
// starts from) and the body evaluated against the live state through
// the head-bound goal plan (compileGoal), until sink (stopRun, or a
// prover's premises) stops at a derivation. On a plain driver this is
// the reinsert phase's check that the fact is still derivable; on the
// pruner's (opts.boundHeads set), supports read from the component's
// own heads must be born strictly before boundBirth (0: any birth).
func (dr *driver) derivesGoal(plans []*plan, name string, t instance.Tuple, boundBirth uint64, sink sinkFunc) (bool, error) {
	dr.opts.boundBirth = boundBirth
	for _, rp := range plans {
		if rp.rule.Head.Name != name {
			continue
		}
		var runErr error
		dr.valuation(rp.vars).matchTuple(rp.head, t, func() {
			if runErr == nil {
				if dr.stats != nil {
					dr.stats.GoalRuns++
				}
				runErr = dr.exec(workItem{plan: rp}, sink)
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
	dr := m.driver(&e.rein, c.plans, runOpts{})
	dr.derived = &e.derived
	// The fixpoint starts before the goal pass, so it chases the restored
	// facts too: a restored fact can give another candidate, checked
	// before it, its derivation back.
	prev := localSizes(c.heads, inst)
	for _, name := range c.names {
		// A component that reads none of its heads needs no goal pass: the
		// pruner's bounded check ran these goal plans on this same live
		// state and refuted every candidate.
		if !c.recursive {
			break
		}
		rel := inst.Relation(name)
		for _, pos := range m.del[name] {
			t := rel.TupleAt(pos) // immutable: the restored position shares it
			ok, err := dr.derivesGoal(c.rederive, name, t, 0, stopRun)
			if err != nil {
				return err
			}
			if ok && inst.Ensure(name, len(t)).AddHashed(rel.HashAt(pos), t) {
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
	// net deletions are final: its whole list.
	var one [1]window // backs the single window changes returns
	changes := func(name string, neg bool) ([]int, []window) {
		if !neg {
			return nil, m.ins[name]
		}
		if sel := m.del[name]; len(sel) > 0 {
			one[0] = window{0, len(sel)}
			return sel, one[:]
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
	// "unchanged": their position leaves the list. The goal pass's
	// restorations lie before from, outside the windows; the windows
	// still over-approximate by covering the fixpoint's re-derived
	// positions, which downstream overdeletion plus reinsertion absorbs.
	for _, name := range c.names {
		rel := inst.Relation(name)
		if rel == nil {
			continue
		}
		if hi := rel.Size(); hi > from[name] {
			m.ins[name] = append(m.ins[name], window{lo: from[name], hi: hi})
		}
		sel := m.del[name]
		if len(sel) == 0 {
			continue // writing a nil list back would allocate the map entry
		}
		net := sel[:0]
		for _, pos := range sel {
			if rel.Position(instance.View{}, rel.HashAt(pos), rel.TupleAt(pos)) < 0 {
				net = append(net, pos)
			}
		}
		m.stats.Rederived += len(sel) - len(net)
		m.del[name] = net
	}
	return nil
}
