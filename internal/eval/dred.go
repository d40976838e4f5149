package eval

// Delete-and-rederive (DRed) incremental maintenance. One maintenance
// run — an Engine.Assert or Engine.Retract — walks the strata in order
// applying three phases per stratum:
//
//  1. overdelete: tombstone every materialized fact of the stratum's
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
//     candidates that plainly keep a derivation from supports stamped
//     strictly before them (see the stamp paragraph below), which is
//     what stops the cascade at its frontier.
//  2. rederive: each overdeleted candidate is checked goal-directedly —
//     the head matched against the candidate fact, the rule body run
//     against the live state through a head-bound rederive plan — or,
//     when overdeletion took most of the relation, by one forward
//     round over the (small) surviving state; knock-on restorations
//     then propagate semi-naively over the restore windows.
//  3. insert: new consequences are derived delta-first — insertion
//     windows joined through positive literals (the classic semi-naive
//     incremental round), net deletions probed through negated literals
//     (derivations blocked only by a fact this run removed are new),
//     then the stratum-local fixpoint.
//
// Net insertions are tracked as windows into the relations' tuple
// logs, net deletions as side relations; each stratum keeps cursors
// into both, and the walk sweeps the strata until a full sweep
// consumes nothing new. For auto-stratified programs that is one
// working sweep plus one no-op sweep.
//
// Provenance is carried by derivation stamps (instance.MakeStamp):
// every position of every tuple log — the materialization's and the
// deletion logs' — records a monotone birth counter and the tag of the
// stratum that produced it (si+1 for stratum si; 0 for the caller's
// batch, visible to everyone). Maintenance at stratum si reads the
// materialization through the stratum-exact view {MaxTag: si+1}: side
// atoms of a delta join, negation probes and the rederive checks all
// see exactly the facts Prepared.Eval's stratum-ordered pass would
// have accumulated by stratum si, so handwritten programs that define
// one head name in several strata — with readers in between —
// maintain to the same fixpoint Eval computes. A deletion performed by
// a later defining stratum stays invisible to an earlier reader (its
// deletion-log stamp carries the later tag), a restoration is
// announced as an insertion when some stratum already consumed the
// deletion (so a reader after the restorer re-derives what it
// dropped), and a fact an earlier stratum derives that a later stratum
// already produced is PROMOTED — deleted and re-appended under the
// earlier tag — so downstream readers see it where Eval would have put
// it. The extra sweeps of the walk exist for exactly these wake-ups.
//
// The same stamps give the overdeletion pruner its well-founded order:
// a candidate is kept when some rule derives it from supports that are
// either settled (tag below the stratum's) or born strictly before the
// candidate (same tag, smaller birth). Births are issued by one
// monotone counter across ALL relations, so justification chains
// strictly decrease and circular keep-alives are impossible — even
// through mutually recursive sibling relations of the same stratum,
// which the pre-stamp per-relation position measure could not order
// (those retractions degraded to textbook DRed: overdelete the
// downward closure, rederive the world).

import (
	"errors"
	"fmt"
	"sort"

	"seqlog/internal/ast"
	"seqlog/internal/instance"
)

// anyVisible reports whether any position of rel in [lo, hi) carries a
// stamp tag at most maxTag — i.e. whether the range holds anything a
// stratum reading through {MaxTag: maxTag} can see. Windows appended
// by one stratum are uniformly tagged, so this short-circuits on the
// first position in practice.
func anyVisible(rel *instance.Relation, lo, hi int, maxTag uint64) bool {
	for pos := lo; pos < hi; pos++ {
		if instance.StampTag(rel.StampAt(pos)) <= maxTag {
			return true
		}
	}
	return false
}

// visibleRanges returns the maximal sub-ranges of dl's positions
// [lo, hi) whose stamp tag is at most maxTag: the deletion-log entries
// a stratum reading through {MaxTag: maxTag} consumes. (Tombstoned
// log entries — deletions since undone — are not filtered here;
// consumers skip them per position, as before.)
func visibleRanges(dl *instance.Relation, lo, hi int, maxTag uint64) []window {
	var out []window
	for pos := lo; pos < hi; pos++ {
		if instance.StampTag(dl.StampAt(pos)) > maxTag {
			continue
		}
		if n := len(out); n > 0 && out[n-1].hi == pos {
			out[n-1].hi = pos + 1
		} else {
			out = append(out, window{pos, pos + 1})
		}
	}
	return out
}

// errStopRun aborts a plan run after the first derivation; the
// goal-directed rederivation check only needs existence.
var errStopRun = errors.New("eval: stop after first derivation")

// deltas is what a maintenance run has changed so far. A run starts
// from the caller's batch — Engine.write builds the seed deltas before
// any maintenance state exists — and every stratum adds to them.
type deltas struct {
	// ins[name] lists the windows of e.inst.Relation(name)'s tuple log
	// holding facts this run inserted: the asserted batch plus the
	// insert-phase derivations. Rederived facts are normally not
	// recorded — a fact that was overdeleted and then restored is
	// unchanged as far as other strata are concerned — except when a
	// stratum already consumed the deletion-log entry, where the
	// restoration must be announced to let readers after the restorer
	// undo what they did (see rederive's restore).
	ins map[string][]window
	// del[name] holds the facts this run removed from the
	// materialization and has not restored; entries are tombstoned in
	// place when a rederivation (or an insert-phase re-derivation)
	// brings the fact back, so the live entries are always the net
	// deletions. Each entry's stamp tag records the producing stratum
	// (0 for the caller's batch, whose logs are built before delStamper
	// attaches), read back by visibleRanges.
	del map[string]*instance.Relation
}

// maintenance is the state of one DRed maintenance run.
type maintenance struct {
	e *Engine
	deltas
	// delStamper stamps the deletion logs. It is separate from the
	// engine's stamper — deletion-log births never interleave with the
	// materialization's, so replayed runs reassign identical stamps —
	// and is retagged per stratum alongside it.
	delStamper *instance.Stamper

	// Per-stratum consumption cursors: insDone[si][name] counts the ins
	// windows stratum si has processed, delDone[si][name] is the Size
	// watermark of del[name] it has consumed (eligible positions only —
	// deltas produced by later strata are skipped permanently, matching
	// the stratum-order views of Prepared.Eval). A stratum is revisited
	// in a later sweep exactly when a cursor lags behind an eligible
	// delta.
	insDone []map[string]int
	delDone []map[string]int
	visited []bool

	// stats is the run's outcome so far — what the phases count into (and
	// their drivers, into stats.Plans) and Engine.write reports.
	stats MaintenanceStats
}

func (e *Engine) newMaintenance(seed deltas) *maintenance {
	n := len(e.prep.strata)
	m := &maintenance{
		e:          e,
		deltas:     seed,
		delStamper: &instance.Stamper{},
		insDone:    make([]map[string]int, n),
		delDone:    make([]map[string]int, n),
		visited:    make([]bool, n),
	}
	for i := 0; i < n; i++ {
		m.insDone[i] = map[string]int{}
		m.delDone[i] = map[string]int{}
	}
	return m
}

// delFor returns the deletion log for name, creating it on first use.
// The maintenance stamper is (re)attached every time: the caller's
// batch logs are built by the engine before this maintenance exists,
// and their later entries must still be stamped with the producing
// stratum's tag.
func (m *maintenance) delFor(name string, arity int) *instance.Relation {
	dl := m.del[name]
	if dl == nil {
		dl = instance.NewRelation(arity)
		m.del[name] = dl
	}
	dl.SetStamper(m.delStamper)
	return dl
}

// run walks the strata applying the DRed phases until a full sweep
// consumes no new deltas, then folds the per-stratum outcomes into the
// skipped/incremental counters.
func (m *maintenance) run() error {
	limits := m.e.limits
	for sweep := 0; ; sweep++ {
		if sweep > limits.MaxIterations {
			return fmt.Errorf("%w: %d maintenance sweeps", ErrNonTermination, sweep)
		}
		progress := false
		for si := range m.e.prep.strata {
			did, err := m.stratum(si)
			if err != nil {
				return fmt.Errorf("stratum %d: %w", si+1, err)
			}
			progress = progress || did
		}
		if !progress {
			break
		}
	}
	for si := range m.e.prep.strata {
		if m.visited[si] {
			m.stats.StrataIncremental++
		} else {
			m.stats.StrataSkipped++
		}
	}
	return nil
}

// stratum applies the DRed phases to one stratum, reporting whether it
// consumed any new delta (false means the stratum was skipped — no
// relation it reads changed, visibly to it, since its last visit).
func (m *maintenance) stratum(si int) (bool, error) {
	ps := &m.e.prep.strata[si]
	insDone, delDone := m.insDone[si], m.delDone[si]
	maxTag := uint64(si + 1)
	dirty := false
	check := func(names map[string]bool) {
		for name := range names {
			if rel := m.e.inst.Relation(name); rel != nil {
				for _, w := range m.ins[name][insDone[name]:] {
					if anyVisible(rel, w.lo, w.hi, maxTag) {
						dirty = true
						break
					}
				}
			}
			if dl := m.del[name]; dl != nil && anyVisible(dl, delDone[name], dl.Size(), maxTag) {
				dirty = true
			}
		}
	}
	check(ps.reads)
	check(ps.negReads)
	// A deletion-log entry for one of this stratum's OWN heads is also
	// a reason to visit: with a head name defined in several
	// handwritten strata, a fact overdeleted while processing one
	// defining stratum may still be derivable by this one's rules, and
	// only this stratum's rederive phase can restore it. (Own-head
	// deletions are visible regardless of producer — the final relation
	// is what all defining strata jointly derive.)
	for name := range ps.heads {
		if dl := m.del[name]; dl != nil && dl.Size() > delDone[name] {
			dirty = true
		}
	}
	if !dirty {
		return false, nil
	}
	m.visited[si] = true
	// Everything this stratum appends — materialization facts (restores,
	// insert-phase derivations, promotions) and deletion-log entries —
	// is born with this stratum's tag.
	m.e.stamper.SetTag(maxTag)
	m.delStamper.SetTag(maxTag)
	if err := m.overdelete(ps, si); err != nil {
		return true, err
	}
	if err := m.rederive(ps, si); err != nil {
		return true, err
	}
	if err := m.insert(ps, si); err != nil {
		return true, err
	}
	advance := func(names map[string]bool) {
		for name := range names {
			insDone[name] = len(m.ins[name])
			if dl := m.del[name]; dl != nil {
				delDone[name] = dl.Size()
			}
		}
	}
	advance(ps.reads)
	advance(ps.negReads)
	advance(ps.heads)
	return true, nil
}

// driver returns the driver of one maintenance phase of stratum si: it
// reads the engine's instance through the stratum-exact view (plus
// whatever opts adds) and counts its plan executions into the run's
// stats.
func (m *maintenance) driver(plans []*plan, si int, opts runOpts) *driver {
	opts.negStep, opts.visTag = -1, uint64(si+1)
	return &driver{plans: plans, inst: m.e.inst, limits: m.e.limits, opts: opts, stats: &m.stats.Plans}
}

// unconsumedIns returns the insertion windows of name that stratum si
// has not consumed yet and can see. A window appended by a later
// stratum is invisible to this one (its positions carry a later tag);
// windows are uniformly tagged, so the filter is per window.
func (m *maintenance) unconsumedIns(si int, name string) []window {
	rel := m.e.inst.Relation(name)
	if rel == nil {
		return nil
	}
	var out []window
	for _, w := range m.ins[name][m.insDone[si][name]:] {
		if anyVisible(rel, w.lo, w.hi, uint64(si+1)) {
			out = append(out, w)
		}
	}
	return out
}

// changeSet names the changed tuples of one negated relation: the live
// entries of log inside wins, minus those skip rejects (nil rejects
// none). No windows means nothing changed.
type changeSet struct {
	log  *instance.Relation
	wins []window
	skip func(h uint64, t instance.Tuple) bool
}

// has is the set's delta probe (runOpts.negProbe): it encodes the
// relationship to the live relation a changed tuple must have.
func (c *changeSet) has(h uint64, t instance.Tuple) bool {
	pos := c.log.Position(instance.View{}, h, t)
	if pos < 0 {
		return false
	}
	for _, w := range c.wins {
		if pos >= w.lo && pos < w.hi {
			return c.skip == nil || !c.skip(h, t)
		}
	}
	return false
}

// negDelta runs the derivations that depend on a change of a negated
// relation. For every negated body atom of the stratum's rules the
// changed tuples of its relation (changes) are enumerated, the atom is
// matched against each one, and the atom's pre-bound variant runs once
// per (tuple, match) — the binding grounds the rest of the body into
// probes — with the negated step succeeding exactly on the change set
// instead of on absence. The runs visit exactly the valuations whose
// negated atom evaluates into the change set.
func (dr *driver) negDelta(changes func(name string) changeSet, sink sinkFunc) error {
	defer func() { dr.opts.negStep, dr.opts.negProbe = -1, nil }()
	// The atom is matched in the frame's own valuation: each run starts
	// from the binding of one changed tuple.
	env := dr.valuation()
	for _, p := range dr.plans {
		for _, nv := range p.negVariants {
			c := changes(nv.pred.Name)
			if len(c.wins) == 0 {
				continue
			}
			dr.opts.negStep, dr.opts.negProbe = nv.step, c.has
			var runErr error
			for _, w := range c.wins {
				for pos := w.lo; pos < w.hi && runErr == nil; pos++ {
					if !c.log.Live(pos) {
						continue
					}
					h, t := c.log.HashAt(pos), c.log.TupleAt(pos)
					if c.skip != nil && c.skip(h, t) {
						continue
					}
					env.MatchTuple(nv.pred.Args, t, func() {
						if runErr != nil {
							return
						}
						nv.p.note(dr.stats)
						runErr = dr.exec(nv.p, window{}, sink)
					})
				}
			}
			if runErr != nil {
				return runErr
			}
		}
	}
	return nil
}

// overdelete is phase 1; see the package comment.
func (m *maintenance) overdelete(ps *preparedStratum, si int) error {
	e := m.e
	// The side atoms of both chases join against the pre-deletion state;
	// the second one's delta steps read the deletion logs.
	dr := m.driver(ps.plans, si, runOpts{deltaRels: m.del, includeDead: true})
	// The pruner's goal checks start from inside the sink, that is inside
	// a run of dr: they go through a driver, and so a frame, of their own.
	goal := m.driver(nil, si, runOpts{boundHeads: ps.heads})
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
		// rule still derives it from live facts stamped strictly before
		// it — settled by an earlier stratum, or born earlier under this
		// stratum's tag. Births come from one monotone counter, so the
		// measure totally orders the whole stratum's facts (sibling
		// relations included) and circular keep-alives are impossible;
		// if a justifying support dies later, its deletion delta
		// re-derives this candidate and the check runs again. Pruning
		// here is what keeps a retraction's cost proportional to the
		// facts that actually lose their support, instead of the whole
		// downward closure: in well-connected data most candidates have
		// an older alternative derivation and the cascade stops at the
		// frontier.
		kept, err := goal.derivesGoal(ps.rederive, head.Name, t, instance.StampBirth(rel.StampAt(pos)))
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
	// Insertions under negation: derivations whose negated atom matches
	// a fact inserted by this run held before the insertion and are
	// invalid now. Tuples already deleted again are not in the change
	// set.
	inserted := func(name string) changeSet {
		return changeSet{log: e.inst.Relation(name), wins: m.unconsumedIns(si, name)}
	}
	if err := dr.negDelta(inserted, sink); err != nil {
		return err
	}
	// Deletions used positively: the downward closure of the deletion
	// log, chased semi-naively (the stratum's own overdeletions feed
	// back through recursive rules). Only positions produced by strata
	// at or before si are joined — a later defining stratum's deletion
	// is invisible to this stratum's view.
	proc := map[string]int{}
	for name := range ps.reads {
		proc[name] = m.delDone[si][name]
	}
	for round := 0; ; round++ {
		if round > e.limits.MaxIterations {
			return fmt.Errorf("%w: %d overdeletion rounds", ErrNonTermination, round)
		}
		cur := map[string]int{}
		for name := range proc {
			if dl := m.del[name]; dl != nil {
				cur[name] = dl.Size()
			}
		}
		deleted := func(name string) []window {
			dl := m.del[name]
			if dl == nil {
				return nil
			}
			return visibleRanges(dl, proc[name], cur[name], dr.opts.visTag)
		}
		if err := dr.delta(deleted, sink); err != nil {
			return err
		}
		if len(dr.items) == 0 {
			return nil
		}
		for name, n := range cur {
			proc[name] = n
		}
	}
}

// rederive is phase 2; see the package comment. It runs one
// goal-directed pass over the candidates (each checked against the
// live state through the head-bound rederive plans), then chases the
// knock-on restorations semi-naively: a restored fact can give another
// candidate its derivation back, so the restore windows are joined
// delta-first with a sink that only restores still-deleted facts —
// never a second full pass over the candidate set.
func (m *maintenance) rederive(ps *preparedStratum, si int) error {
	e := m.e
	inst := e.inst
	candidates, liveSize := 0, 0
	for name := range ps.heads {
		if dl := m.del[name]; dl != nil {
			candidates += dl.Len()
		}
		if rel := inst.Relation(name); rel != nil {
			liveSize += rel.Len()
		}
	}
	if candidates == 0 {
		return nil
	}
	prev := localSizes(ps.heads, inst)
	restore := func(name string, arity int, h uint64, t instance.Tuple, dlPos int) {
		rel := inst.Ensure(name, arity)
		mainPos := rel.Size()
		if !rel.AddHashed(h, t) {
			m.del[name].DeleteHashed(h, t) // already back; just drop the log entry
			return
		}
		m.del[name].DeleteHashed(h, t)
		e.derived++
		m.stats.Rederived++
		// A restored fact is normally invisible to other strata (it was
		// never really gone). But a stratum that already consumed the
		// deletion-log entry acted on the deletion; announcing the
		// restoration as an insertion produced here lets readers after
		// this stratum re-derive what they dropped, while the producer
		// filter keeps it invisible to earlier readers, whose
		// stratum-order view genuinely lost the fact.
		if m.consumedDeletion(name, dlPos) {
			m.ins[name] = append(m.ins[name], window{lo: mainPos, hi: mainPos + 1})
		}
	}
	// The sink both seeding strategies and the delta rounds share: keep
	// a derived fact only when it is a still-deleted candidate.
	dr := m.driver(ps.plans, si, runOpts{})
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
		restore(head.Name, len(head.Args), dl.HashAt(pos), dl.TupleAt(pos), pos)
		return nil
	}
	// Seed the restoration with whichever strategy is cheaper. Few
	// candidates against a large surviving relation: check each
	// candidate goal-directedly (head matched, body probed through the
	// head-bound rederive plans). Candidates dominating the relation:
	// one forward round of the stratum's rules over the (small) live
	// state, restoring every derived fact that is still deleted — its
	// cost is bounded by a from-scratch round 0, which beats touching
	// every candidate individually.
	if candidates*4 <= liveSize {
		for _, name := range sortedNames(ps.heads) {
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
				ok, err := dr.derivesGoal(ps.rederive, name, t, 0)
				if err != nil {
					return err
				}
				if ok {
					restore(name, arity, dl.HashAt(pos), t, pos)
				}
			}
		}
	} else if err := dr.run(fullItems(ps.plans), sink); err != nil {
		return err
	}
	// Delta propagation over the restore windows.
	return dr.fixpoint(ps.heads, prev, sink)
}

// derivesGoal reports whether some rule of the stratum derives the
// fact name(t...): the rule head is matched against the fact (in the
// frame's own valuation, which the run starts from) and the body
// evaluated against the driver's view of the live state through the
// head-bound rederive plan, stopping at the first derivation found. On
// a plain driver this is the rederive phase's check that the fact is
// still derivable; on the overdeletion pruner's (opts.boundHeads set),
// supports read from the stratum's own heads — the relations still in
// flux — must be born strictly before boundBirth, the well-founded
// variant of the check. Every rule participates: the stamp order covers
// mutual recursion through sibling relations, and a forward-read body
// atom sees only settled earlier-stratum facts under the view, so the
// pre-stamp restriction to self-contained rules is gone.
func (dr *driver) derivesGoal(plans []*plan, name string, t instance.Tuple, boundBirth uint64) (bool, error) {
	dr.opts.boundBirth = boundBirth
	for _, rp := range plans {
		if rp.rule.Head.Name != name {
			continue
		}
		var runErr error
		dr.valuation().MatchTuple(rp.rule.Head.Args, t, func() {
			if runErr == nil {
				runErr = dr.exec(rp, window{}, func(ast.Pred, *Env) error { return errStopRun })
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
func (m *maintenance) insert(ps *preparedStratum, si int) error {
	inst := m.e.inst
	dr := m.driver(ps.plans, si, runOpts{})
	dr.derived = &m.e.derived
	sink := dr.derive
	prev := localSizes(ps.heads, inst)
	// (a) positive deltas over the unconsumed insertion windows: the
	// classic incremental round.
	if err := dr.delta(func(name string) []window { return m.unconsumedIns(si, name) }, sink); err != nil {
		return err
	}
	// (b) deletions under negation: a derivation blocked only by a fact
	// this run removed (and did not restore) is new. The net-deleted
	// tuples are the live entries of the deletion log — restored facts
	// are tombstoned there — minus the facts (a) re-derived, which are
	// back in the relation.
	delDone := m.delDone[si]
	netDeleted := func(name string) changeSet {
		dl := m.del[name]
		if dl == nil {
			return changeSet{}
		}
		return changeSet{
			log:  dl,
			wins: visibleRanges(dl, delDone[name], dl.Size(), dr.opts.visTag),
			skip: func(h uint64, t instance.Tuple) bool {
				rel := inst.Relation(name)
				return rel != nil && rel.Position(instance.View{}, h, t) >= 0
			},
		}
	}
	if err := dr.negDelta(netDeleted, sink); err != nil {
		return err
	}
	// (c) chase the stratum-local consequences.
	if err := dr.fixpoint(ps.heads, prev, sink); err != nil {
		return err
	}
	// Record the insertion windows for downstream strata, and collapse
	// facts that were both overdeleted and re-derived by (a)–(c) back to
	// "unchanged": their deletion-log entry dies. (The insertion window
	// still over-approximates by covering the re-derived positions;
	// downstream overdeletion plus rederivation absorbs that.)
	for _, name := range sortedNames(ps.heads) {
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

// consumedDeletion reports whether any stratum's cursor has already
// moved past position pos of name's deletion log — i.e. some stratum
// acted on that deletion before it was undone by a restoration.
func (m *maintenance) consumedDeletion(name string, pos int) bool {
	for _, dd := range m.delDone {
		if dd[name] > pos {
			return true
		}
	}
	return false
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
