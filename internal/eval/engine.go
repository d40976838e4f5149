package eval

import (
	"fmt"
	"sync"
	"time"

	"seqlog/internal/instance"
)

// Engine is a persistent evaluator: a compiled program plus a live
// materialized instance (EDB and all derived IDB facts, kept at
// fixpoint). Where Eval is batch — re-validate, re-plan, re-derive
// everything per call — an Engine pays compilation and the initial
// fixpoint once and then maintains the materialization incrementally
// as facts arrive (Assert) and are withdrawn (Retract), serving reads
// from consistent copy-on-write snapshots in the meantime. Both
// directions run delete-and-rederive (DRed) maintenance; see dred.go.
//
// Concurrency: all Engine methods are safe for concurrent use; writes
// (Assert, Retract) are serialized by an internal mutex, and reads
// (Query, Holds, Snapshot, Stats) take the same mutex only long enough
// to freeze the state they return. A snapshot, once returned, is
// immutable and may be read by any number of goroutines while further
// maintenance proceeds.
type Engine struct {
	mu      sync.Mutex
	prep    *Prepared
	limits  Limits
	inst    *instance.Instance
	derived int // IDB facts currently materialized beyond the seeds
	// writes[op] counts the completed calls of one write verb, for
	// EngineStats.
	writes [2]int
	// plans accumulates the PlanStats of every maintenance run, for
	// EngineStats.
	plans PlanStats
	// seeds holds, for every IDB relation that already had facts in the
	// initial EDB, the frozen pre-fixpoint relation: seed facts are base
	// facts, not derivations, so overdeletion never removes them.
	seeds map[string]*instance.Relation
	// broken records a failed maintenance run: the materialization may
	// be partial, so every later evaluation or read call fails fast
	// with this error (Stats stays available for diagnostics).
	broken error
	// The maintenance phases' drivers, kept so a write reuses their
	// frames: overdeletion, reinsert, and the pruner's goal checks, one
	// prover per proof depth 0..proofDepth (setProofDepth).
	over, rein driver
	goals      []*prover
	proofDepth int
}

// PlanStats reports which compiled plans a maintenance run executed
// and the access paths their non-delta join steps used. A "plan
// execution" is one delta-hoisted run of a rule (per change window,
// per changed atom, per semi-naive round); the goal-directed
// rederivation probes are not counted. The step counters classify every
// positive non-delta predicate step of those executions by its planned
// access path, so VariantRuns vs BaseRuns splits the runs by which kind
// of change drove them and ScanSteps says how often a body atom still
// had to be scanned.
type PlanStats struct {
	// VariantRuns counts the runs driven by a change window of a
	// positive body atom's relation, BaseRuns those driven by a change
	// window of a negated atom's relation: one run per window.
	VariantRuns int
	BaseRuns    int
	// IndexProbeSteps / PrefixProbeSteps / SuffixProbeSteps / ScanSteps
	// classify the non-delta positive predicate steps of the executed
	// plans by access path: exact column index, ground-prefix index,
	// ground-suffix index, or full scan.
	IndexProbeSteps  int
	PrefixProbeSteps int
	SuffixProbeSteps int
	ScanSteps        int
}

// add accumulates other into s.
func (s *PlanStats) add(other PlanStats) {
	s.VariantRuns += other.VariantRuns
	s.BaseRuns += other.BaseRuns
	s.IndexProbeSteps += other.IndexProbeSteps
	s.PrefixProbeSteps += other.PrefixProbeSteps
	s.SuffixProbeSteps += other.SuffixProbeSteps
	s.ScanSteps += other.ScanSteps
}

// note records one execution of the delta variant p into st (nil:
// nobody is counting): the sign of its delta atom and the access path
// of every positive predicate step but the delta step.
func (p *plan) note(st *PlanStats) {
	if st == nil {
		return
	}
	if p.neg {
		st.BaseRuns++
	} else {
		st.VariantRuns++
	}
	for _, i := range p.predSteps[1:] {
		*accessPaths[p.steps[i].Class()].counter(st)++
	}
}

// MaintenanceStats reports the maintenance work of one write — the
// part of AssertStats and RetractStats that does not depend on the
// direction of the change, because both run the same DRed phases.
type MaintenanceStats struct {
	// Derived is the net change in materialized IDB facts: facts
	// derived minus facts invalidated. An Assert can drive it negative
	// (insertions into negated relations invalidate more than the batch
	// derives) and a Retract positive (deletions enable new derivations
	// through negation).
	Derived int
	// Overdeleted counts the IDB facts tombstoned by the overdeletion
	// phase (derivations that may depend on a changed fact); Rederived
	// counts how many of those the reinsert phase brought back because
	// an alternative derivation survives, whether its goal check or its
	// fixpoint found it. Overdeleted - Rederived is the number of facts
	// the batch genuinely invalidated.
	Overdeleted int
	Rederived   int
	// StampPruned counts overdeletion candidates the well-founded pruner
	// kept: a rule still derives them from supports that are settled
	// (an earlier component) or born strictly before the candidate, or
	// the pruner's proof found such a derivation through younger
	// supports and moved them older (see dred.go). They were never
	// tombstoned and never needed rederivation.
	StampPruned int
	// Skipped counts the program's dependency components (see
	// ast.Deps) left completely untouched because no relation they read
	// changed; Incremental counts components maintained delta-first.
	// Nothing is ever recomputed from scratch: negation is handled by
	// targeted overdelete + reinsert.
	Skipped     int
	Incremental int
	// Plans reports which plan shapes the run executed and their access
	// paths; see PlanStats.
	Plans PlanStats
	// Clones reports the copy-on-write barrier work this call performed
	// on frozen (snapshot-shared) relations: epoch clones made, sealed
	// chunks shared by pointer, and approximate bytes copied. See
	// instance.CloneStats.
	Clones instance.CloneStats
	// Validate, Barrier, Overdelete, Reinsert (its goal pass included)
	// and Compact are the wall time of the call's phases; the DRed pair
	// is summed over the maintained components.
	Validate, Barrier, Overdelete, Reinsert, Compact time.Duration
}

// AssertStats reports what one Assert call did.
type AssertStats struct {
	// Asserted counts the facts of the batch that were genuinely new
	// (already-present facts are dropped and trigger no work).
	Asserted int
	MaintenanceStats
}

// RetractStats reports what one Retract call did.
type RetractStats struct {
	// Retracted counts the facts of the batch actually removed from the
	// materialization (absent facts are dropped silently).
	Retracted int
	MaintenanceStats
}

// EngineStats is a point-in-time summary of an engine.
type EngineStats struct {
	// Facts is the total number of materialized facts (EDB + IDB).
	Facts int
	// Derived is the number of materialized IDB facts beyond any
	// EDB-provided seeds.
	Derived int
	// Asserts and Retracts count completed maintenance calls.
	Asserts  int
	Retracts int
	// Plans accumulates the PlanStats of every maintenance run since the
	// engine was created.
	Plans PlanStats
	// Clones accumulates the copy-on-write barrier work of every write
	// since the engine was created (including the initial fixpoint's
	// clones of frozen EDB seeds): epoch clones made, sealed chunks
	// shared instead of copied, and approximate bytes copied.
	Clones instance.CloneStats
}

// NewEngine compiles nothing — prep is already compiled — but runs the
// initial fixpoint: the engine's materialized instance starts as a
// copy-on-write snapshot of edb (the caller's instance is not copied
// and not modified) extended with every derivable fact. A nil edb
// means an empty one. The limits bound the engine for its lifetime;
// MaxFacts caps the total number of materialized IDB facts across all
// maintenance calls, not per call.
func NewEngine(prep *Prepared, edb *instance.Instance, limits Limits) (*Engine, error) {
	if edb == nil {
		edb = instance.New()
	}
	e := &Engine{
		prep:   prep,
		limits: limits.orDefault(),
		inst:   edb.Snapshot(),
		seeds:  map[string]*instance.Relation{},
	}
	// Every tuple appended to the materialization is born from one
	// counter: the order the overdeletion pruner reads (see dred.go).
	// Stamps are recomputed on replay, never serialized.
	e.inst.SetStamper(&instance.Stamper{})
	e.setProofDepth(2)
	for name := range prep.idb {
		if r := e.inst.Relation(name); r != nil {
			e.seeds[name] = r // frozen by the snapshot above
		}
	}
	if err := prep.fixpoint(e.inst, e.limits, &e.derived); err != nil {
		return nil, err
	}
	return e, nil
}

// setProofDepth sets the deepest depth a premise is proved at. NewEngine
// sets 2: on the seed-9 churn of reachability (docs/evaluation.md),
// depth 2 keeps more candidates than 1, and deeper searches cost more
// goal runs and keep fewer. At 0 the birth-bounded check alone keeps a
// candidate; only tests set it (export_test.go).
func (e *Engine) setProofDepth(d int) {
	e.proofDepth, e.goals = d, make([]*prover, d+1)
	for i := range e.goals {
		pv := &prover{}
		pv.sink, e.goals[i] = pv.premises, pv
	}
}

// Prepared returns the engine's compiled program.
func (e *Engine) Prepared() *Prepared { return e.prep }

// Snapshot returns an immutable copy-on-write snapshot of the current
// materialization (EDB and IDB facts): a consistent state that
// concurrent maintenance never disturbs. Taking a snapshot is
// O(#relations) — no tuple is copied. Like every other read, it fails
// on an engine whose maintenance previously failed (the
// materialization would be partial); Stats stays available for
// diagnostics.
func (e *Engine) Snapshot() (*instance.Instance, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.broken != nil {
		return nil, e.broken
	}
	return e.inst.Snapshot(), nil
}

// Query returns the materialized contents of one output relation, or
// an empty relation of the right arity when the program names output
// but nothing was derived. The returned relation is frozen, so it
// stays valid (and constant) under concurrent maintenance. Unlike
// Prepared.Query this does not evaluate anything: the engine is already
// at fixpoint.
func (e *Engine) Query(output string) (*instance.Relation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.broken != nil {
		return nil, e.broken
	}
	r, err := e.prep.output(e.inst, output)
	if err == nil {
		r.Freeze()
	}
	return r, err
}

// Holds reports whether the nullary output relation holds in the
// current materialization (boolean queries, §5.1.1).
func (e *Engine) Holds(output string) (bool, error) {
	r, err := e.Query(output)
	if err != nil {
		return false, err
	}
	return r.Len() > 0, nil
}

// Stats returns a point-in-time summary of the engine.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{
		Facts:    e.inst.Facts(),
		Derived:  e.derived,
		Asserts:  e.writes[assertOp],
		Retracts: e.writes[retractOp],
		Plans:    e.plans,
		Clones:   e.inst.CloneStats(),
	}
}

// writeOp is one direction of change. The two differ in what makes a
// batch fact a change (absent for an assert, present for a retract)
// and in the step that applies one relation's share of the batch to
// the materialization and records it in the maintenance run's seed
// deltas; everything around that step is Engine.write.
type writeOp int

const (
	assertOp writeOp = iota
	retractOp
)

var writeOps = [...]struct {
	verb    string // validateBatch's wording
	present bool   // a batch fact changes something iff it is present
	step    func(seed deltas, name string, dst, src *instance.Relation) int
}{
	assertOp:  {"assert", false, appendBatch},
	retractOp: {"retract", true, deleteBatch},
}

// validateBatch checks the semantic boundaries shared by Assert and
// Retract: no IDB relations (derived facts are maintained, not edited)
// and no arity clashes with the program or the materialization.
func (e *Engine) validateBatch(delta *instance.Instance, verb string) error {
	for _, name := range delta.Names() {
		r := delta.Relation(name)
		if e.prep.idb[name] {
			return fmt.Errorf("eval: cannot %s IDB relation %q (defined by the program; derived facts are maintained, not %sed)", verb, name, verb)
		}
		if err := e.prep.checkArity(name, r, verb+"ing"); err != nil {
			return err
		}
		if cur := e.inst.Relation(name); cur != nil && cur.Arity != r.Arity {
			return fmt.Errorf("eval: %sing arity-%d tuples of existing arity-%d relation %q", verb, r.Arity, cur.Arity, name)
		}
	}
	return nil
}

// changes reports whether src holds a fact whose membership in cur (nil:
// no such relation) is the opposite of what the batch wants, i.e.
// whether applying src would change cur at all.
func changes(cur, src *instance.Relation, present bool) bool {
	for pos := 0; pos < src.Size(); pos++ {
		if src.Live(pos) && (cur != nil && cur.Position(instance.View{}, src.HashAt(pos), src.TupleAt(pos)) >= 0) == present {
			return true
		}
	}
	return false
}

// appendBatch is Assert's step: the genuinely new facts of src are
// appended to dst, and the appended positions are the run's insertion
// window.
func appendBatch(seed deltas, name string, dst, src *instance.Relation) int {
	lo := dst.Size()
	for pos := 0; pos < src.Size(); pos++ {
		if src.Live(pos) {
			// AddFromScratch probes with the caller's tuple and copies it
			// into engine-owned storage only when genuinely new.
			dst.AddFromScratch(src.HashAt(pos), src.TupleAt(pos))
		}
	}
	hi := dst.Size()
	seed.ins[name] = []window{{lo: lo, hi: hi}}
	return hi - lo
}

// deleteBatch is Retract's step: the facts of src present in dst are
// tombstoned there, and the tombstoned positions are the run's
// deletions.
func deleteBatch(seed deltas, name string, dst, src *instance.Relation) int {
	var sel []int
	for pos := 0; pos < src.Size(); pos++ {
		if !src.Live(pos) {
			continue
		}
		h, t := src.HashAt(pos), src.TupleAt(pos)
		if at := dst.Position(instance.View{}, h, t); at >= 0 {
			dst.DeleteHashed(h, t)
			sel = append(sel, at)
		}
	}
	seed.del[name] = sel
	return len(sel)
}

// write is the one write path: it applies a batch of EDB changes in
// op's direction and restores the fixpoint with one DRed maintenance
// run, returning how many batch facts changed the materialization. On
// a maintenance error the engine may hold a partial materialization
// and refuses further use, returning the same error from every later
// call.
func (e *Engine) write(op writeOp, delta *instance.Instance) (int, MaintenanceStats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var stats MaintenanceStats
	if e.broken != nil {
		return 0, stats, e.broken
	}
	start := time.Now()
	o := &writeOps[op]
	if err := e.validateBatch(delta, o.verb); err != nil {
		return 0, stats, err
	}
	validated := time.Now()
	clonesBefore := e.inst.CloneStats()
	var seed deltas
	changed := 0
	for _, name := range delta.Names() {
		src := delta.Relation(name)
		// Probe before the write barrier: a batch that changes nothing in
		// this relation must not clone its frozen storage.
		if !changes(e.inst.Relation(name), src, o.present) {
			continue
		}
		if seed.ins == nil {
			seed = deltas{map[string][]window{}, map[string][]int{}}
		}
		changed += o.step(seed, name, e.inst.Ensure(name, src.Arity), src)
	}
	applied := time.Now()
	if changed == 0 {
		// The all-skipped fast path allocates no maintenance state.
		stats.Skipped = len(e.prep.comps)
	} else {
		m := &maintenance{e: e, deltas: seed}
		derivedBefore := e.derived
		if err := m.run(); err != nil {
			e.broken = fmt.Errorf("engine: maintenance failed, materialization is partial: %w", err)
			return changed, stats, e.broken
		}
		stats = m.stats
		stats.Derived = e.derived - derivedBefore
		e.plans.add(stats.Plans)
		compacting := time.Now()
		e.compactTombstoned()
		stats.Compact = time.Since(compacting)
	}
	stats.Validate, stats.Barrier = validated.Sub(start), applied.Sub(validated)
	stats.Clones = e.inst.CloneStats().Sub(clonesBefore)
	e.writes[op]++
	return changed, stats, nil
}

// Assert inserts a batch of new EDB facts and incrementally restores
// the fixpoint: the inserted facts seed the semi-naive delta, so the
// cost scales with the batch's consequences, not with the size of the
// materialization, and components reading no changed relation are
// skipped. A component that negates a changed relation is maintained
// by targeted delete-and-rederive (AssertStats.Overdeleted/Rederived),
// its net deletions cascading to later components exactly like a
// Retract's.
//
// Facts may only be asserted into relations the program does not
// define (non-IDB relations); arities must agree with the program and
// the materialization. Already-present facts are dropped silently. On
// error the engine may hold a partial materialization and refuses
// further use, returning the same error from every later call.
func (e *Engine) Assert(delta *instance.Instance) (AssertStats, error) {
	n, st, err := e.write(assertOp, delta)
	return AssertStats{n, st}, err
}

// Retract removes a batch of EDB facts and incrementally restores the
// fixpoint by delete-and-rederive: the downward closure of the
// retracted facts is overdeleted component by component, facts with
// surviving alternative derivations are restored, and derivations that
// were blocked only by a removed fact (negation) are added. Assert's
// boundaries apply (derived facts disappear when their support does,
// not by request); facts not present are dropped silently.
func (e *Engine) Retract(delta *instance.Instance) (RetractStats, error) {
	n, st, err := e.write(retractOp, delta)
	return RetractStats{n, st}, err
}

// compactTombstoned reclaims tombstoned positions after a maintenance
// run, amortized: a relation is compacted in place once tombstones
// exceed a quarter of its live size, so a long retract series pays
// O(live) compaction only every Θ(live/4) deletions, and a single
// small retraction from a large materialization pays nothing. Frozen
// relations are skipped this round — they are snapshot-shared and
// immutable; the write barrier's position-preserving clone carries
// their tombstones over, and a later pass here (or an explicit
// Clone, which always compacts) reclaims them once the clone is
// written and the threshold trips.
func (e *Engine) compactTombstoned() {
	for _, name := range e.inst.Names() {
		r := e.inst.Relation(name)
		if r.Frozen() {
			continue
		}
		if t := r.Tombstones(); t > 0 && t*4 > r.Len() {
			r.Compact()
		}
	}
}
