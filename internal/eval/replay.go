package eval

import (
	"fmt"

	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/wal"
)

// This file is the replay entry point of the durability layer
// (internal/wal): recovery reconstructs an engine by re-running the
// same deterministic maintenance that produced the state in the first
// place. A checkpoint or a load restores through FromSource and every
// logged batch replays through Engine.Apply, the same two calls the
// daemon's live load and write paths make — there is no second
// evaluation semantics to drift from, which is what makes recovered
// state instance.Diff-identical to a from-scratch evaluation of the
// accepted history.

// Err returns the engine's sticky maintenance failure, or nil. A
// non-nil error means a previous Assert/Retract left the
// materialization partial: every evaluation and read call returns this
// same error. The serving layer checks it before logging a write so a
// doomed batch is not appended to the WAL first.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.broken
}

// EDBSnapshot returns an immutable copy-on-write snapshot holding the
// engine's base facts only: every relation the program does not define
// (the asserted/loaded EDB) plus the frozen seed relations of IDB
// relations that had facts in the initial EDB. Feeding the result to
// NewEngine with the same Prepared reconstructs the engine's exact
// materialization — derived facts are a deterministic function of the
// base facts, so they are recomputed, not serialized. This is what a
// durability checkpoint stores.
func (e *Engine) EDBSnapshot() (*instance.Instance, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.broken != nil {
		return nil, e.broken
	}
	snap := e.inst.Snapshot()
	out := instance.New()
	for _, name := range snap.Names() {
		if !e.prep.idb[name] {
			out.Put(name, snap.Relation(name)) // frozen by the snapshot
		}
	}
	for name, seed := range e.seeds {
		out.Put(name, seed) // frozen since NewEngine
	}
	return out, nil
}

// Replayer rebuilds engine state from a durability log. It is the
// wal.Handler wired to the evaluator: Restore applies the newest valid
// checkpoint, Replay applies logged records in order. Zero value is
// ready; methods are not safe for concurrent use (recovery is
// single-threaded by nature).
type Replayer struct {
	// Limits bound every engine the replay constructs, exactly as they
	// bound the engine whose history is being replayed.
	Limits Limits

	src string
	eng *Engine
}

// FromSource turns program text and an EDB (nil for empty) into a
// fresh engine: parse without validating (safety and stratification
// problems surface as Compile's *analyze.DiagError, not as one opaque
// parse error), compile, run the initial fixpoint. Errors come back
// unwrapped. It is the one text-to-engine path: the daemon's load and
// Replayer.Restore both call it.
func FromSource(src string, edb *instance.Instance, lim Limits) (*Engine, error) {
	prog, _, err := parser.ParseProgramForAnalysis(src)
	if err != nil {
		return nil, err
	}
	prep, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	return NewEngine(prep, edb, lim)
}

// Apply runs one logged write batch: an OpAssert record as Assert, an
// OpRetract record as Retract. It returns the number of facts the batch
// changed and the maintenance stats. It is the one dispatch from a
// record to maintenance: the daemon's write path and Replayer.Replay
// both call it, so replay is the live path by construction.
func (e *Engine) Apply(rec wal.Record) (int, MaintenanceStats, error) {
	switch rec.Op {
	case wal.OpAssert:
		return e.write(assertOp, rec.Batch)
	case wal.OpRetract:
		return e.write(retractOp, rec.Batch)
	}
	return 0, MaintenanceStats{}, fmt.Errorf("eval: a %s record is not a write batch", rec.Op)
}

// Restore installs a fresh engine for src over edb (nil for empty),
// replacing any previous engine. It is both the checkpoint entry point
// (src + the checkpointed EDB) and the foundation of Load, which
// carries the previous engine's EDB forward.
func (r *Replayer) Restore(src string, edb *instance.Instance) error {
	eng, err := FromSource(src, edb, r.Limits)
	if err != nil {
		return err
	}
	r.src, r.eng = src, eng
	return nil
}

// CarryEDB decides what a program (re)load carries over from the
// engine it replaces: prev's EDB snapshot (its non-IDB relations plus
// frozen IDB seeds) and the number of facts in it, so a program upgrade
// keeps the live fact base instead of dropping it. With no previous
// healthy engine (nil, or broken — a partial materialization is not a
// fact base) the load starts empty: (nil, 0). Snapshots share storage
// with prev, so the carry copies no tuples.
//
// This is the one carry rule: the daemon's live load and WAL replay
// (Replayer.Load) both call it, which is what keeps recovery
// equivalent to the acked live history — an OpLoad record stores only
// the program text, and both sides reconstruct the carried EDB from the
// engine state the preceding records produced.
func CarryEDB(prev *Engine) (*instance.Instance, int) {
	if prev == nil {
		return nil, 0
	}
	snap, err := prev.EDBSnapshot()
	if err != nil { // only ever prev's sticky maintenance failure
		return nil, 0
	}
	return snap, snap.Facts()
}

// Load replays a logged load record: a fresh engine for src seeded
// with what CarryEDB carries over from the previous one, exactly as the
// live protocol does. On any error (parse, compile, initial fixpoint —
// e.g. an arity clash between the new program and a carried relation)
// the previous engine stays installed.
func (r *Replayer) Load(src string) error {
	edb, _ := CarryEDB(r.eng)
	return r.Restore(src, edb)
}

// Replay applies one logged record: a load through Load, a batch
// through Engine.Apply.
func (r *Replayer) Replay(rec wal.Record) error {
	if rec.Op == wal.OpLoad {
		return r.Load(rec.Program)
	}
	if r.eng == nil {
		return fmt.Errorf("replay: %s before any load record", rec.Op)
	}
	_, _, err := r.eng.Apply(rec)
	return err
}

// Assert replays a logged assert batch.
func (r *Replayer) Assert(batch *instance.Instance) error {
	return r.Replay(wal.Record{Op: wal.OpAssert, Batch: batch})
}

// Retract replays a logged retract batch.
func (r *Replayer) Retract(batch *instance.Instance) error {
	return r.Replay(wal.Record{Op: wal.OpRetract, Batch: batch})
}

// Engine returns the recovered engine, nil when no load or checkpoint
// was replayed.
func (r *Replayer) Engine() *Engine { return r.eng }

// Source returns the source text of the recovered program ("" when
// none): the serving layer re-logs it into the next checkpoint.
func (r *Replayer) Source() string { return r.src }
