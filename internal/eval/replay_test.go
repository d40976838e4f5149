package eval

import (
	"testing"

	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/value"
	"seqlog/internal/wal"
)

// TestEDBSnapshotReconstructsEngine: feeding EDBSnapshot back to
// NewEngine must reproduce the exact materialization — including IDB
// seed facts, which are base facts even though their relation is
// program-defined — after a history of asserts and retracts.
func TestEDBSnapshotReconstructsEngine(t *testing.T) {
	prog, err := parser.ParseProgram("T(@x.@y) :- E(@x.@y).\nT(@x.@z) :- T(@x.@y), E(@y.@z).\n")
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	edb := instance.New()
	edb.AddPath("E", value.PathOf("a", "b"))
	edb.AddPath("T", value.PathOf("seed", "fact")) // IDB seed: base, not derived
	eng, err := NewEngine(prep, edb, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	assert := func(facts string) {
		t.Helper()
		if _, err := eng.Assert(parser.MustParseInstance(facts)); err != nil {
			t.Fatal(err)
		}
	}
	assert("E(b.c). E(c.d).")
	if _, err := eng.Retract(parser.MustParseInstance("E(a.b).")); err != nil {
		t.Fatal(err)
	}
	assert("E(a.b).")

	snap, err := eng.EDBSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Relation("T") == nil || snap.Relation("T").Len() != 1 {
		t.Fatalf("EDBSnapshot must carry exactly the IDB seed facts, got %v", snap.Relation("T"))
	}
	rebuilt, err := NewEngine(prep, snap, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := eng.Snapshot()
	got, _ := rebuilt.Snapshot()
	if d := instance.Diff(got, want); d != "" {
		t.Fatalf("rebuilt engine differs: %s", d)
	}
	// The snapshot is frozen state: the original engine keeps working.
	assert("E(d.e).")
}

// TestReplayerMatchesLiveEngine: the Replayer applied to a logged
// history (load, asserts, retracts) lands on the same state as the
// live engine that produced it.
func TestReplayerMatchesLiveEngine(t *testing.T) {
	src := "T(@x.@y) :- E(@x.@y).\nT(@x.@z) :- T(@x.@y), E(@y.@z).\nN($x) :- M($x), !T($x).\n"
	prog, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	live, err := NewEngine(prep, nil, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var rep Replayer
	if err := rep.Load(src); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		retract bool
		facts   string
	}{
		{false, "E(a.b). M(a.b)."},
		{false, "E(b.c)."},
		{true, "E(a.b)."},
		{false, "E(a.b). M(zz)."},
		{true, "M(zz). E(b.c)."},
	}
	for i, st := range steps {
		batch := parser.MustParseInstance(st.facts)
		var liveErr, repErr error
		if st.retract {
			_, liveErr = live.Retract(batch)
			repErr = rep.Retract(parser.MustParseInstance(st.facts))
		} else {
			_, liveErr = live.Assert(batch)
			repErr = rep.Assert(parser.MustParseInstance(st.facts))
		}
		if liveErr != nil || repErr != nil {
			t.Fatalf("step %d: live=%v replay=%v", i, liveErr, repErr)
		}
		want, _ := live.Snapshot()
		got, err := rep.Engine().Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if d := instance.Diff(got, want); d != "" {
			t.Fatalf("step %d: replayer diverges: %s", i, d)
		}
	}
	if rep.Source() != src || rep.Engine().Prepared() == nil {
		t.Fatal("replayer must retain the recovered program")
	}
}

// TestReplayerGuards: batches before any load are an error (a WAL
// cannot legitimately start with one), and Engine is nil until then.
func TestReplayerGuards(t *testing.T) {
	var rep Replayer
	if rep.Engine() != nil {
		t.Fatal("fresh replayer has no engine")
	}
	if err := rep.Assert(instance.New()); err == nil {
		t.Fatal("assert before load must fail")
	}
	if err := rep.Retract(instance.New()); err == nil {
		t.Fatal("retract before load must fail")
	}
	if err := rep.Load("T($x :- broken"); err == nil {
		t.Fatal("unparseable program must fail")
	}
	// Apply takes write batches only; a load record is the Replayer's.
	if err := rep.Load("T($x) :- E($x).\n"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rep.Engine().Apply(wal.Record{Op: wal.OpLoad, Program: "T($x) :- E($x).\n"}); err == nil {
		t.Fatal("Apply of a load record must fail")
	}
}
