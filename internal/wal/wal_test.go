package wal_test

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"seqlog/internal/eval"
	"seqlog/internal/fuzztest"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/value"
	"seqlog/internal/wal"
	"seqlog/internal/wal/walfault"
)

// replayHandler is the daemon's recovery handler, an eval.Replayer,
// plus the tests' snapshot helper.
type replayHandler struct{ eval.Replayer }

func (h *replayHandler) snapshot(t *testing.T) *instance.Instance {
	t.Helper()
	snap, err := h.Engine().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func stepRecord(st fuzztest.Step) wal.Record {
	op := wal.OpAssert
	if st.Retract {
		op = wal.OpRetract
	}
	return wal.Record{Op: op, Batch: fuzztest.Batch(st.Facts)}
}

// mustOpen opens a log over a fresh replayHandler, failing the test on
// error.
func mustOpen(t *testing.T, dir string, opts wal.Options) (*wal.Log, *replayHandler) {
	t.Helper()
	h := &replayHandler{}
	l, err := wal.Open(dir, opts, h)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l, h
}

const tcSrc = "T(@x.@y) :- E(@x.@y).\nT(@x.@z) :- T(@x.@y), E(@y.@z).\n"

func factBatch(rel string, paths ...value.Path) *instance.Instance {
	inst := instance.New()
	for _, p := range paths {
		inst.AddPath(rel, p)
	}
	return inst
}

// TestWALRecoveryRoundTrip: a load plus a few batches written, closed,
// and recovered lands on the same materialization the live engine had.
func TestWALRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, h := mustOpen(t, dir, wal.Options{Sync: wal.SyncAlways})

	appendApply := func(rec wal.Record) {
		t.Helper()
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := h.Replay(rec); err != nil {
			t.Fatal(err)
		}
	}
	appendApply(wal.Record{Op: wal.OpLoad, Program: tcSrc})
	appendApply(wal.Record{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("a", "b"), value.PathOf("b", "c"))})
	appendApply(wal.Record{Op: wal.OpRetract, Batch: factBatch("E", value.PathOf("a", "b"))})
	appendApply(wal.Record{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("c", "d"))})
	want := h.snapshot(t)
	if l.Records() != 4 || l.Bytes() == 0 {
		t.Fatalf("counters: records=%d bytes=%d", l.Records(), l.Bytes())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, h2 := mustOpen(t, dir, wal.Options{})
	defer l2.Close()
	rs := l2.Recovery()
	if rs.RecordsReplayed != 4 || rs.CheckpointGen != 0 || rs.TruncatedBytes != 0 || rs.ReplayErrors != 0 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	if d := instance.Diff(h2.snapshot(t), want); d != "" {
		t.Fatalf("recovered state diverges: %s", d)
	}
	if h2.Source() != tcSrc {
		t.Fatal("recovered program source lost")
	}
}

// crashPlan is one simulated crash: cut or corrupt the newest WAL file
// at a chosen byte.
type crashPlan struct {
	corrupt bool  // flip a byte instead of truncating
	at      int64 // offset within the newest WAL file
}

// runScenario drives a generated scenario through a live Replayer with
// WAL-first appends, returning the end offset within the current
// generation's file after each record and the generation it landed in.
func runScenario(t *testing.T, dir string, sc fuzztest.Scenario, ckptEvery int) (gens []int, ends []int64, lastGen int) {
	t.Helper()
	opts := wal.Options{Sync: wal.SyncAlways, CheckpointRecords: -1}
	l, h := mustOpen(t, dir, opts)
	defer l.Close()

	const magicLen = 8
	gen, genStart := 0, int64(0)
	appendApply := func(rec wal.Record) {
		t.Helper()
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := h.Replay(rec); err != nil {
			t.Fatal(err)
		}
		gens = append(gens, gen)
		ends = append(ends, magicLen+l.Bytes()-genStart)
	}
	appendApply(wal.Record{Op: wal.OpLoad, Program: sc.Src})
	for i, st := range sc.Steps {
		appendApply(stepRecord(st))
		if ckptEvery > 0 && (i+1)%ckptEvery == 0 {
			edb, err := h.Engine().EDBSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Checkpoint(h.Source(), edb); err != nil {
				t.Fatal(err)
			}
			gen++
			genStart = l.Bytes()
		}
	}
	return gens, ends, gen
}

// wantAfter computes the reference materialization after the first k
// records (record 0 is the load) by from-scratch evaluation over a
// shadow EDB.
func wantAfter(t *testing.T, sc fuzztest.Scenario, k int) *instance.Instance {
	t.Helper()
	prog, err := parser.ParseProgram(sc.Src)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := eval.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	sh := fuzztest.NewShadow()
	for i := 0; i < k-1; i++ {
		sh.Apply(sc.Steps[i])
	}
	want, err := prep.Eval(sh.EDB(), eval.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// crashRecoverySeed replays one generated history with WAL-first
// appends, crashes it by truncating or corrupting the newest WAL file
// at an arbitrary byte (record boundaries and mid-record alike), and
// checks the recovered engine is Diff-identical to a from-scratch
// evaluation of exactly the records that survived the damage.
func crashRecoverySeed(t *testing.T, seed int64, ckptEvery int) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	sc := fuzztest.GenScenario(r)
	dir := t.TempDir()
	gens, ends, lastGen := runScenario(t, dir, sc, ckptEvery)

	newest := filepath.Join(dir, fmt.Sprintf("wal-%08d.log", lastGen))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	const magicLen = 8
	plan := crashPlan{corrupt: r.Intn(2) == 1, at: magicLen + r.Int63n(int64(len(data))-magicLen+1)}
	if plan.corrupt && plan.at >= int64(len(data)) {
		plan.corrupt = false // nothing to flip past the end
	}
	if plan.corrupt {
		data[plan.at] ^= 0x5a
		if err := os.WriteFile(newest, data, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := os.Truncate(newest, plan.at); err != nil {
			t.Fatal(err)
		}
	}

	// Surviving records: everything in older generations (subsumed by
	// the newest checkpoint) plus the newest file's records that end at
	// or before the damage point. A corrupted byte kills the record
	// whose frame contains it and everything after.
	k := 0
	for i := range ends {
		if gens[i] < lastGen || ends[i] <= plan.at {
			k++
		}
	}

	l2, h2 := mustOpen(t, dir, wal.Options{CheckpointRecords: -1})
	defer l2.Close()
	rs := l2.Recovery()
	if h2.Engine() == nil {
		if k != 0 {
			t.Fatalf("seed %d ckpt=%d %+v: recovery empty, want %d records\n%s%s",
				seed, ckptEvery, plan, k, sc.Src, sc.History(len(sc.Steps)-1))
		}
		return
	}
	if d := instance.Diff(h2.snapshot(t), wantAfter(t, sc, k)); d != "" {
		t.Fatalf("seed %d ckpt=%d %+v (recovered %d ckpt-gen %d, want %d records): %s\n%s%s",
			seed, ckptEvery, plan, rs.RecordsReplayed, rs.CheckpointGen, k, d, sc.Src, sc.History(len(sc.Steps)-1))
	}

	// The recovered log must keep working: append the remaining steps
	// and land on the history's true final state.
	for i := k - 1; i < len(sc.Steps); i++ {
		if i < 0 {
			continue
		}
		rec := stepRecord(sc.Steps[i])
		if err := l2.Append(rec); err != nil {
			t.Fatalf("seed %d: append after recovery: %v", seed, err)
		}
		if err := h2.Replay(rec); err != nil {
			t.Fatalf("seed %d: apply after recovery: %v", seed, err)
		}
	}
	if d := instance.Diff(h2.snapshot(t), wantAfter(t, sc, len(sc.Steps)+1)); d != "" {
		t.Fatalf("seed %d: resumed history diverges: %s", seed, d)
	}
}

// TestCrashRecoveryDifferential fuzzes crash recovery over the same
// randomized histories the maintenance fuzzer uses, without
// checkpoints: the whole log replays from the start.
func TestCrashRecoveryDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		crashRecoverySeed(t, int64(seed), 0)
	}
}

// TestCrashRecoveryCheckpointed is the same differential with a
// checkpoint cut every few records, so recovery exercises the
// snapshot-plus-tail path and generation rotation.
func TestCrashRecoveryCheckpointed(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	for seed := 0; seed < seeds; seed++ {
		crashRecoverySeed(t, int64(seed), 3)
	}
}

// TestReplayReassignsStampsIdentically: derivation stamps are never
// serialized — recovery re-derives them by replaying the logged
// operations through the same engine paths (see docs/durability.md).
// A full-log replay must land on exactly the live engine's stamp
// assignment, fact for fact. A checkpointed recovery restores from an
// EDB snapshot (a fresh initial fixpoint, so absolute births
// legitimately differ from the live engine's accumulated history) but
// must itself be deterministic: two recoveries from the same log agree
// stamp for stamp.
func TestReplayReassignsStampsIdentically(t *testing.T) {
	stampsOf := func(h *replayHandler) map[string]uint64 {
		snap := h.snapshot(t)
		out := map[string]uint64{}
		for _, name := range snap.Names() {
			r := snap.Relation(name)
			for pos := 0; pos < r.Size(); pos++ {
				if r.Live(pos) {
					out[name+" "+r.TupleAt(pos).String()] = r.StampAt(pos)
				}
			}
		}
		return out
	}
	diff := func(a, b map[string]uint64) string {
		for k, v := range a {
			if b[k] != v {
				return fmt.Sprintf("%s: stamp %#x vs %#x", k, v, b[k])
			}
		}
		if len(a) != len(b) {
			return fmt.Sprintf("fact counts differ: %d vs %d", len(a), len(b))
		}
		return ""
	}
	noCkpt := wal.Options{Sync: wal.SyncAlways, CheckpointRecords: -1}
	for seed := int64(0); seed < 8; seed++ {
		sc := fuzztest.GenScenario(rand.New(rand.NewSource(seed)))

		dir := t.TempDir()
		l, h := mustOpen(t, dir, noCkpt)
		recs := []wal.Record{{Op: wal.OpLoad, Program: sc.Src}}
		for _, st := range sc.Steps {
			recs = append(recs, stepRecord(st))
		}
		for _, rec := range recs {
			if err := l.Append(rec); err != nil {
				t.Fatal(err)
			}
			if err := h.Replay(rec); err != nil {
				t.Fatal(err)
			}
		}
		live := stampsOf(h)
		l.Close()

		l2, h2 := mustOpen(t, dir, noCkpt)
		if d := diff(live, stampsOf(h2)); d != "" {
			t.Fatalf("seed %d: full-log replay reassigned different stamps: %s\n%s", seed, d, sc.Src)
		}
		l2.Close()

		dir2 := t.TempDir()
		runScenario(t, dir2, sc, 3)
		l3, h3 := mustOpen(t, dir2, noCkpt)
		first := stampsOf(h3)
		l3.Close()
		l4, h4 := mustOpen(t, dir2, noCkpt)
		if d := diff(first, stampsOf(h4)); d != "" {
			t.Fatalf("seed %d: checkpointed recovery not stamp-deterministic: %s\n%s", seed, d, sc.Src)
		}
		l4.Close()
	}
}

// TestCheckpointFallbackRecovery: a corrupted newest checkpoint is
// skipped and recovery falls back to the previous generation, replaying
// both WAL files it subsumes.
func TestCheckpointFallbackRecovery(t *testing.T) {
	dir := t.TempDir()
	sc := fuzztest.GenScenario(rand.New(rand.NewSource(7)))
	runScenario(t, dir, sc, 4)

	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	sort.Strings(ckpts)
	if len(ckpts) == 0 {
		t.Fatal("no checkpoints written")
	}
	newest := ckpts[len(ckpts)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l, h := mustOpen(t, dir, wal.Options{})
	defer l.Close()
	rs := l.Recovery()
	if rs.CheckpointsSkipped != 1 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	if d := instance.Diff(h.snapshot(t), wantAfter(t, sc, len(sc.Steps)+1)); d != "" {
		t.Fatalf("fallback recovery diverges: %s", d)
	}
}

// TestCheckpointRetention: repeated checkpoints keep exactly the
// current and the immediately previous generation on disk.
func TestCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	l, h := mustOpen(t, dir, wal.Options{Sync: wal.SyncNever, CheckpointRecords: -1})
	defer l.Close()
	rec := wal.Record{Op: wal.OpLoad, Program: tcSrc}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := h.Replay(rec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		rec := wal.Record{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("n", fmt.Sprint(i)))}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := h.Replay(rec); err != nil {
			t.Fatal(err)
		}
		edb, err := h.Engine().EDBSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Checkpoint(h.Source(), edb); err != nil {
			t.Fatal(err)
		}
	}
	if l.Checkpoints() != 4 {
		t.Fatalf("checkpoints=%d", l.Checkpoints())
	}
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var base []string
	for _, n := range names {
		base = append(base, filepath.Base(n))
	}
	sort.Strings(base)
	want := []string{
		"checkpoint-00000003.ckpt", "checkpoint-00000004.ckpt",
		"wal-00000003.log", "wal-00000004.log",
	}
	if strings.Join(base, " ") != strings.Join(want, " ") {
		t.Fatalf("retained files: %v, want %v", base, want)
	}

	l2, h2 := mustOpen(t, dir, wal.Options{})
	defer l2.Close()
	if l2.Recovery().CheckpointGen != 4 {
		t.Fatalf("recovery stats: %+v", l2.Recovery())
	}
	if d := instance.Diff(h2.snapshot(t), h.snapshot(t)); d != "" {
		t.Fatalf("recovered state diverges: %s", d)
	}
}

// TestTornTailRecoveryContinues: after truncating mid-record, recovery
// reports the cut, the log accepts new appends at the truncation
// point, and the next recovery sees old prefix + new records.
func TestTornTailRecoveryContinues(t *testing.T) {
	dir := t.TempDir()
	l, h := mustOpen(t, dir, wal.Options{Sync: wal.SyncAlways})
	for _, rec := range []wal.Record{
		{Op: wal.OpLoad, Program: tcSrc},
		{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("a", "b"))},
		{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("b", "c"))},
	} {
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := h.Replay(rec); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	path := filepath.Join(dir, "wal-00000000.log")
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil { // torn mid-record
		t.Fatal(err)
	}

	l2, h2 := mustOpen(t, dir, wal.Options{Sync: wal.SyncAlways})
	rs := l2.Recovery()
	if rs.RecordsReplayed != 2 || rs.TruncatedBytes == 0 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	rec := wal.Record{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("c", "d"))}
	if err := l2.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := h2.Replay(rec); err != nil {
		t.Fatal(err)
	}
	want := h2.snapshot(t)
	l2.Close()

	l3, h3 := mustOpen(t, dir, wal.Options{})
	defer l3.Close()
	if rs := l3.Recovery(); rs.RecordsReplayed != 3 || rs.TruncatedBytes != 0 {
		t.Fatalf("second recovery stats: %+v", rs)
	}
	if d := instance.Diff(h3.snapshot(t), want); d != "" {
		t.Fatalf("state after torn-tail append diverges: %s", d)
	}
}

// TestFaultInjectionReadonly: an injected mid-record write failure
// makes the log sticky-fail (the daemon's readonly signal), and
// recovery truncates the torn record — acknowledged records survive,
// the torn one does not.
func TestFaultInjectionReadonly(t *testing.T) {
	for _, failAfter := range []int64{20, 45, 61, 80} {
		dir := t.TempDir()
		var fw *walfault.Writer
		opts := wal.Options{Sync: wal.SyncAlways, WrapWriter: func(w io.Writer) io.Writer {
			fw = &walfault.Writer{W: w, FailAfter: failAfter}
			return fw
		}}
		l, h := mustOpen(t, dir, opts)
		var acked int
		recs := []wal.Record{
			{Op: wal.OpLoad, Program: tcSrc},
			{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("a", "b"))},
			{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("b", "c"))},
			{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("c", "d"))},
		}
		var failed error
		for _, rec := range recs {
			if err := l.Append(rec); err != nil {
				failed = err
				break
			}
			if err := h.Replay(rec); err != nil {
				t.Fatal(err)
			}
			acked++
		}
		if failed == nil || !fw.Tripped() {
			t.Fatalf("failAfter=%d: fault did not fire (acked=%d)", failAfter, acked)
		}
		if l.Err() == nil {
			t.Fatalf("failAfter=%d: failure must be sticky", failAfter)
		}
		if err := l.Append(recs[len(recs)-1]); err == nil {
			t.Fatalf("failAfter=%d: append after failure must keep failing", failAfter)
		}
		l.Close()

		l2, h2 := mustOpen(t, dir, wal.Options{})
		if rs := l2.Recovery(); rs.RecordsReplayed != acked {
			t.Fatalf("failAfter=%d: recovered %d records, want %d (%+v)", failAfter, rs.RecordsReplayed, acked, rs)
		}
		if acked > 0 {
			if d := instance.Diff(h2.snapshot(t), h.snapshot(t)); d != "" {
				t.Fatalf("failAfter=%d: recovered state diverges: %s", failAfter, d)
			}
		}
		l2.Close()
	}
}

// TestSyncIntervalPolicy: under SyncInterval the sync happens on the
// first append past the deadline, driven by the injected clock.
func TestSyncIntervalPolicy(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	opts := wal.Options{Sync: wal.SyncInterval, SyncEvery: 50 * time.Millisecond,
		Now: func() time.Time { return now }}
	l, _ := mustOpen(t, dir, opts)
	defer l.Close()
	if err := l.Append(wal.Record{Op: wal.OpLoad, Program: tcSrc}); err != nil {
		t.Fatal(err)
	}
	now = now.Add(60 * time.Millisecond)
	if err := l.Append(wal.Record{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("a", "b"))}); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 2 {
		t.Fatalf("records=%d", l.Records())
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want wal.SyncPolicy
	}{{"always", wal.SyncAlways}, {"interval", wal.SyncInterval}, {"never", wal.SyncNever}} {
		got, err := wal.ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := wal.ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy must error")
	}
}

// steppingClock is a clock that advances one second on every read, so
// a duration measured on it counts the reads between its two ends.
func steppingClock() func() time.Time {
	now := time.Unix(1000, 0)
	return func() time.Time {
		now = now.Add(time.Second)
		return now
	}
}

// TestLogTimes pins the log's cumulative timings on a stepping clock:
// framing and writing a record is one step, a sync one more, a
// checkpoint one; under SyncInterval only the appends past the
// deadline sync.
func TestLogTimes(t *testing.T) {
	for _, tc := range []struct {
		sync            wal.SyncPolicy
		appendT, fsyncT time.Duration
	}{
		{wal.SyncAlways, 3 * time.Second, 3 * time.Second},
		// SyncEvery is 2.5 steps: the first and the third append sync.
		{wal.SyncInterval, 3 * time.Second, 2 * time.Second},
		{wal.SyncNever, 3 * time.Second, 0},
	} {
		t.Run(tc.sync.String(), func(t *testing.T) {
			l, _ := mustOpen(t, t.TempDir(), wal.Options{Sync: tc.sync, SyncEvery: 2500 * time.Millisecond, Now: steppingClock()})
			defer l.Close()
			for _, rec := range []wal.Record{
				{Op: wal.OpLoad, Program: tcSrc},
				{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("a", "b"))},
				{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("b", "c"))},
			} {
				if err := l.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Checkpoint(tcSrc, instance.New()); err != nil {
				t.Fatal(err)
			}
			if a, f, c := l.Times(); a != tc.appendT || f != tc.fsyncT || c != time.Second {
				t.Fatalf("Times() = %v, %v, %v; want %v, %v, 1s", a, f, c, tc.appendT, tc.fsyncT)
			}
		})
	}
}

// TestRecoveryTimes pins recovery's timings on a stepping clock:
// decode counts every checkpoint tried (the corrupt newest one too),
// restore the one restored, replay each WAL file of the chain.
func TestRecoveryTimes(t *testing.T) {
	dir := t.TempDir()
	l, h := mustOpen(t, dir, wal.Options{Sync: wal.SyncNever, CheckpointRecords: -1})
	appendApply := func(rec wal.Record) {
		t.Helper()
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := h.Replay(rec); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := func() {
		t.Helper()
		edb, err := h.Engine().EDBSnapshot()
		if err == nil {
			err = l.Checkpoint(h.Source(), edb)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	appendApply(wal.Record{Op: wal.OpLoad, Program: tcSrc})
	appendApply(wal.Record{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("a", "b"))})
	checkpoint() // generation 1
	appendApply(wal.Record{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("b", "c"))})
	checkpoint() // generation 2
	appendApply(wal.Record{Op: wal.OpAssert, Batch: factBatch("E", value.PathOf("c", "d"))})
	want := h.snapshot(t)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, "checkpoint-00000002.ckpt")
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, h2 := mustOpen(t, dir, wal.Options{Now: steppingClock()})
	defer l2.Close()
	rs := l2.Recovery()
	if rs.CheckpointGen != 1 || rs.CheckpointsSkipped != 1 || rs.RecordsReplayed != 2 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	if rs.Decode != 2*time.Second || rs.Restore != time.Second || rs.Replay != 2*time.Second {
		t.Fatalf("decode %v, restore %v, replay %v; want 2s, 1s, 2s", rs.Decode, rs.Restore, rs.Replay)
	}
	if d := instance.Diff(h2.snapshot(t), want); d != "" {
		t.Fatalf("recovered state diverges: %s", d)
	}
}

// TestRecoverFormatFixture recovers a log directory written by an
// earlier build of this module and checked in under testdata/format:
// the on-disk format must read back whatever the in-memory
// representation of values becomes. The directory holds generation 0's
// WAL (a load and an assert, kept as the fallback), checkpoint 1 (the
// program and those base facts) and generation 1's WAL (an assert and
// a retract). Its facts hold quoted atoms, the empty atom, the atom
// 'eps', nested packed values and <eps>.
func TestRecoverFormatFixture(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal-00000000.log", "checkpoint-00000001.ckpt", "wal-00000001.log"} {
		b, err := os.ReadFile(filepath.Join("testdata", "format", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, h := mustOpen(t, dir, wal.Options{})
	defer l.Close()
	if rs := l.Recovery(); rs.CheckpointGen != 1 || rs.RecordsReplayed != 2 || rs.ReplayErrors != 0 || rs.TruncatedBytes != 0 || rs.CheckpointsSkipped != 0 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	if src := h.Source(); src != "S($x) :- R($x).\nP(<$x>, $y) :- R($x), Q($y, $z).\n" {
		t.Fatalf("recovered program %q", src)
	}
	want := parser.MustParseInstance(`
R(a.'a b'.''). R(<a.<'it\'s'.<''>>>.'x.y'). R(<<eps>>.''.<''>).
Q('<', '>'.<'a.b'.<eps>>). Q(<eps>, 'not'.'é').
S(a.'a b'.''). S(<a.<'it\'s'.<''>>>.'x.y'). S(<<eps>>.''.<''>).
P(<a.'a b'.''>, '<'). P(<a.'a b'.''>, <eps>).
P(<<a.<'it\'s'.<''>>>.'x.y'>, '<'). P(<<a.<'it\'s'.<''>>>.'x.y'>, <eps>).
P(<<<eps>>.''.<''>>, '<'). P(<<<eps>>.''.<''>>, <eps>).`)
	if d := instance.Diff(h.snapshot(t), want); d != "" {
		t.Fatalf("recovered state diverges: %s", d)
	}
}
