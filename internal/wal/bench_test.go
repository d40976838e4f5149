package wal_test

import (
	"fmt"
	"testing"

	"seqlog/internal/instance"
	"seqlog/internal/value"
	"seqlog/internal/wal"
)

// buildHistory writes a load plus n assert records into dir, cutting a
// checkpoint after ckptAt records when ckptAt > 0. The workload keeps
// the derived state bounded (edges over 64 nodes, so the closure
// saturates) so the benchmark measures recovery machinery, not an
// ever-growing fixpoint.
func buildHistory(b *testing.B, dir string, n, ckptAt int) {
	b.Helper()
	h := &replayHandler{}
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncNever, CheckpointRecords: -1}, h)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	appendApply := func(rec wal.Record) {
		b.Helper()
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
		if err := h.Replay(rec); err != nil {
			b.Fatal(err)
		}
	}
	appendApply(wal.Record{Op: wal.OpLoad, Program: tcSrc + "D($x) :- F($x).\n"})
	for i := 0; i < n; i++ {
		batch := instance.New()
		batch.AddPath("E", value.PathOf(fmt.Sprintf("n%d", i%64), fmt.Sprintf("n%d", (i+1)%64)))
		batch.AddPath("F", value.PathOf("f", fmt.Sprint(i)))
		appendApply(wal.Record{Op: wal.OpAssert, Batch: batch})
		if ckptAt > 0 && i+1 == ckptAt {
			edb, err := h.Engine().EDBSnapshot()
			if err != nil {
				b.Fatal(err)
			}
			if err := l.Checkpoint(h.Source(), edb); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRecovery contrasts the two recovery paths over the same
// 512-record history: full-log replay vs newest checkpoint plus a
// short tail. The gap is the return on checkpoint frequency.
func BenchmarkRecovery(b *testing.B) {
	const n = 512
	for _, tc := range []struct {
		name   string
		ckptAt int
	}{
		{fmt.Sprintf("replay/n=%d", n), 0},
		{fmt.Sprintf("checkpoint-tail/n=%d", n), n - 32},
	} {
		dir := b.TempDir()
		buildHistory(b, dir, n, tc.ckptAt)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := &replayHandler{}
				l, err := wal.Open(dir, wal.Options{}, h)
				if err != nil {
					b.Fatal(err)
				}
				if got := l.Recovery().RecordsReplayed; tc.ckptAt == 0 && got != n+1 {
					b.Fatalf("replayed %d records, want %d", got, n+1)
				}
				l.Close()
			}
		})
	}
}
