package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"seqlog/internal/wal"
)

// TestSoakFreshValues is the long soak behind scripts/soak.sh, skipped
// unless SOAK_CYCLES is set. An in-process server with a WAL (no fsync)
// serves SOAK_CYCLES assert/retract cycles, each of a fresh atom and a
// fresh packed value, in ten slices. After each slice, once garbage is
// collected, HeapInuse and stats json's symbols must stay where they
// were after the first: within 2 MB, and within 1 % plus one atom.
func TestSoakFreshValues(t *testing.T) {
	cycles, _ := strconv.Atoi(os.Getenv("SOAK_CYCLES"))
	if cycles <= 0 {
		t.Skip("set SOAK_CYCLES to run the long soak (scripts/soak.sh)")
	}
	srv := newWALServer(t, t.TempDir(), wal.Options{Sync: wal.SyncNever})
	if out := run(t, srv, "load\nS($x) :- R($x).\nP($x) :- Q($x).\n.\n"); !strings.HasPrefix(out, "ok") {
		t.Fatalf("load: %s", out)
	}
	const slices = 10
	per := max(cycles/slices, 1)
	var heap0 uint64
	var syms0 int64
	for s := range slices {
		var script strings.Builder
		for i := s * per; i < (s+1)*per; i++ {
			facts := fmt.Sprintf("R(f%d). Q(<f%d.x>).", i, i)
			fmt.Fprintf(&script, "assert %s\nretract %s\n", facts, facts)
		}
		if out := run(t, srv, script.String()); strings.Contains(out, "err ") {
			reply, _, _ := strings.Cut(out[strings.Index(out, "err "):], "\n")
			t.Fatalf("slice %d: %s", s, reply)
		}
		heap, syms := settledServer(t, srv)
		t.Logf("after %d cycles: HeapInuse %.1f MB, %d symbols", (s+1)*per, float64(heap)/(1<<20), syms)
		if s == 0 {
			heap0, syms0 = heap, syms
		} else if heap > heap0+2<<20 || syms > syms0+syms0/100+1 {
			t.Fatalf("after %d cycles: HeapInuse %.1f MB and %d symbols, against %.1f MB and %d after the first slice",
				(s+1)*per, float64(heap)/(1<<20), syms, float64(heap0)/(1<<20), syms0)
		}
	}
}

// settledServer collects garbage, gives the cleanups that queues time
// to drop the reclaimed records from the intern tables, collects again,
// and reads HeapInuse and stats json's symbols.
func settledServer(t *testing.T, srv *server) (uint64, int64) {
	t.Helper()
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	line, _, _ := strings.Cut(run(t, srv, "stats json\n"), "\n")
	var stats struct{ Symbols int64 }
	if err := json.Unmarshal([]byte(line), &stats); err != nil {
		t.Fatalf("stats json: %v: %s", err, line)
	}
	return ms.HeapInuse, stats.Symbols
}
