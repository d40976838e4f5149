package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/value"
	"seqlog/internal/wal"
	"seqlog/internal/wal/walfault"
)

// run feeds a protocol script to a fresh server session and returns
// the full response text.
func run(t *testing.T, srv *server, script string) string {
	t.Helper()
	var out strings.Builder
	srv.serve(strings.NewReader(script), &out)
	return out.String()
}

func TestProtocolSession(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	got := run(t, srv, `load
T(@x.@y) :- E(@x.@y).
T(@x.@z) :- T(@x.@y), E(@y.@z).
.
assert E(a.b). E(b.c).
query T
assert E(c.d).
holds T
stats
quit
`)
	for _, want := range []string{
		"ok loaded",
		"ok asserted=2 derived=3 overdeleted=0 stamp_pruned=0 rederived=0 skipped=0 incremental=1",
		"T(a.b).\nT(a.c).\nT(b.c).\nok n=3",
		// Asserting c->d adds paths from a, b and c: three new facts.
		"ok asserted=1 derived=3 overdeleted=0 stamp_pruned=0 rederived=0 skipped=0 incremental=1",
		"ok true",
		"ok facts=9 derived=6 asserts=2 retracts=0",
		"ok bye",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("response missing %q:\n%s", want, got)
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	got := run(t, srv, "query T\n")
	if !strings.Contains(got, "err no program loaded") {
		t.Fatalf("query before load: %q", got)
	}
	got = run(t, srv, `load
S($x) :- R($x).
.
assert S(a).
query Nope
bogus
stats jsno
stats json extra
`)
	for _, want := range []string{
		"err eval: cannot assert IDB relation",
		"err eval: unknown output relation",
		"err unknown command",
		// stats takes no argument or "json", never a silent text reply.
		"err stats: unknown argument \"jsno\" (json)\n",
		"err stats: unknown argument \"json extra\" (json)\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("response missing %q:\n%s", want, got)
		}
	}
}

func TestConcurrentSessionsShareEngine(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	if out := run(t, srv, "load\nT(@x.@y) :- E(@x.@y).\nT(@x.@z) :- T(@x.@y), E(@y.@z).\n.\n"); !strings.Contains(out, "ok loaded") {
		t.Fatalf("load: %q", out)
	}
	// Writers assert disjoint chains while readers poll; all sessions
	// share the one engine, so the final closure has every chain.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var script strings.Builder
			for i := 0; i < 8; i++ {
				script.WriteString("assert E(w")
				script.WriteString(string(rune('a' + w)))
				script.WriteString(num(i))
				script.WriteString(".w")
				script.WriteString(string(rune('a' + w)))
				script.WriteString(num(i + 1))
				script.WriteString(").\nquery T\n")
			}
			out := run(t, srv, script.String())
			if strings.Contains(out, "err") {
				panic("session error: " + out)
			}
		}(w)
	}
	wg.Wait()
	st, err := srv.current()
	if err != nil {
		t.Fatal(err)
	}
	rel, err := st.engine.Query("T")
	if err != nil {
		t.Fatal(err)
	}
	// 4 chains of 8 edges: 8*9/2 closure facts each.
	if want := 4 * 8 * 9 / 2; rel.Len() != want {
		t.Fatalf("|T| = %d, want %d", rel.Len(), want)
	}
}

func num(i int) string { return string(rune('0'+i/10)) + string(rune('0'+i%10)) }

func TestLoadCarriesEDB(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	run(t, srv, "load\nS($x) :- R($x).\n.\nassert R(a).\n")
	got := run(t, srv, "load\nS($x) :- R($x). U($x) :- R($x).\n.\nquery S\nquery U\n")
	if !strings.Contains(got, "carried=1") {
		t.Fatalf("reload must report the carried fact count:\n%s", got)
	}
	// The carried EDB must re-derive under the new program, including
	// through rules the old program did not have.
	if strings.Count(got, "ok n=1") != 2 {
		t.Fatalf("carried facts must materialize under the new program:\n%s", got)
	}
}

func TestLoadFromEmptyCarriesNothing(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	got := run(t, srv, "load\nS($x) :- R($x).\n.\n")
	if !strings.Contains(got, "carried=0") {
		t.Fatalf("first load has nothing to carry:\n%s", got)
	}
}

// TestLoadCarryArityClashKeepsOldEngine: when the carried EDB is
// incompatible with the new program (here: R used at a different
// arity), the load must fail and the previous engine must keep
// serving untouched.
func TestLoadCarryArityClashKeepsOldEngine(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	run(t, srv, "load\nS($x) :- R($x).\n.\nassert R(a).\n")
	got := run(t, srv, "load\nS($x, $y) :- R($x, $y).\n.\nquery S\n")
	if !strings.Contains(got, "err") {
		t.Fatalf("arity clash with carried EDB must fail the load:\n%s", got)
	}
	if !strings.Contains(got, "ok n=1") {
		t.Fatalf("old engine must keep serving after a failed load:\n%s", got)
	}
}

// TestArityClashesAreErrRepliesNotPanics: client sequences that used to
// take the daemon down (or, under negation, answer wrongly) each get one
// err reply, and the same session then completes a query against the
// engine that was serving before.
func TestArityClashesAreErrRepliesNotPanics(t *testing.T) {
	deep := value.MaxPackingDepth + 1
	for _, tc := range []struct{ name, script, wantErr, wantAfter string }{
		{
			// One relation at two arities inside one batch: a panic out of
			// Instance.Add before ParseInstance checked.
			"mixed batch",
			"load\nS($x) :- T($x).\n.\nassert T(a).\nassert R(a, b). R(a).\nquery S\n",
			"err 1:10: relation R used with arity 1 here but arity 2 earlier in the batch",
			"S(a).\nok n=1",
		}, {
			// A carried relation the new program defines at another arity:
			// a panic in derive's Ensure once F(a, b) reached the head.
			"head",
			"load\nT($x) :- E($x).\n.\nassert E(a).\nload\nE($x, $y) :- F($x, $y).\n.\nassert F(a, b).\nquery T\n",
			`err eval: instance holds arity-1 tuples of relation "E" used with arity 2 by the program`,
			"T(a).\nok n=1",
		}, {
			// A carried relation the new program negates at another arity:
			// the probe never matched, so S(a) was derived.
			"negated",
			"load\nU($x) :- T($x).\n.\nassert T(a). R(a, b).\nload\nS($x) :- T($x), !R($x).\n.\nquery U\n",
			`err eval: instance holds arity-2 tuples of relation "R" used with arity 1 by the program`,
			"U(a).\nok n=1",
		}, {
			// Packing one level past the bound: the parser recursed once per
			// '<', and a few million levels overflowed the stack, which no
			// recover catches.
			"over-deep packing",
			"load\nS($x) :- T($x).\n.\nassert T(a).\nload\nT(" + strings.Repeat("<", deep) + "a" + strings.Repeat(">", deep) + ").\n.\nquery S\n",
			fmt.Sprintf("err 1:%d: packing nested deeper than %d", 2+deep, value.MaxPackingDepth),
			"S(a).\nok n=1",
		},
	} {
		got := run(t, &server{limits: eval.Limits{}}, tc.script)
		if strings.Count(got, "\nerr ") != 1 || !strings.Contains(got, tc.wantErr+"\n") {
			t.Errorf("%s: want exactly one err reply, %q:\n%s", tc.name, tc.wantErr, got)
		}
		if !strings.HasSuffix(got, tc.wantAfter+"\n") {
			t.Errorf("%s: the session must keep serving (%q last):\n%s", tc.name, tc.wantAfter, got)
		}
	}
}

func TestServerLoadWithInitialData(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	edb := instance.New()
	edb.AddPath("R", value.PathOf("a"))
	if _, _, err := srv.load("S($x) :- R($x).", edb); err != nil {
		t.Fatal(err)
	}
	got := run(t, srv, "query S\n")
	if !strings.Contains(got, "S(a).") || !strings.Contains(got, "ok n=1") {
		t.Fatalf("initial data not materialized:\n%s", got)
	}
}

func TestOversizedLineReportsError(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	run(t, srv, "load\nS($x) :- R($x).\n.\n")
	// A line beyond the scanner's 1 MB cap must produce an err reply,
	// not a silent session death.
	got := run(t, srv, "assert R("+strings.Repeat("a.", 1<<20)+"b).\n")
	if !strings.Contains(got, "err ") {
		t.Fatalf("oversized line died silently:\n%.200s", got)
	}
	// The same failure inside a load must reply exactly one err and
	// close the session: scanning on after a poisoned stream could
	// reinterpret buffered program text as protocol commands.
	got = run(t, srv, "load\n"+strings.Repeat("a", 2<<20)+"\nquit\n")
	if !strings.Contains(got, "err load:") {
		t.Fatalf("oversized load line must reply err load:\n%.200s", got)
	}
	if strings.Contains(got, "unknown command") || strings.Contains(got, "ok bye") {
		t.Fatalf("poisoned load stream kept being interpreted:\n%.300s", got)
	}
	if n := strings.Count(got, "\n"); n != 1 {
		t.Fatalf("want exactly one reply line, got %d:\n%.300s", n, got)
	}
	// The previous engine still serves on a fresh session.
	if got := run(t, srv, "assert R(a).\nquery S\n"); !strings.Contains(got, "ok n=1") {
		t.Fatalf("previous engine lost:\n%s", got)
	}
}

func TestRetractVerb(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	got := run(t, srv, `load
T(@x.@y) :- E(@x.@y).
T(@x.@z) :- T(@x.@y), E(@y.@z).
.
assert E(a.b). E(b.c).
retract E(b.c).
query T
retract E(nope.nope).
retract T(a.b).
stats
`)
	for _, want := range []string{
		// Removing b->c takes T(b.c) and T(a.c) with it.
		"ok retracted=1 derived=-2 overdeleted=2 stamp_pruned=0 rederived=0 skipped=0 incremental=1",
		"T(a.b).\nok n=1",
		// Absent facts are dropped silently: a full skip.
		"ok retracted=0 derived=0 overdeleted=0 stamp_pruned=0 rederived=0 skipped=1 incremental=0",
		"err eval: cannot retract IDB relation",
		"ok facts=2 derived=1 asserts=1 retracts=2",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("response missing %q:\n%s", want, got)
		}
	}
}

// TestTruncatedLoadKeepsPreviousEngine: a load whose input ends before
// the terminating "." must not install a half program — the session
// replies err and the previously loaded engine keeps serving.
func TestTruncatedLoadKeepsPreviousEngine(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	if out := run(t, srv, "load\nS($x) :- R($x).\n.\nassert R(a).\n"); strings.Contains(out, "err") {
		t.Fatalf("setup failed:\n%s", out)
	}
	// EOF arrives mid-program: no lone "." ever comes.
	got := run(t, srv, "load\nBroken($x) :- R($x).\n")
	if !strings.Contains(got, "err load: input ended before the terminating") {
		t.Fatalf("truncated load must reply err:\n%s", got)
	}
	if strings.Contains(got, "ok loaded") {
		t.Fatalf("truncated load must not install a program:\n%s", got)
	}
	// The old program (and its facts) still serve.
	got = run(t, srv, "query S\nquery Broken\n")
	if !strings.Contains(got, "S(a).") || !strings.Contains(got, "ok n=1") {
		t.Fatalf("previous engine lost after truncated load:\n%s", got)
	}
	if !strings.Contains(got, "err eval: unknown output relation \"Broken\"") {
		t.Fatalf("half program leaked into the engine:\n%s", got)
	}
	// A load truncated before any engine exists leaves none in place.
	fresh := &server{limits: eval.Limits{}}
	got = run(t, fresh, "load\nS($x) :- R($x).\n")
	if !strings.Contains(got, "err load: input ended") {
		t.Fatalf("fresh truncated load: %s", got)
	}
	if _, err := fresh.current(); err == nil {
		t.Fatal("truncated load installed an engine")
	}
}

// flakyListener fails Accept with temporary errors a few times, then
// hands out one connection, then reports closure.
type flakyListener struct {
	fails int
	conns []net.Conn
}

type tempErr struct{}

func (tempErr) Error() string   { return "accept: too many open files" }
func (tempErr) Timeout() bool   { return false }
func (tempErr) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.fails > 0 {
		l.fails--
		return nil, tempErr{}
	}
	if len(l.conns) == 0 {
		return nil, net.ErrClosed
	}
	c := l.conns[0]
	l.conns = l.conns[1:]
	return c, nil
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptLoopRetriesTemporaryErrors: transient Accept failures
// (EMFILE et al.) must be retried with backoff instead of killing the
// daemon, and the loop must still serve the connections that follow.
func TestAcceptLoopRetriesTemporaryErrors(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	if _, _, err := srv.load("S($x) :- R($x).", instance.New()); err != nil {
		t.Fatal(err)
	}
	client, served := net.Pipe()
	ln := &flakyListener{fails: 3, conns: []net.Conn{served}}
	var slept []time.Duration
	done := make(chan error, 1)
	go func() { done <- acceptLoop(ln, srv, func(d time.Duration) { slept = append(slept, d) }) }()

	if _, err := client.Write([]byte("assert R(a).\nquit\n")); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(client)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "ok asserted=1") || !strings.Contains(string(out), "ok bye") {
		t.Fatalf("session after retries broken:\n%s", out)
	}
	if err := <-done; err != nil {
		t.Fatalf("closed listener must end the loop cleanly: %v", err)
	}
	if len(slept) != 3 {
		t.Fatalf("slept %v, want 3 backoffs", slept)
	}
	for i := 1; i < len(slept); i++ {
		if slept[i] <= slept[i-1] {
			t.Fatalf("backoff must grow: %v", slept)
		}
	}
}

// TestLoadRejectionKeepsEngineAndReportsDiagnostics: a program with
// error-severity diagnostics is refused with positioned "diag" lines,
// the previous engine keeps serving, and the stats counter records the
// rejected load.
func TestLoadRejectionKeepsEngineAndReportsDiagnostics(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	if out := run(t, srv, "load\nS($x) :- R($x).\n.\nassert R(a).\n"); !strings.Contains(out, "ok loaded") {
		t.Fatalf("initial load failed:\n%s", out)
	}
	got := run(t, srv, `load
S($y.a) :- R($x).
.
query S
stats
`)
	for _, want := range []string{
		// The rejection reply carries the position and code of every
		// error diagnostic before the final err line.
		"diag 1:1: unbound-head-var:",
		"err load rejected: 1 diagnostic(s) (previous engine kept)",
		// The previous program still answers queries.
		"S(a).",
		"rejected_loads=1",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("response missing %q:\n%s", want, got)
		}
	}
}

// TestLoadWarningsSurfacedAndCounted: a program that compiles but
// draws analyzer warnings reports them as "diag" lines on load, counts
// them in stats, and a subsequent clean load resets the count.
func TestLoadWarningsSurfacedAndCounted(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	got := run(t, srv, `load
Pair($x, $y) :- Left($x), Right($y).
.
stats
load
T(@x, @y) :- E(@x.@y).
T(@x, @z) :- T(@x, @y), E(@y.@z).
.
stats
quit
`)
	for _, want := range []string{
		// The cross product shares no variables, so neither side has a
		// usable index under the other's delta — the perf pass flags it.
		"diag 1:17: full-scan-delta:",
		"ok loaded warnings=",
		// The binary form is clean: the second load resets to zero.
		"ok loaded warnings=0",
		"warnings=0 rejected_loads=0",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("response missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(strings.Split(got, "ok loaded warnings=0")[0], "warnings=0") {
		t.Fatalf("first load should have reported nonzero warnings:\n%s", got)
	}
}

// newWALServer wires a server to a WAL directory the way main does:
// recover, adopt the recovered engine if any, remember what recovery
// did for stats.
func newWALServer(t *testing.T, dir string, opts wal.Options) *server {
	t.Helper()
	rep := &eval.Replayer{}
	l, err := wal.Open(dir, opts, rep)
	if err != nil {
		t.Fatal(err)
	}
	srv := &server{limits: eval.Limits{}, wal: l, recovery: l.Recovery()}
	if rep.Engine() != nil {
		srv.install(rep.Engine(), rep.Source())
	}
	t.Cleanup(func() { l.Close() })
	return srv
}

// TestStatsDurabilityCounters: with a WAL attached, stats reports the
// durability counters; the load and both asserts each cost a record.
func TestStatsDurabilityCounters(t *testing.T) {
	srv := newWALServer(t, t.TempDir(), wal.Options{Sync: wal.SyncNever})
	got := run(t, srv, `load
T(@x.@y) :- E(@x.@y).
.
assert E(a.b).
assert E(b.c).
stats
`)
	for _, want := range []string{
		"wal_records=3 ", "checkpoints=0 ", "recovered_records=0 ",
		"readonly=false", "idle_timeouts=0",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("stats missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "wal_bytes=0 ") {
		t.Fatalf("wal_bytes must count framed bytes:\n%s", got)
	}
}

// TestServerRecoveryRoundTrip: a server's WAL replayed into a fresh
// server reproduces the materialization; after a finalize (checkpoint
// + close) the next recovery comes from the snapshot with no records.
func TestServerRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, wal.Options{Sync: wal.SyncNever})
	out := run(t, srv, "load\nT(@x.@y) :- E(@x.@y).\nT(@x.@z) :- T(@x.@y), E(@y.@z).\n.\nassert E(a.b). E(b.c).\nretract E(b.c).\nassert E(b.d).\n")
	if strings.Contains(out, "err") {
		t.Fatalf("setup: %s", out)
	}
	if err := srv.wal.Close(); err != nil { // crash: no final checkpoint
		t.Fatal(err)
	}

	srv2 := newWALServer(t, dir, wal.Options{})
	got := run(t, srv2, "query T\nstats\n")
	for _, want := range []string{"T(a.b).\nT(a.d).\nT(b.d).\nok n=3", "recovered_records=4 "} {
		if !strings.Contains(got, want) {
			t.Fatalf("recovered server missing %q:\n%s", want, got)
		}
	}
	srv2.finalize() // graceful path: checkpoint, then close

	srv3 := newWALServer(t, dir, wal.Options{})
	got = run(t, srv3, "query T\nstats\n")
	for _, want := range []string{"ok n=3", "recovered_records=0 "} {
		if !strings.Contains(got, want) {
			t.Fatalf("checkpoint-recovered server missing %q:\n%s", want, got)
		}
	}
}

// TestRecoveryFailedLoadNotLogged: under a WAL, a load whose initial
// fixpoint fails (the carried R clashes with the new program's arity)
// appends no record, and a restart serves the engine that was serving
// before it.
func TestRecoveryFailedLoadNotLogged(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, wal.Options{Sync: wal.SyncNever})
	got := run(t, srv, "load\nS($x) :- R($x).\n.\nassert R(a).\nstats\nload\nS($x, $y) :- R($x, $y).\n.\nstats\n")
	if strings.Count(got, "wal_records=2 ") != 2 {
		t.Fatalf("the failed load must leave wal_records at 2:\n%s", got)
	}
	if !strings.Contains(got, `err eval: instance holds arity-1 tuples of relation "R" used with arity 2 by the program`) {
		t.Fatalf("the arity clash must fail the load:\n%s", got)
	}
	if err := srv.wal.Close(); err != nil { // crash: no final checkpoint
		t.Fatal(err)
	}
	got = run(t, newWALServer(t, dir, wal.Options{}), "query S\nexplain\nstats\n")
	for _, want := range []string{"S(a).\nok n=1", "S($x) :- R($x)", "recovered_records=2 "} {
		if !strings.Contains(got, want) {
			t.Fatalf("restart must serve the previous engine, missing %q:\n%s", want, got)
		}
	}
}

// TestReadonlyDegradation: when the WAL starts failing, writes are
// refused with "err readonly: ..." and nothing reaches the engine,
// but queries and stats keep serving the last durable state.
func TestReadonlyDegradation(t *testing.T) {
	var fw *walfault.Writer
	srv := newWALServer(t, t.TempDir(), wal.Options{Sync: wal.SyncNever,
		WrapWriter: func(w io.Writer) io.Writer {
			fw = &walfault.Writer{W: w, FailAfter: -1}
			return fw
		}})
	out := run(t, srv, "load\nS($x) :- R($x).\n.\nassert R(a).\n")
	if strings.Contains(out, "err") {
		t.Fatalf("setup: %s", out)
	}
	fw.FailAfter = fw.Written() // the disk dies here

	got := run(t, srv, "assert R(b).\nretract R(a).\nquery S\nstats\n")
	if n := strings.Count(got, "err readonly: "); n != 2 {
		t.Fatalf("want 2 readonly refusals, got %d:\n%s", n, got)
	}
	for _, want := range []string{"S(a).\nok n=1", "readonly=true"} {
		if !strings.Contains(got, want) {
			t.Fatalf("degraded server missing %q:\n%s", want, got)
		}
	}
}

// TestReadonlyAfterFailedRotation: a checkpoint that cannot start the
// next generation's WAL file leaves the log failed, and the daemon is
// read-only from then on — stats says so at once, and writes are
// refused with the same "err readonly: ..." as after a failed append.
func TestReadonlyAfterFailedRotation(t *testing.T) {
	dir := t.TempDir()
	srv := newWALServer(t, dir, wal.Options{Sync: wal.SyncNever, CheckpointRecords: 2})
	// The second record triggers a checkpoint, whose rotation opens this
	// path for appending: a directory there makes it fail.
	if err := os.Mkdir(filepath.Join(dir, "wal-00000001.log"), 0o755); err != nil {
		t.Fatal(err)
	}
	got := run(t, srv, "load\nS($x) :- R($x).\n.\nassert R(a).\nstats\nassert R(b).\nquery S\n")
	for _, want := range []string{"ok asserted=1 ", "readonly=true", "err readonly: ", "S(a).\nok n=1"} {
		if !strings.Contains(got, want) {
			t.Fatalf("server after a failed rotation missing %q:\n%s", want, got)
		}
	}
}

// TestIdleTimeoutClosesSession: a session silent past -idle-timeout is
// told why, closed, and counted; activity re-arms the deadline.
func TestIdleTimeoutClosesSession(t *testing.T) {
	srv := &server{limits: eval.Limits{}, idleTimeout: 100 * time.Millisecond}
	client, served := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer served.Close()
		srv.serve(served, served)
	}()
	rd := bufio.NewReader(client)
	for i := 0; i < 3; i++ { // stay under the deadline: the session lives
		time.Sleep(30 * time.Millisecond)
		if _, err := client.Write([]byte("holds X\n")); err != nil {
			t.Fatal(err)
		}
		if line, err := rd.ReadString('\n'); err != nil || !strings.Contains(line, "err no program loaded") {
			t.Fatalf("reply %d: %q, %v", i, line, err)
		}
	}
	line, err := rd.ReadString('\n') // now idle: the deadline fires
	if err != nil || !strings.Contains(line, "err idle timeout") {
		t.Fatalf("idle close: %q, %v", line, err)
	}
	<-done
	if idle := srv.reg.idleTimeouts.Load(); idle != 1 {
		t.Fatalf("idle_timeouts = %d, want 1", idle)
	}
}

// TestDrainForceClosesStuckSessions: shutdown waits for sessions, and
// past the grace period force-closes the stragglers so the final
// checkpoint is never blocked by a silent client.
func TestDrainForceClosesStuckSessions(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	client, served := net.Pipe()
	defer client.Close()
	ln := &flakyListener{conns: []net.Conn{served}}
	done := make(chan error, 1)
	go func() { done <- acceptLoop(ln, srv, time.Sleep) }()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	srv.drain(50 * time.Millisecond) // the client never speaks nor hangs up
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("drain returned before the grace period: %v", d)
	}
	left := 0
	srv.conns.Range(func(any, any) bool { left++; return true })
	if left != 0 {
		t.Fatalf("%d sessions still tracked after drain", left)
	}
}

// TestSlowQueryReaderStallsNoOne (ROADMAP 5 (b), 7 (c)): a session that
// asks for a reply larger than its transport buffers and stops reading
// holds a snapshot and nothing else — no server, engine or relation
// lock is held across a socket write — so another session's assert and
// query complete beside it, and when the slow one reads on it gets the
// rows of the epoch it asked about.
func TestSlowQueryReaderStallsNoOne(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	const chain = 60 // 60·61/2 = 1830 facts, some 25 kB of reply
	var edges strings.Builder
	for i := 0; i < chain; i++ {
		edges.WriteString(" E(n" + num(i) + ".n" + num(i+1) + ").")
	}
	if out := run(t, srv, "load\nT(@x.@y) :- E(@x.@y).\nT(@x.@z) :- T(@x.@y), E(@y.@z).\n.\nassert"+edges.String()+"\n"); !strings.Contains(out, "ok asserted=60") {
		t.Fatalf("setup: %q", out)
	}

	client, served := net.Pipe() // unbuffered: an unread byte blocks the writer
	defer client.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer served.Close()
		srv.serve(served, served)
	}()
	if _, err := client.Write([]byte("query T\n")); err != nil {
		t.Fatal(err)
	}
	slow := bufio.NewReader(client)
	if line, err := slow.ReadString('\n'); err != nil || line != "T(n00.n01).\n" {
		t.Fatalf("first reply line: %q, %v", line, err)
	}
	// The slow session now sits in a pipe write, most of its reply unsent.

	beside := make(chan string, 1)
	go func() { beside <- run(t, srv, "assert E(n60.n61).\nquery T\n") }()
	select {
	case out := <-beside:
		for _, want := range []string{"ok asserted=1 derived=61", "T(n00.n61).\n", "ok n=1891"} {
			if !strings.Contains(out, want) {
				t.Fatalf("the session beside the slow reader: reply missing %q", want)
			}
		}
	case <-time.After(20 * time.Second):
		t.Fatal("an assert and a query stalled behind a session that stopped reading its reply")
	}
	select {
	case <-done:
		t.Fatal("the slow session finished: its reply never outgrew the transport's buffers")
	default:
	}

	rest, err := slow.ReadString('k') // up to the "ok n=..." line's k
	if err != nil {
		t.Fatal(err)
	}
	tail, err := slow.ReadString('\n')
	if err != nil || tail != " n=1830\n" || strings.Contains(rest, "n61") || strings.Count(rest, "\n") != 1829 {
		t.Fatalf("the slow reader's reply is not its epoch's: %d lines, ends %q (%v), mentions n61: %v",
			strings.Count(rest, "\n"), tail, err, strings.Contains(rest, "n61"))
	}
	client.Close()
	<-done
}

// TestQueryReplyOverTCPIsItsEpochsFacts: after interleaved assert,
// retract and query over TCP, every query reply is byte for byte what
// Instance.String prints of the engine's relation rendered afresh (a
// Clone shares no chunk text with the served epochs). Each reply is
// larger than 64 KiB, so it leaves through the session's 4 KiB writer
// in batched writes, and the epochs it spans reuse one another's text
// across barrier clones, tail growth, tombstones and re-adds.
func TestQueryReplyOverTCPIsItsEpochsFacts(t *testing.T) {
	srv := &server{limits: eval.Limits{}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- acceptLoop(ln, srv, time.Sleep) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rd := bufio.NewReader(conn)
	// send writes one command and returns its whole response.
	send := func(cmd string) string {
		t.Helper()
		if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				t.Fatalf("%.40s: %v after %d bytes", cmd, err, out.Len())
			}
			out.WriteString(line)
			if strings.HasPrefix(line, "ok") || strings.HasPrefix(line, "err") {
				return out.String()
			}
		}
	}
	edges := func(lo, hi int) string {
		var b strings.Builder
		for i := lo; i < hi; i++ {
			fmt.Fprintf(&b, " E(n%03d.n%03d).", i, i+1)
		}
		return b.String()
	}
	if out := send("load\nT(@x.@y) :- E(@x.@y).\nT(@x.@z) :- T(@x.@y), E(@y.@z).\n."); !strings.HasPrefix(out, "ok loaded") {
		t.Fatalf("load: %q", out)
	}
	for _, write := range []string{
		"assert" + edges(0, 120),
		"assert" + edges(120, 150),
		"retract" + edges(75, 76),
		"assert" + edges(75, 76) + edges(150, 152),
		"retract" + edges(140, 141),
		"assert" + edges(140, 141),
	} {
		if out := send(write); !strings.HasPrefix(out, "ok ") {
			t.Fatalf("%.40s: %q", write, out)
		}
		got := send("query T")
		st, err := srv.current()
		if err != nil {
			t.Fatal(err)
		}
		rel, err := st.engine.Query("T")
		if err != nil {
			t.Fatal(err)
		}
		fresh := instance.New()
		fresh.Put("T", rel.Clone())
		want := fresh.String() + fmt.Sprintf("ok n=%d\n", rel.Len())
		if len(got) <= 64<<10 {
			t.Fatalf("after %.40s: the reply is only %d bytes", write, len(got))
		}
		if got != want {
			n := 0
			for n < min(len(got), len(want)) && got[n] == want[n] {
				n++
			}
			t.Fatalf("after %.40s: the reply (%d bytes) differs from its epoch's facts (%d bytes) at byte %d", write, len(got), len(want), n)
		}
	}
	conn.Close()
	ln.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	srv.drain(5 * time.Second)
}

// stallWriter passes WAL writes through, but holds the stall-th one
// until release is closed, signalling reached when it gets there.
type stallWriter struct {
	w                io.Writer
	n, stall         int
	reached, release chan struct{}
}

func (s *stallWriter) Write(p []byte) (int, error) {
	if s.n++; s.n == s.stall {
		close(s.reached)
		<-s.release
	}
	return s.w.Write(p)
}

// TestStatsDuringStalledWrite: a write holds the write lock across its
// WAL append and fsync, but stats reads the registry and never takes
// that lock, so an operator's stats answers while a writer waits on
// the disk.
func TestStatsDuringStalledWrite(t *testing.T) {
	sw := &stallWriter{stall: 2, reached: make(chan struct{}), release: make(chan struct{})}
	srv := newWALServer(t, t.TempDir(), wal.Options{Sync: wal.SyncAlways,
		WrapWriter: func(w io.Writer) io.Writer { sw.w = w; return sw }})
	if out := run(t, srv, "load\nT(@x.@y) :- E(@x.@y).\n.\n"); !strings.HasPrefix(out, "ok loaded") {
		t.Fatalf("load: %s", out)
	}
	released := false
	release := func() {
		if !released {
			released = true
			close(sw.release)
		}
	}
	defer release()
	stalled := make(chan string, 1)
	go func() { stalled <- run(t, srv, "assert E(a.b).\n") }()
	select {
	case <-sw.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("the assert never reached the WAL write")
	}
	beside := make(chan string, 1)
	go func() { beside <- run(t, srv, "stats\nstats json\n") }()
	select {
	case out := <-beside:
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(lines) != 3 || !strings.HasPrefix(lines[0], "ok facts=0 ") || !json.Valid([]byte(lines[1])) || lines[2] != "ok" {
			t.Fatalf("stats beside a stalled write:\n%s", out)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stats waited on a write stalled in the WAL")
	}
	release()
	if out := <-stalled; !strings.HasPrefix(out, "ok asserted=1 derived=1 ") {
		t.Fatalf("the stalled assert: %s", out)
	}
}

// TestStatsJSONRegistry decodes `stats json` after a scripted durable
// session: it holds every text field with the same value, one row per
// verb whose calls count the commands sent and whose histogram sums to
// them, phases that add up to at most the verb's total (and
// maintenance phases to at most its apply), and nonzero WAL append and
// fsync times under -sync always.
func TestStatsJSONRegistry(t *testing.T) {
	srv := newWALServer(t, t.TempDir(), wal.Options{Sync: wal.SyncAlways})
	out := run(t, srv, `load
T(@x.@y) :- E(@x.@y).
T(@x.@z) :- T(@x.@y), E(@y.@z).
.
assert E(a.b). E(b.c).
assert E(c.d).
assert E(a.b
retract E(b.c).
query T
holds T
stats
stats json
`)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) < 3 || lines[len(lines)-1] != "ok" {
		t.Fatalf("stats json reply:\n%s", out)
	}
	text := strings.Fields(strings.TrimPrefix(lines[len(lines)-3], "ok "))
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-2]))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if len(text) != 22 {
		t.Fatalf("text stats has %d fields: %v", len(text), text)
	}
	for _, f := range text {
		name, val, _ := strings.Cut(f, "=")
		if j, ok := m[name]; !ok || fmt.Sprint(j) != val {
			t.Errorf("stats json %s = %v, text says %s", name, j, val)
		}
	}
	num := func(v any) int64 {
		t.Helper()
		n, err := v.(json.Number).Int64()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	sum := func(o any) (s int64) {
		switch o := o.(type) {
		case map[string]any:
			for _, v := range o {
				s += num(v)
			}
		case []any:
			for _, v := range o {
				s += num(v)
			}
		}
		return s
	}
	sent := map[string]int64{"load": 1, "assert": 3, "retract": 1, "query": 1, "holds": 1, "stats": 1, "explain": 0, "quit": 0}
	verbs := m["verbs"].(map[string]any)
	if len(verbs) != len(sent) {
		t.Fatalf("verb rows: %v", verbs)
	}
	for name, calls := range sent {
		row := verbs[name].(map[string]any)
		if c := num(row["calls"]); c != calls {
			t.Errorf("%s: calls %d, sent %d", name, c, calls)
		}
		if h := sum(row["hist"]); h != calls {
			t.Errorf("%s: histogram sums to %d, calls %d", name, h, calls)
		}
		phases := row["phase_ns"].(map[string]any)
		if p, total := sum(phases), num(row["total_ns"]); p > total || calls > 0 && total <= 0 {
			t.Errorf("%s: phases sum to %d ns of %d", name, p, total)
		}
		if mt, apply := sum(row["maintenance_ns"]), num(phases["apply"]); mt > apply {
			t.Errorf("%s: maintenance phases sum to %d ns, apply is %d", name, mt, apply)
		}
	}
	if e := num(verbs["assert"].(map[string]any)["errors"]); e != 1 {
		t.Errorf("assert errors = %d, want 1 (the parse error)", e)
	}
	w := m["wal"].(map[string]any)
	if num(w["append_ns"]) <= 0 || num(w["fsync_ns"]) <= 0 {
		t.Errorf("WAL times under -sync always: %v", w)
	}
	if num(m["symbols"]) <= 0 || m["recovery"] == nil {
		t.Errorf("symbols %v, recovery %v", m["symbols"], m["recovery"])
	}
}
