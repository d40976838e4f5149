// Command seqlogd serves a Sequence Datalog engine over a line
// protocol: load a program once, assert facts as they arrive, query
// the continuously maintained materialization. It is the serving
// counterpart of the one-shot cmd/seqlog.
//
// Usage:
//
//	seqlogd [-program prog.sdl] [-data facts.sdl] [-max-facts N]
//	seqlogd -listen :7690 ...
//	seqlogd -wal-dir ./wal -sync always -checkpoint-every 4096 ...
//
// Without -listen the protocol runs on stdin/stdout (handy under a
// pipe or an editor); with -listen every TCP connection speaks the
// same protocol against one shared engine — asserts serialize through
// the engine, queries read copy-on-write snapshots and never block
// behind them.
//
// With -wal-dir the daemon is durable: every accepted load, assert
// and retract is appended to a write-ahead log before it is applied,
// checkpoints bound replay time, and startup recovers the pre-crash
// state (see docs/durability.md). If the log itself fails mid-flight
// the daemon degrades to read-only — writes are refused with
// "err readonly: ...", queries keep serving the last durable state.
// SIGINT/SIGTERM shut down gracefully: stop accepting, drain
// sessions, cut a final checkpoint, close the log.
//
// Protocol (one command per line; responses end with "ok ..." or
// "err ..."):
//
//	load                  read program lines until a lone "."; compile
//	                      and start a fresh engine seeded with the
//	                      previous engine's EDB (base facts carry over a
//	                      program upgrade; derived facts are recomputed).
//	                      A program with error-severity diagnostics is
//	                      rejected — the diagnostics are listed one per
//	                      line as "diag <line:col>: <code>: <message>"
//	                      before the final "err", and the previous engine
//	                      keeps serving. Analyzer warnings do not block
//	                      the load; they are listed the same way before
//	                      "ok loaded warnings=N carried=M".
//	assert <facts>        e.g. assert E(a.b). E(b.c).
//	retract <facts>       withdraw facts; derived facts losing their
//	                      last derivation disappear (DRed maintenance)
//	query <relation>      print the relation's facts, one per line
//	holds <relation>      print true/false
//	stats                 engine counters
//	explain               the compiled join plans
//	quit                  close the connection
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"seqlog/internal/analyze"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/wal"
)

func main() {
	srv := &server{limits: eval.Limits{MaxFacts: eval.DefaultLimits.MaxFacts}}
	flag.Func("max-facts", fmt.Sprintf("termination guard: maximum materialized derived facts (default %d)", srv.limits.MaxFacts), srv.limits.SetMaxFacts)
	flag.DurationVar(&srv.idleTimeout, "idle-timeout", 0, "close sessions idle longer than this (0: never)")
	var (
		programFile = flag.String("program", "", "file holding the program to load at startup")
		dataFile    = flag.String("data", "", "file holding the initial EDB facts")
		listen      = flag.String("listen", "", "serve the protocol on this TCP address instead of stdin/stdout")
		walDir      = flag.String("wal-dir", "", "directory for the write-ahead log and checkpoints (empty: no durability)")
		syncMode    = flag.String("sync", "always", "WAL fsync policy: always, interval, never")
		syncEvery   = flag.Duration("sync-interval", 100*time.Millisecond, "maximum sync staleness under -sync interval")
		ckptEvery   = flag.Int("checkpoint-every", 4096, "WAL records between checkpoints (0 disables the record trigger)")
	)
	flag.Parse()

	recovered := false
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*syncMode)
		if err != nil {
			fail(err)
		}
		records := *ckptEvery
		if records == 0 {
			records = -1
		}
		h := &walHandler{rep: eval.Replayer{Limits: srv.limits}}
		l, err := wal.Open(*walDir, wal.Options{
			Sync:              policy,
			SyncEvery:         *syncEvery,
			CheckpointRecords: records,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "seqlogd: "+format+"\n", args...)
			},
		}, h)
		if err != nil {
			fail(err)
		}
		srv.wal = l
		rs := l.Recovery()
		srv.recovered = rs.RecordsReplayed
		if h.rep.Engine() != nil {
			srv.install(h.rep.Engine(), h.rep.Source())
			fmt.Fprintf(os.Stderr, "seqlogd: recovered %d WAL records (checkpoint generation %d)\n",
				rs.RecordsReplayed, rs.CheckpointGen)
			if *programFile != "" {
				fmt.Fprintln(os.Stderr, "seqlogd: WAL recovery restored a program; ignoring -program/-data")
			}
			recovered = true
		}
	}

	if !recovered && *programFile != "" {
		src, err := os.ReadFile(*programFile)
		if err != nil {
			fail(err)
		}
		edb := instance.New()
		if *dataFile != "" {
			data, err := os.ReadFile(*dataFile)
			if err != nil {
				fail(err)
			}
			edb, err = parser.ParseInstance(string(data))
			if err != nil {
				fail(fmt.Errorf("%s: %w", *dataFile, err))
			}
		}
		if _, err := srv.load(string(src), edb); err != nil {
			fail(fmt.Errorf("%s: %w", *programFile, err))
		}
		if *dataFile != "" {
			// The OpLoad record carries only the program; the initial EDB
			// from -data lives in a checkpoint, cut right away so recovery
			// sees it.
			srv.wmu.Lock()
			srv.maybeCheckpoint(true)
			srv.wmu.Unlock()
		}
	} else if !recovered && *dataFile != "" {
		fail(fmt.Errorf("-data requires -program (the engine is created when the program loads)"))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)

	if *listen == "" {
		done := make(chan struct{})
		go func() {
			srv.serve(os.Stdin, os.Stdout)
			close(done)
		}()
		select {
		case <-done:
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "seqlogd: %v: shutting down\n", s)
		}
		srv.finalize()
		return
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, "seqlogd: listening on", ln.Addr())
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "seqlogd: %v: draining sessions and shutting down\n", s)
		ln.Close()
	}()
	loopErr := acceptLoop(ln, srv, time.Sleep)
	srv.drain(drainTimeout)
	srv.finalize()
	if loopErr != nil {
		fail(loopErr)
	}
}

// drainTimeout is the grace period for active sessions on shutdown;
// past it their connections are force-closed so a stuck client cannot
// block the final checkpoint.
const drainTimeout = 5 * time.Second

// acceptMaxBackoff caps the exponential backoff between retries of a
// failing Accept.
const acceptMaxBackoff = time.Second

// acceptLoop accepts connections until the listener closes, serving
// each on its own goroutine. A transient Accept error (EMFILE under
// connection pressure, ECONNABORTED, a timeout) must not kill the
// daemon and orphan every established session: temporary errors are
// logged and retried with exponential backoff, and only a permanent
// listener failure is returned. The sleep function is injected for
// tests.
func acceptLoop(ln net.Listener, srv *server, sleep func(time.Duration)) error {
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && !isTemporary(ne) {
				return err
			}
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > acceptMaxBackoff {
				backoff = acceptMaxBackoff
			}
			fmt.Fprintf(os.Stderr, "seqlogd: accept: %v (retrying in %v)\n", err, backoff)
			sleep(backoff)
			continue
		}
		backoff = 0
		srv.sessions.Add(1)
		srv.track(conn)
		go func() {
			defer srv.sessions.Done()
			defer srv.untrack(conn)
			defer conn.Close()
			srv.serve(conn, conn)
		}()
	}
}

// isTemporary reports whether a net.Error is worth retrying. Timeout
// covers the modern contract; Temporary is deprecated as advice for
// callers but still part of net.Error and still how the runtime
// classifies the syscall-level accept errors (EMFILE, ECONNABORTED)
// that matter here.
func isTemporary(ne net.Error) bool {
	return ne.Timeout() || ne.Temporary()
}

// server holds the one engine every connection shares. The engine
// serializes its own writers and serves reads from snapshots; mu
// guards swapping the engine on load and the session bookkeeping,
// while wmu serializes the write verbs end to end — WAL append order
// is engine apply order, which is what makes replay faithful. Lock
// order is wmu before mu, never the reverse.
type server struct {
	limits      eval.Limits
	idleTimeout time.Duration

	mu     sync.Mutex
	engine *eval.Engine
	// src is the source text of the served program — the WAL's current
	// load epoch, written into every checkpoint.
	src string
	// warnings holds the analyzer warnings of the served program;
	// rejected counts loads refused for error-severity diagnostics.
	warnings []analyze.Diagnostic
	rejected int
	// idleTimeouts counts sessions closed by the idle read deadline.
	idleTimeouts int
	conns        map[net.Conn]struct{}

	wmu sync.Mutex
	wal *wal.Log
	// recovered is the number of WAL records replayed at startup.
	recovered int

	sessions sync.WaitGroup
}

// walHandler adapts WAL recovery to the engine replay entry point.
type walHandler struct{ rep eval.Replayer }

func (h *walHandler) Restore(program string, edb *instance.Instance) error {
	return h.rep.Restore(program, edb)
}

func (h *walHandler) Replay(rec wal.Record) error {
	switch rec.Op {
	case wal.OpLoad:
		return h.rep.Load(rec.Program)
	case wal.OpAssert:
		return h.rep.Assert(rec.Batch)
	case wal.OpRetract:
		return h.rep.Retract(rec.Batch)
	}
	return fmt.Errorf("unknown WAL op %s", rec.Op)
}

// install makes e the served engine and src, its program's source
// text, the current load epoch; the analyzer warnings of the compiled
// program ride along for load replies and stats.
func (s *server) install(e *eval.Engine, src string) {
	var warns []analyze.Diagnostic
	for _, d := range e.Prepared().Diagnostics() {
		if d.Severity == analyze.Warning {
			warns = append(warns, d)
		}
	}
	s.mu.Lock()
	s.engine, s.src, s.warnings = e, src, warns
	s.mu.Unlock()
}

func (s *server) track(c net.Conn) {
	s.mu.Lock()
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// drain waits for active sessions to finish, force-closing their
// connections when the grace period runs out.
func (s *server) drain(timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		s.sessions.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		fmt.Fprintln(os.Stderr, "seqlogd: drain timeout, closing active sessions")
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

// finalize cuts a final checkpoint (when this session logged anything)
// and closes the WAL, so the next start recovers from the snapshot
// instead of replaying this session's records.
func (s *server) finalize() {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.wal == nil {
		return
	}
	// A checkpoint pays off whenever the next start would otherwise
	// replay records — ones appended this session or ones recovery
	// already replayed once.
	if (s.wal.Records() > 0 || s.recovered > 0) && s.wal.Err() == nil {
		s.maybeCheckpoint(true)
	}
	if err := s.wal.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "seqlogd: closing WAL: %v\n", err)
	}
}

// readonly is the daemon's degradation, read off the WAL's sticky
// failure (nil while the log is healthy or absent): once an append, a
// sync or a checkpoint's rotation fails, durability can no longer be
// promised, so every write is refused while queries keep serving the
// last durable state. Callers hold wmu.
func (s *server) readonly() error {
	if s.wal == nil || s.wal.Err() == nil {
		return nil
	}
	return fmt.Errorf("readonly: write-ahead log failed, serving reads only: %v", s.wal.Err())
}

// logRecord appends rec to the WAL (a no-op without -wal-dir). The
// first append failure degrades the daemon to read-only: this write is
// refused and every later one fails fast. Callers hold wmu.
func (s *server) logRecord(rec wal.Record) error {
	if s.wal == nil {
		return nil
	}
	if err := s.readonly(); err != nil {
		return err
	}
	if err := s.wal.Append(rec); err != nil {
		if ro := s.readonly(); ro != nil {
			fmt.Fprintf(os.Stderr, "seqlogd: WAL append failed, degrading to read-only: %v\n", err)
			return ro
		}
		return err // an encoding error: nothing was written, the log stays healthy
	}
	return nil
}

// maybeCheckpoint cuts a checkpoint when the WAL's trigger fires (or
// force is set): the served program plus the engine's base facts,
// after which the replayed WAL prefix is dropped. A failed checkpoint
// is logged and non-fatal — the WAL alone keeps the state
// recoverable. Callers hold wmu.
func (s *server) maybeCheckpoint(force bool) {
	if s.wal == nil || s.wal.Err() != nil || (!force && !s.wal.ShouldCheckpoint()) {
		return
	}
	s.mu.Lock()
	e, src := s.engine, s.src
	s.mu.Unlock()
	if e == nil {
		return
	}
	edb, err := e.EDBSnapshot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqlogd: checkpoint skipped: %v\n", err)
		return
	}
	if err := s.wal.Checkpoint(src, edb); err != nil {
		fmt.Fprintf(os.Stderr, "seqlogd: checkpoint failed: %v\n", err)
	}
}

// writeOp is one direction of the write path: the WAL op that logs the
// batch, the word that names the changed facts in the reply, and the
// engine call that applies the batch.
type writeOp struct {
	rec   wal.Op
	word  string
	apply func(*eval.Engine, *instance.Instance) (int, eval.MaintenanceStats, error)
}

// write is the one place a batch is logged, applied to the engine and
// checkpoint-triggered, WAL first: a batch the log cannot make durable
// never reaches the engine.
func (s *server) write(op *writeOp, delta *instance.Instance) (int, eval.MaintenanceStats, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	e, err := s.current()
	if err != nil {
		return 0, eval.MaintenanceStats{}, err
	}
	if err := e.Err(); err != nil {
		// A broken engine rejects the batch itself; don't log a record
		// replay could never apply.
		return 0, eval.MaintenanceStats{}, err
	}
	if err := s.logRecord(wal.Record{Op: op.rec, Batch: delta}); err != nil {
		return 0, eval.MaintenanceStats{}, err
	}
	n, st, err := op.apply(e, delta)
	s.maybeCheckpoint(false)
	return n, st, err
}

// durabilityCounters renders the WAL/session counters appended to the
// stats reply (zeros without -wal-dir).
func (s *server) durabilityCounters() string {
	s.wmu.Lock()
	var records, checkpoints int
	var bytes int64
	if s.wal != nil {
		records, bytes, checkpoints = s.wal.Records(), s.wal.Bytes(), s.wal.Checkpoints()
	}
	ro := s.readonly() != nil
	recovered := s.recovered
	s.wmu.Unlock()
	s.mu.Lock()
	idle := s.idleTimeouts
	s.mu.Unlock()
	return fmt.Sprintf(" wal_records=%d wal_bytes=%d checkpoints=%d recovered_records=%d readonly=%t idle_timeouts=%d",
		records, bytes, checkpoints, recovered, ro, idle)
}

// load compiles src and replaces the served engine with a fresh one.
// A nil edb means "carry the EDB over": the new engine is seeded with
// what eval.CarryEDB takes from the previous engine, so a program
// upgrade keeps the live fact base. An explicit edb (the -program/-data
// startup path) is used as given. The returned count is the number of
// facts carried over. A
// program the static analyzer rejects returns an *analyze.DiagError
// (wrapped or direct) and leaves the previous engine serving; the
// rejection is counted in stats.
//
// Under -wal-dir a successful compile is logged as an OpLoad record —
// the start of a new load epoch — before the engine swap; the record
// carries only the program, and replay reconstructs the same carried
// EDB from the engine state the preceding records produced
// (eval.Replayer.Load calls the same CarryEDB). The snapshot, the record
// and the swap all happen under the write lock, so no concurrent
// assert can slip between the carried state and the logged load.
// (The startup path with -data additionally cuts a checkpoint.) A
// load the WAL refuses leaves the previous engine serving.
func (s *server) load(src string, edb *instance.Instance) (int, error) {
	// Parse without validating: safety and stratification problems
	// should surface as Compile's structured diagnostics, not as a
	// single opaque parse error.
	prog, _, err := parser.ParseProgramForAnalysis(src)
	if err != nil {
		return 0, err
	}
	prep, err := eval.Compile(prog)
	if err != nil {
		var de *analyze.DiagError
		if errors.As(err, &de) {
			s.mu.Lock()
			s.rejected++
			s.mu.Unlock()
		}
		return 0, err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	carried := 0
	if edb == nil {
		s.mu.Lock()
		prev := s.engine
		s.mu.Unlock()
		edb, carried = eval.CarryEDB(prev)
	}
	e, err := eval.NewEngine(prep, edb, s.limits)
	if err != nil {
		return 0, err
	}
	if err := s.logRecord(wal.Record{Op: wal.OpLoad, Program: src}); err != nil {
		return 0, err
	}
	s.install(e, src)
	s.maybeCheckpoint(false)
	return carried, nil
}

// loadWarnings returns the analyzer warnings of the served program.
func (s *server) loadWarnings() []analyze.Diagnostic {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warnings
}

// rejectedLoads returns how many loads were refused for
// error-severity diagnostics since the daemon started.
func (s *server) rejectedLoads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rejected
}

// current returns the served engine, or an error when none is loaded.
func (s *server) current() (*eval.Engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.engine == nil {
		return nil, fmt.Errorf("no program loaded (use the load command or -program)")
	}
	return s.engine, nil
}

// session is one connection's protocol state: the server it talks to,
// its line scanner and its buffered reply writer.
type session struct {
	srv *server
	in  *bufio.Scanner
	out *bufio.Writer
	// dl is the transport's read-deadline hook, nil when it has none.
	dl interface{ SetReadDeadline(time.Time) error }
	// closed ends the session after the current command's reply.
	closed bool
}

// verbs is the protocol, in the order the unknown-command reply lists
// it. A handler gets the rest of the command line; it either sends its
// own "ok ..." reply or returns the error serve reports as "err ...".
var verbs = []struct {
	name string
	run  func(c *session, arg string) error
}{
	{"load", (*session).load},
	{"assert", writes(&writeOp{wal.OpAssert, "asserted", func(e *eval.Engine, d *instance.Instance) (int, eval.MaintenanceStats, error) {
		st, err := e.Assert(d)
		return st.Asserted, st.MaintenanceStats, err
	}})},
	{"retract", writes(&writeOp{wal.OpRetract, "retracted", func(e *eval.Engine, d *instance.Instance) (int, eval.MaintenanceStats, error) {
		st, err := e.Retract(d)
		return st.Retracted, st.MaintenanceStats, err
	}})},
	{"query", reads(func(c *session, e *eval.Engine, name string) error {
		rel, err := e.Query(name)
		if err != nil {
			return err
		}
		if err := rel.WriteFacts(c.out, name); err != nil {
			return err
		}
		return c.reply("ok n=%d", rel.Len())
	})},
	{"holds", reads(func(c *session, e *eval.Engine, name string) error {
		yes, err := e.Holds(name)
		if err != nil {
			return err
		}
		return c.reply("ok %v", yes)
	})},
	{"stats", reads(func(c *session, e *eval.Engine, _ string) error {
		st := e.Stats()
		return c.reply("ok facts=%d derived=%d asserts=%d retracts=%d warnings=%d rejected_loads=%d%s%s%s",
			st.Facts, st.Derived, st.Asserts, st.Retracts,
			len(c.srv.loadWarnings()), c.srv.rejectedLoads(), planCounters(st.Plans),
			cloneCounters(st.Clones), c.srv.durabilityCounters())
	})},
	{"explain", reads(func(c *session, e *eval.Engine, _ string) error {
		for _, l := range e.Prepared().Explain() {
			fmt.Fprintln(c.out, l)
		}
		return c.reply("ok")
	})},
	{"quit", func(c *session, _ string) error {
		c.closed = true
		return c.reply("ok bye")
	}},
}

// serve runs the line protocol until EOF or quit. One serve loop is a
// session; many may run concurrently against the same server.
func (s *server) serve(r io.Reader, w io.Writer) {
	c := &session{srv: s, in: bufio.NewScanner(r), out: bufio.NewWriter(w)}
	c.in.Buffer(make([]byte, 0, 64*1024), 1<<20)
	c.dl, _ = r.(interface{ SetReadDeadline(time.Time) error })
	defer c.out.Flush()
	for !c.closed {
		if err := c.command(); err != nil {
			c.reply("err %v", err)
		}
	}
}

// reply sends the line that ends a command's response.
func (c *session) reply(format string, args ...any) error {
	fmt.Fprintf(c.out, format+"\n", args...)
	return c.out.Flush()
}

// scan reads the next input line. Idle read deadline: when the
// transport supports deadlines (TCP, net.Pipe) and -idle-timeout is
// set, every read re-arms it; a session silent past the deadline is
// closed cleanly (see command) and counted.
func (c *session) scan() bool {
	if c.dl != nil && c.srv.idleTimeout > 0 {
		c.dl.SetReadDeadline(time.Now().Add(c.srv.idleTimeout))
	}
	if c.in.Scan() {
		return true
	}
	if errors.Is(c.in.Err(), os.ErrDeadlineExceeded) {
		c.srv.mu.Lock()
		c.srv.idleTimeouts++
		c.srv.mu.Unlock()
	}
	return false
}

// command reads one line and runs the verb it names.
func (c *session) command() error {
	if !c.scan() {
		c.closed = true
		// A scanner failure (e.g. a line beyond the 1 MB cap) must not kill
		// the session silently mid-protocol: tell the client before closing.
		err := c.in.Err()
		if errors.Is(err, os.ErrDeadlineExceeded) {
			return errors.New("idle timeout: closing session")
		}
		return err
	}
	line := strings.TrimSpace(c.in.Text())
	if line == "" || strings.HasPrefix(line, "#") {
		return nil
	}
	cmd, rest, _ := strings.Cut(line, " ")
	for _, v := range verbs {
		if v.name == cmd {
			return v.run(c, strings.TrimSpace(rest))
		}
	}
	names := make([]string, len(verbs))
	for i, v := range verbs {
		names[i] = v.name
	}
	return fmt.Errorf("unknown command %q (%s)", cmd, strings.Join(names, ", "))
}

// load reads program lines until a lone "." and installs the program.
func (c *session) load(string) error {
	var prog strings.Builder
	for {
		if !c.scan() {
			// Input ended before the lone ".": the program arrived
			// truncated, and loading whatever accumulated would silently
			// serve half a program. Keep the previous engine and tell the
			// client. A scanner FAILURE (e.g. a line beyond the 1 MiB cap)
			// additionally poisons the stream — scanning on could
			// reinterpret buffered program text as protocol commands — so
			// close the session; plain EOF just lets serve wind down.
			err := c.in.Err()
			if err == nil {
				return errors.New(`load: input ended before the terminating "." (program discarded, previous engine kept)`)
			}
			c.closed = true
			return fmt.Errorf("load: %v (program discarded, previous engine kept)", err)
		}
		l := c.in.Text()
		if strings.TrimSpace(l) == "." {
			break
		}
		prog.WriteString(l)
		prog.WriteByte('\n')
	}
	carried, err := c.srv.load(prog.String(), nil)
	var de *analyze.DiagError
	if errors.As(err, &de) {
		c.diags(de.Diags)
		return fmt.Errorf("load rejected: %d diagnostic(s) (previous engine kept)", len(de.Diags))
	}
	if err != nil {
		return err
	}
	warns := c.srv.loadWarnings()
	c.diags(warns)
	return c.reply("ok loaded warnings=%d carried=%d", len(warns), carried)
}

// diags lists diagnostics ahead of a load's final reply line.
func (c *session) diags(ds []analyze.Diagnostic) {
	for _, d := range ds {
		fmt.Fprintf(c.out, "diag %s\n", d)
	}
}

// writes is the handler behind both write verbs: parse the batch, send
// it down the write path, report what maintenance did.
func writes(op *writeOp) func(*session, string) error {
	return func(c *session, arg string) error {
		delta, err := parser.ParseInstance(arg)
		if err != nil {
			return err
		}
		n, st, err := c.srv.write(op, delta)
		if err != nil {
			return err
		}
		return c.reply("ok %s=%d derived=%d overdeleted=%d stamp_pruned=%d rederived=%d skipped=%d incremental=%d%s%s",
			op.word, n, st.Derived, st.Overdeleted, st.StampPruned, st.Rederived,
			st.Skipped, st.Incremental, planCounters(st.Plans), cloneCounters(st.Clones))
	}
}

// reads is the one prologue of every verb that reads the served engine.
func reads(run func(c *session, e *eval.Engine, arg string) error) func(*session, string) error {
	return func(c *session, arg string) error {
		e, err := c.srv.current()
		if err != nil {
			return err
		}
		return run(c, e, arg)
	}
}

// planCounters renders the plan-execution counters appended to
// assert/retract/stats replies: how often maintenance ran a
// delta-hoisted plan variant vs a base plan, and how the non-delta
// join steps of those runs were served (exact index, ground-prefix or
// ground-suffix probe, full scan).
func planCounters(ps eval.PlanStats) string {
	return fmt.Sprintf(" plan_variant=%d plan_base=%d probe_index=%d probe_prefix=%d probe_suffix=%d scan=%d",
		ps.VariantRuns, ps.BaseRuns, ps.IndexProbeSteps, ps.PrefixProbeSteps, ps.SuffixProbeSteps, ps.ScanSteps)
}

// cloneCounters renders the copy-on-write barrier counters appended to
// assert/retract/stats replies: how many frozen relations writes had
// to epoch-clone, how many sealed storage chunks those clones shared
// by pointer instead of copying, and approximately how many bytes they
// did copy. A serving mix of snapshot reads and writes should show
// shared_chunks growing much faster than clone_bytes — that ratio is
// the epoch-sharing win, observable here without a profiler.
func cloneCounters(cs instance.CloneStats) string {
	return fmt.Sprintf(" barrier_clones=%d shared_chunks=%d clone_bytes=%d",
		cs.BarrierClones, cs.SharedChunks, cs.CloneBytes)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seqlogd:", err)
	os.Exit(1)
}
