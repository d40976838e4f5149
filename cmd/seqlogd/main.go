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
// behind them. The served engine is published whole through an atomic
// pointer, so readers take no server lock.
//
// With -wal-dir the daemon is durable: every accepted load, assert
// and retract is appended to a write-ahead log before it is applied,
// checkpoints bound replay time, and startup recovers the pre-crash
// state (see docs/durability.md). Recovery is the live path: a load
// and a restored checkpoint build their engine with eval.FromSource,
// and a write and a replayed record both run through Engine.Apply. If
// the log itself fails mid-flight the daemon degrades to read-only —
// writes are refused with "err readonly: ...", queries keep serving
// the last durable state. SIGINT/SIGTERM shut down gracefully: stop
// accepting, drain sessions, cut a final checkpoint, close the log.
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
//	stats                 engine and daemon counters on one line
//	stats json            the same as one JSON line, plus per-verb
//	                      latency rows and the WAL and recovery timings
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
	"sync/atomic"
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
		policy := must(wal.ParseSyncPolicy(*syncMode))
		records := *ckptEvery
		if records == 0 {
			records = -1
		}
		rep := &eval.Replayer{Limits: srv.limits}
		l := must(wal.Open(*walDir, wal.Options{
			Sync:              policy,
			SyncEvery:         *syncEvery,
			CheckpointRecords: records,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "seqlogd: "+format+"\n", args...)
			},
		}, rep))
		srv.wal, srv.recovery = l, l.Recovery()
		if rs := srv.recovery; rep.Engine() != nil {
			srv.install(rep.Engine(), rep.Source())
			fmt.Fprintf(os.Stderr, "seqlogd: recovered %d WAL records (checkpoint generation %d) in decode %v, restore %v, replay %v\n",
				rs.RecordsReplayed, rs.CheckpointGen, rs.Decode, rs.Restore, rs.Replay)
			if *programFile != "" {
				fmt.Fprintln(os.Stderr, "seqlogd: WAL recovery restored a program; ignoring -program/-data")
			}
			recovered = true
		}
	}

	if !recovered && *programFile != "" {
		src, edb := must(os.ReadFile(*programFile)), instance.New()
		if *dataFile != "" {
			var err error
			edb, err = parser.ParseInstance(string(must(os.ReadFile(*dataFile))))
			if err != nil {
				fail(fmt.Errorf("%s: %w", *dataFile, err))
			}
		}
		if _, _, err := srv.load(string(src), edb); err != nil {
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
	ln := must(net.Listen("tcp", *listen))
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
			// Timeout covers the modern contract; Temporary is deprecated
			// as advice but still how the runtime classifies the accept
			// errors that matter here (EMFILE, ECONNABORTED).
			var ne net.Error
			if errors.As(err, &ne) && !ne.Timeout() && !ne.Temporary() {
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
		srv.conns.Store(conn, nil)
		go func() {
			defer srv.sessions.Done()
			defer srv.conns.Delete(conn)
			defer conn.Close()
			srv.serve(conn, conn)
		}()
	}
}

// server holds the one engine every connection shares. The engine
// serializes its own writers and serves reads from snapshots; the
// served state is published whole through an atomic pointer, so
// readers take no lock, and wmu, the server's one mutex, serializes
// the write verbs end to end — WAL append order is engine apply order,
// which is what makes replay faithful.
type server struct {
	limits      eval.Limits
	idleTimeout time.Duration

	state atomic.Pointer[served]
	// conns holds the open TCP sessions' connections, for drain.
	conns sync.Map

	wmu sync.Mutex
	wal *wal.Log
	// recovery is what WAL recovery did at startup.
	recovery wal.RecoveryStats

	reg registry

	sessions sync.WaitGroup
}

// served is what the daemon serves, never changed once published: the
// engine, its program's source text (the WAL's current load epoch,
// written into every checkpoint) and the program's analyzer warnings
// (for load replies and stats).
type served struct {
	engine   *eval.Engine
	src      string
	warnings []analyze.Diagnostic
}

// install publishes e, compiled from src, as the served state.
func (s *server) install(e *eval.Engine, src string) *served {
	st := &served{engine: e, src: src}
	for _, d := range e.Prepared().Diagnostics() {
		if d.Severity == analyze.Warning {
			st.warnings = append(st.warnings, d)
		}
	}
	s.state.Store(st)
	return st
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
		s.conns.Range(func(c, _ any) bool {
			c.(net.Conn).Close()
			return true
		})
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
	if (s.wal.Records() > 0 || s.recovery.RecordsReplayed > 0) && s.wal.Err() == nil {
		s.maybeCheckpoint(true)
	}
	if err := s.wal.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "seqlogd: closing WAL: %v\n", err)
	}
}

// readonly is the daemon's degradation, read off the WAL's sticky
// failure (nil while the log is healthy or absent): durability can no
// longer be promised, so writes are refused while queries keep serving
// the last durable state. Callers hold wmu.
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
	err := s.wal.Append(rec)
	s.publish()
	if ro := s.readonly(); ro != nil {
		fmt.Fprintf(os.Stderr, "seqlogd: WAL append failed, degrading to read-only: %v\n", err)
		return ro
	}
	return err // nil, or an encoding error: nothing was written, the log stays healthy
}

// maybeCheckpoint cuts a checkpoint when the WAL's trigger fires (or
// force is set): the served program plus the engine's base facts,
// after which the replayed WAL prefix is dropped. A failed checkpoint
// is logged and non-fatal — the WAL alone keeps the state
// recoverable. Callers hold wmu.
func (s *server) maybeCheckpoint(force bool) {
	st := s.state.Load()
	if st == nil || s.wal == nil || s.wal.Err() != nil || (!force && !s.wal.ShouldCheckpoint()) {
		return
	}
	edb, err := st.engine.EDBSnapshot()
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqlogd: checkpoint skipped: %v\n", err)
		return
	}
	if err := s.wal.Checkpoint(st.src, edb); err != nil {
		fmt.Fprintf(os.Stderr, "seqlogd: checkpoint failed: %v\n", err)
	}
	s.publish()
}

// write is the one place a batch is logged, applied to the engine and
// checkpoint-triggered, WAL first: a batch the log cannot make durable
// never reaches the engine.
func (s *server) write(rec wal.Record) (int, eval.MaintenanceStats, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	st, err := s.current()
	if err == nil {
		// A broken engine rejects the batch itself; don't log a record
		// replay could never apply.
		err = st.engine.Err()
	}
	if err == nil {
		err = s.logRecord(rec)
	}
	if err != nil {
		return 0, eval.MaintenanceStats{}, err
	}
	n, ms, err := st.engine.Apply(rec)
	s.maybeCheckpoint(false)
	return n, ms, err
}

// load compiles src and replaces the served engine with a fresh one,
// returning the new served state and the number of facts carried over.
// A nil edb means "carry the EDB over" (eval.CarryEDB), so a program
// upgrade keeps the live fact base; an explicit edb (the -program/-data
// startup path) is used as given. A program the static analyzer
// rejects returns an *analyze.DiagError, is counted in stats, and
// leaves the previous engine serving, as does a load whose initial
// fixpoint fails or that the WAL refuses.
//
// Under -wal-dir a load whose fixpoint succeeded is logged as an OpLoad
// record — the start of a new load epoch, carrying only the program —
// before the engine swap; replay reconstructs the same carried EDB
// through the same CarryEDB and eval.FromSource (eval.Replayer.Load).
// The snapshot, the record and the swap all happen under the write
// lock, so no concurrent assert can slip between the carried state and
// the logged load.
func (s *server) load(src string, edb *instance.Instance) (*served, int, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	carried := 0
	if st := s.state.Load(); edb == nil && st != nil { // no engine yet: edb stays nil, empty
		edb, carried = eval.CarryEDB(st.engine)
	}
	e, err := eval.FromSource(src, edb, s.limits)
	if errors.As(err, new(*analyze.DiagError)) {
		s.reg.rejectedLoads.Add(1)
	}
	if err == nil {
		err = s.logRecord(wal.Record{Op: wal.OpLoad, Program: src})
	}
	if err != nil {
		return nil, 0, err
	}
	st := s.install(e, src)
	s.maybeCheckpoint(false)
	return st, carried, nil
}

// current returns the served state, or an error when none is loaded.
func (s *server) current() (*served, error) {
	if st := s.state.Load(); st != nil {
		return st, nil
	}
	return nil, fmt.Errorf("no program loaded (use the load command or -program)")
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
	// mark is when the running request's current phase began; laps
	// holds the time charged to each phase so far (see lap).
	mark time.Time
	laps [nPhases]time.Duration
}

// verbs is the protocol, in the order the unknown-command reply lists
// it. A handler gets the rest of the command line; it either sends its
// own "ok ..." reply or returns the error sent as "err ...". It may lap
// the parse and apply phases; the rest of the request is its reply.
var verbs = []struct {
	name string
	run  func(c *session, arg string) error
}{
	{"load", (*session).load},
	{"assert", writes(wal.OpAssert)},
	{"retract", writes(wal.OpRetract)},
	{"query", reads(func(c *session, st *served, name string) error {
		rel, err := st.engine.Query(name)
		c.lap(applyPhase)
		if err != nil {
			return err
		}
		if err := rel.WriteFacts(c.out, name); err != nil {
			return err
		}
		return c.reply("ok n=%d", rel.Len())
	})},
	{"holds", reads(func(c *session, st *served, name string) error {
		yes, err := st.engine.Holds(name)
		c.lap(applyPhase)
		if err != nil {
			return err
		}
		return c.reply("ok %v", yes)
	})},
	{"stats", reads((*session).stats)},
	{"explain", reads(func(c *session, st *served, _ string) error {
		for _, l := range st.engine.Prepared().Explain() {
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
		c.srv.reg.idleTimeouts.Add(1)
	}
	return false
}

// command reads one line, runs the verb it names and counts the
// request in the verb's registry row.
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
	for i, v := range verbs {
		if v.name == cmd {
			row := c.srv.reg.row(i)
			c.mark, c.laps = time.Now(), [nPhases]time.Duration{}
			err := v.run(c, strings.TrimSpace(rest))
			if err != nil {
				c.reply("err %v", err)
			}
			c.lap(replyPhase)
			row.record(&c.laps, err != nil)
			return nil
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
	c.lap(parsePhase)
	st, carried, err := c.srv.load(prog.String(), nil)
	c.lap(applyPhase)
	var de *analyze.DiagError
	if errors.As(err, &de) {
		c.diags(de.Diags)
		return fmt.Errorf("load rejected: %d diagnostic(s) (previous engine kept)", len(de.Diags))
	}
	if err != nil {
		return err
	}
	c.diags(st.warnings)
	return c.reply("ok loaded warnings=%d carried=%d", len(st.warnings), carried)
}

// diags lists diagnostics ahead of a load's final reply line.
func (c *session) diags(ds []analyze.Diagnostic) {
	for _, d := range ds {
		fmt.Fprintf(c.out, "diag %s\n", d)
	}
}

// writes is the handler behind both write verbs: parse the batch, send
// it down the write path as an op record, report what maintenance did.
func writes(op wal.Op) func(*session, string) error {
	return func(c *session, arg string) error {
		delta, err := parser.ParseInstance(arg)
		c.lap(parsePhase)
		if err != nil {
			return err
		}
		n, st, err := c.srv.write(wal.Record{Op: op, Batch: delta})
		c.lap(applyPhase)
		if err != nil {
			return err
		}
		copy(c.laps[validatePhase:], []time.Duration{st.Validate, st.Barrier, st.Overdelete, st.Reinsert, st.Compact})
		return c.replyFields(work([]field{{op.String() + "ed", n}, {"derived", st.Derived}, {"overdeleted", st.Overdeleted},
			{"stamp_pruned", st.StampPruned}, {"rederived", st.Rederived}, {"skipped", st.Skipped},
			{"incremental", st.Incremental}}, st.Plans, st.Clones))
	}
}

// reads is the one prologue of every verb that reads the served state.
func reads(run func(c *session, st *served, arg string) error) func(*session, string) error {
	return func(c *session, arg string) error {
		st, err := c.srv.current()
		if err != nil {
			return err
		}
		return run(c, st, arg)
	}
}

// must returns v, or ends the daemon with err.
func must[T any](v T, err error) T {
	if err != nil {
		fail(err)
	}
	return v
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seqlogd:", err)
	os.Exit(1)
}
