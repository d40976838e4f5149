package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"seqlog/internal/ast"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/wal"
)

// mirror makes, in this process, the calls cmd/seqlogd makes for a
// request — the same public functions in the same order as main's
// start-up, server.load/assert/retract and the query and holds arms of
// serve — with a span around each. It exists so that a request's time
// can be split by layer without touching the daemon; the fidelity
// check (same outputs, same exact counters as the real daemon on the
// same stream) keeps it from drifting away from what it explains.
type mirror struct {
	tr     *tracer
	limits eval.Limits
	engine *eval.Engine
	src    string
	wal    *wal.Log
	out    *bufio.Writer // where replies are rendered: nowhere
	// payload counts the request bytes of the write verbs, for write
	// amplification.
	payload int64
	// ckptBytes sums the sizes of the checkpoint files as written,
	// lastCkptBytes is the newest one's.
	ckptBytes, lastCkptBytes int64
	walDir                   string
	reqs                     int32
}

// daemonLimits are the limits seqlogd runs with when given no flags.
var daemonLimits = eval.Limits{MaxFacts: eval.DefaultLimits.MaxFacts, Parallelism: 1}

// walHandler is cmd/seqlogd's: WAL recovery into the engine's replay
// entry point.
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

func walOptions(sync string) (wal.Options, error) {
	policy, err := wal.ParseSyncPolicy(sync)
	return wal.Options{Sync: policy, SyncEvery: 100 * time.Millisecond, CheckpointRecords: checkpointEvery}, err
}

// startMirror is seqlogd's start-up on an empty WAL directory: open
// the log, parse the data, load the program, cut the first checkpoint.
func startMirror(tr *tracer, w *serving, walDir string) (*mirror, error) {
	m := &mirror{tr: tr, limits: daemonLimits, out: bufio.NewWriter(io.Discard), walDir: walDir}
	root := tr.begin("setup", -1, -1)
	defer tr.end(root)
	if w.sync != "" {
		opts, err := walOptions(w.sync)
		if err != nil {
			return nil, err
		}
		h := &walHandler{rep: eval.Replayer{Limits: m.limits}}
		tr.in("wal.recover", root, -1, func() { m.wal, err = wal.Open(walDir, opts, h) })
		if err != nil {
			return nil, err
		}
	}
	var edb *instance.Instance
	var err error
	tr.in("parser.parse_instance", root, -1, func() { edb, err = parser.ParseInstance(w.data) })
	if err != nil {
		return nil, err
	}
	if err := m.load(root, w.program, edb); err != nil {
		return nil, err
	}
	m.maybeCheckpoint(root, -1, true)
	return m, nil
}

// load is server.load with an explicit EDB.
func (m *mirror) load(parent int32, src string, edb *instance.Instance) error {
	var prog ast.Program
	var prep *eval.Prepared
	var err error
	m.tr.in("parser.parse_program", parent, -1, func() { prog, _, err = parser.ParseProgramForAnalysis(src) })
	if err != nil {
		return err
	}
	m.tr.in("eval.compile", parent, -1, func() { prep, err = eval.Compile(prog) })
	if err != nil {
		return err
	}
	m.tr.in("eval.fixpoint", parent, -1, func() { m.engine, err = eval.NewEngine(prep, edb, m.limits) })
	if err != nil {
		return err
	}
	if err := m.logRecord(parent, -1, wal.Record{Op: wal.OpLoad, Program: src}); err != nil {
		return err
	}
	m.src = src
	m.maybeCheckpoint(parent, -1, false)
	return nil
}

func (m *mirror) logRecord(parent, req int32, rec wal.Record) error {
	if m.wal == nil {
		return nil
	}
	var err error
	m.tr.in("wal.append", parent, req, func() { err = m.wal.Append(rec) })
	return err
}

func (m *mirror) maybeCheckpoint(parent, req int32, force bool) {
	if m.wal == nil || (!force && !m.wal.ShouldCheckpoint()) {
		return
	}
	ck := m.tr.begin("seqlogd.checkpoint", parent, req)
	var edb *instance.Instance
	var err error
	m.tr.in("eval.edb_snapshot", ck, req, func() { edb, err = m.engine.EDBSnapshot() })
	if err == nil {
		m.tr.in("wal.checkpoint", ck, req, func() { err = m.wal.Checkpoint(m.src, edb) })
	}
	m.tr.end(ck)
	if err != nil {
		return
	}
	// The newest checkpoint's size, for write amplification.
	if files, _ := filepath.Glob(filepath.Join(m.walDir, "checkpoint-*.ckpt")); len(files) > 0 {
		sort.Strings(files)
		if st, err := os.Stat(files[len(files)-1]); err == nil {
			m.lastCkptBytes = st.Size()
			m.ckptBytes += st.Size()
		}
	}
}

// do serves one request the way serve's switch does.
func (m *mirror) do(o op) (reply, error) {
	req := m.reqs
	m.reqs++
	if m.tr != nil {
		m.tr.aside = o.aside != ""
	}
	root := m.tr.begin("request."+o.series(), -1, req)
	defer m.tr.end(root)
	var r reply
	switch o.verb {
	case "assert", "retract":
		var delta *instance.Instance
		var err error
		m.tr.in("parser.parse_instance", root, req, func() { delta, err = parser.ParseInstance(o.arg) })
		if err != nil {
			return r, err
		}
		if err := m.engine.Err(); err != nil {
			return r, err
		}
		m.payload += int64(len(o.arg))
		// The fields of the daemon's reply that the client checks and the
		// replay totals.
		final := func(word string, n, derived, overdeleted, pruned, rederived int, c instance.CloneStats) string {
			return fmt.Sprintf("ok %s=%d derived=%d overdeleted=%d stamp_pruned=%d rederived=%d barrier_clones=%d shared_chunks=%d clone_bytes=%d",
				word, n, derived, overdeleted, pruned, rederived, c.BarrierClones, c.SharedChunks, c.CloneBytes)
		}
		if o.verb == "assert" {
			if err := m.logRecord(root, req, wal.Record{Op: wal.OpAssert, Batch: delta}); err != nil {
				return r, err
			}
			var st eval.AssertStats
			m.tr.in("eval.assert", root, req, func() { st, err = m.engine.Assert(delta) })
			m.maybeCheckpoint(root, req, false)
			r.final = final("asserted", st.Asserted, st.Derived, st.Overdeleted, st.StampPruned, st.Rederived, st.Clones)
			return r, err
		}
		if err := m.logRecord(root, req, wal.Record{Op: wal.OpRetract, Batch: delta}); err != nil {
			return r, err
		}
		var st eval.RetractStats
		m.tr.in("eval.retract", root, req, func() { st, err = m.engine.Retract(delta) })
		m.maybeCheckpoint(root, req, false)
		r.final = final("retracted", st.Retracted, st.Derived, st.Overdeleted, st.StampPruned, st.Rederived, st.Clones)
		return r, err
	case "query":
		lines, err := m.query(root, req, o.arg)
		r.rows = lines
		r.final = fmt.Sprintf("ok n=%d", lines)
		return r, err
	case "holds":
		var yes bool
		var err error
		m.tr.in("eval.holds", root, req, func() { yes, err = m.engine.Holds(o.arg) })
		r.final = fmt.Sprintf("ok %v", yes)
		return r, err
	}
	return r, fmt.Errorf("the mirror has no verb %q", o.verb)
}

// query is serve's query arm: Engine.Query, Relation.Sorted, then each
// tuple rendered into the reply buffer.
func (m *mirror) query(parent, req int32, rel string) (int, error) {
	var r *instance.Relation
	var err error
	m.tr.in("eval.query", parent, req, func() { r, err = m.engine.Query(rel) })
	if err != nil {
		return 0, err
	}
	var sorted []instance.Tuple
	m.tr.in("instance.sorted", parent, req, func() { sorted = r.Sorted() })
	m.tr.in("value.render", parent, req, func() { renderTuples(m.out, rel, sorted) })
	return r.Len(), nil
}

// renderTuples prints tuples the way seqlogd and seqlog do.
func renderTuples(out io.Writer, rel string, tuples []instance.Tuple) {
	for _, t := range tuples {
		if len(t) == 0 {
			fmt.Fprintf(out, "%s.\n", rel)
			continue
		}
		parts := make([]string, len(t))
		for i, p := range t {
			parts[i] = p.String()
		}
		fmt.Fprintf(out, "%s(%s).\n", rel, strings.Join(parts, ", "))
	}
}

// lines renders a relation of the served engine as fact lines.
func (m *mirror) lines(rel string) ([]string, error) {
	r, err := m.engine.Query(rel)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	renderTuples(&b, rel, r.Sorted())
	if b.Len() == 0 {
		return nil, nil
	}
	return strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n"), nil
}

// counters is the daemon's stats reply, for the fields both sides
// count exactly.
func (m *mirror) counters() map[string]int {
	st := m.engine.Stats()
	c := map[string]int{
		"facts": st.Facts, "derived": st.Derived, "asserts": st.Asserts, "retracts": st.Retracts,
		"plan_variant": st.Plans.VariantRuns, "plan_base": st.Plans.BaseRuns,
		"probe_index": st.Plans.IndexProbeSteps, "probe_prefix": st.Plans.PrefixProbeSteps,
		"probe_suffix": st.Plans.SuffixProbeSteps, "scan": st.Plans.ScanSteps,
		"barrier_clones": int(st.Clones.BarrierClones), "shared_chunks": int(st.Clones.SharedChunks), "clone_bytes": int(st.Clones.CloneBytes),
		"wal_records": 0, "wal_bytes": 0, "checkpoints": 0,
	}
	if m.wal != nil {
		c["wal_records"], c["wal_bytes"], c["checkpoints"] = m.wal.Records(), int(m.wal.Bytes()), m.wal.Checkpoints()
	}
	return c
}

// crash drops the mirror the way kill -9 drops the daemon: the log's
// file handle is closed, no final checkpoint is cut.
func (m *mirror) crash() {
	if m.wal != nil {
		m.wal.Close()
	}
}
