package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"seqlog/internal/ast"
	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/parser"
	"seqlog/internal/rewrite"
	"seqlog/internal/unify"
	"seqlog/internal/value"
	"seqlog/internal/wal"
)

// The per-layer metrics, reported by every workload's traced run; a
// layer a workload never enters reads 0 there, which is itself the
// check that the workload bypasses it. Layers are the repository's
// packages; every number is taken from outside them, by timing calls
// into public functions or reading counters the binaries print.
var perLayer = []struct{ name, unit string }{
	{"parser.parse_instance_us", "us"}, {"parser.parse_program_us", "us"},
	{"eval.compile_us", "us"}, {"eval.fixpoint_ms", "ms"}, {"eval.facts_per_s", "1/s"},
	{"eval.assert_us", "us"}, {"eval.derived_per_assert", "count"},
	{"eval.retract_us", "us"}, {"eval.overdeleted_per_retract", "count"}, {"eval.rederived_per_retract", "count"},
	{"eval.stamp_pruned_per_retract", "count"}, {"eval.dred_useful_ratio", "ratio"},
	{"eval.scan_steps", "count"}, {"eval.probe_steps", "count"}, {"eval.variant_runs", "count"}, {"eval.base_runs", "count"},
	{"eval.query_us", "us"}, {"eval.holds_us", "us"}, {"eval.edb_snapshot_us", "us"},
	{"instance.barrier_clones_per_op", "count"}, {"instance.clone_bytes_per_op", "B"}, {"instance.shared_chunks_per_op", "count"},
	{"instance.sorted_us", "us"}, {"value.render_us", "us"},
	{"instance.encode_us", "us"}, {"instance.decode_us", "us"},
	{"value.encode_ns_per_path", "ns"}, {"value.decode_ns_per_path", "ns"}, {"value.symbols", "count"},
	{"wal.append_us", "us"}, {"wal.append_nosync_us", "us"}, {"wal.append_idle_us", "us"}, {"wal.fsync_us", "us"},
	{"wal.bytes_per_record", "B"}, {"wal.write_amp", "ratio"},
	{"wal.checkpoint_ms", "ms"}, {"wal.checkpoint_bytes", "B"}, {"wal.checkpoints", "count"},
	{"wal.recover_ms", "ms"}, {"wal.records_replayed", "count"},
	{"daemon.assert_p50_us", "us"}, {"daemon.retract_p50_us", "us"}, {"daemon.query_p50_us", "us"}, {"daemon.holds_p50_us", "us"},
	{"protocol.assert_residual_us", "us"}, {"protocol.retract_residual_us", "us"},
	{"protocol.query_residual_us", "us"}, {"protocol.holds_residual_us", "us"},
	{"cli.child_wall_ms.reachability-200", "ms"}, {"cli.child_wall_ms.reachability-400", "ms"},
	{"cli.child_wall_ms.nfa-accept", "ms"}, {"cli.child_wall_ms.three-occurrences", "ms"},
	{"cli.child_wall_ms.reverse-arity", "ms"}, {"cli.child_wall_ms.reverse-noarity", "ms"},
	{"cli.child_wall_ms.process-mining", "ms"}, {"cli.child_wall_ms.squaring", "ms"},
	{"cli.residual_ms", "ms"},
	{"rewrite.eliminate_us", "us"}, {"unify.solve_us", "us"},
	{"replay.allocs_per_op", "count"}, {"replay.alloc_bytes_per_op", "B"},
	{"trace.overhead_pct", "%"},
	{"share.wal_pct", "%"}, {"share.eval_pct", "%"}, {"share.instance_value_pct", "%"}, {"share.parser_pct", "%"},
}

// zeroLayers gives every per-layer metric a 0 the run then overwrites
// where the layer ran.
func (r *record) zeroLayers() {
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0, 0)
	}
}

// layer overwrites one per-layer metric; a name perLayer does not list
// is a bug in the harness.
func (r *record) layer(name string, v float64, samples int) {
	m, ok := r.Result.Metrics[name]
	if !ok {
		panic("seqbench: undeclared per-layer metric " + name)
	}
	r.set(name, m.Unit, v, samples)
}

// The traced run sends the first tracedShare of the workload's op
// stream through the daemon and the same ops through the traced replay
// (one stream, so the residual compares like with like), the two
// alternating in traceChunks chunks.
const (
	tracedShare = 0.35
	traceChunks = 16
)

// roundRobin merges per-connection streams into the one sequence the
// traced run replays. The budget is for a request on its own; what two
// writers add — the wait for the other's turn — is in the end-to-end
// numbers only.
func roundRobin(streams [][]op) []op {
	var out []op
	for i := 0; ; i++ {
		took := false
		for _, s := range streams {
			if i < len(s) {
				out = append(out, s[i])
				took = true
			}
		}
		if !took {
			return out
		}
	}
}

// replayed is an in-process replay of a stream and what it has yielded
// so far.
type replayed struct {
	m                 *mirror
	busy              time.Duration // inside the requests
	attempted, failed int
	firstErr          error
	asserts, retracts int
	derived           int // over the asserts
	overdeleted       int // over the retracts, as the next two
	rederived         int
	pruned            int
	mallocs, bytes    uint64 // allocated while feeding
	symbols           int    // value.Symbols before the mirror started
	fixpointDerived   int
}

// startReplay starts a mirror on walDir.
func startReplay(tr *tracer, w *serving, walDir string) (*replayed, error) {
	res := &replayed{symbols: value.Symbols()}
	m, err := startMirror(tr, w, walDir)
	if err != nil {
		return nil, err
	}
	res.m = m
	res.fixpointDerived = m.engine.Stats().Derived
	return res, nil
}

// feed gives the mirror the next ops of the stream, holding each reply
// against the oracle's expectation as the client does.
func (res *replayed) feed(stream []op) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, o := range stream {
		began := time.Now()
		r, err := res.m.do(o)
		res.busy += time.Since(began)
		res.attempted++
		if err == nil {
			err = o.check(r)
		}
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("in-process replay: %w", err)
			}
			continue
		}
		switch o.verb {
		case "assert":
			res.asserts++
			d, _ := r.field("derived")
			res.derived += d
		case "retract":
			res.retracts++
			od, _ := r.field("overdeleted")
			rd, _ := r.field("rederived")
			pr, _ := r.field("stamp_pruned")
			res.overdeleted, res.rederived, res.pruned = res.overdeleted+od, res.rederived+rd, res.pruned+pr
		}
	}
	runtime.ReadMemStats(&after)
	res.mallocs += after.Mallocs - before.Mallocs
	res.bytes += after.TotalAlloc - before.TotalAlloc
}

// exactCounters are the stats fields the daemon and the mirror must
// agree on to the unit after the same stream.
var exactCounters = []string{"facts", "derived", "asserts", "retracts", "wal_records", "wal_bytes", "checkpoints",
	"barrier_clones", "shared_chunks", "clone_bytes", "plan_variant", "plan_base", "probe_index", "probe_prefix", "probe_suffix", "scan"}

// fidelity holds the mirror against the daemon: same outputs, same
// exact counters. A difference means the budget explains something
// other than seqlogd.
func fidelity(w *serving, m *mirror, daemonOut map[string][]string, daemonCounters map[string]int) error {
	for _, rel := range w.outputs {
		lines, err := m.lines(rel)
		if err != nil {
			return err
		}
		if same, diff := sameLines(lines, daemonOut[rel]); !same {
			return fmt.Errorf("mirror fidelity: query %s: in-process replay vs daemon: %s", rel, diff)
		}
	}
	mine := m.counters()
	for _, k := range exactCounters {
		if mine[k] != daemonCounters[k] {
			return fmt.Errorf("mirror fidelity: %s=%d in process, %d in the daemon", k, mine[k], daemonCounters[k])
		}
	}
	return nil
}

// traceServing fills the record from one traced run: the stream's
// first part through the real daemon (for the per-verb round trips and
// the counters), the same part replayed in process with spans, and the
// layers no request path reaches on its own (codecs, recovery, the
// unsynced append).
func (e *env) traceServing(rec *record, w *serving, seed int64, outDir string) error {
	rec.zeroLayers()
	seq := roundRobin(w.streams)
	part := seq[:scaled(len(seq), tracedShare)]
	rec.Labels = map[string]string{"budget": w.primaryVerb + " request"}
	note, check := rec.note, rec.check

	// The real daemon, one connection.
	inputs, err := e.writeInputs(w)
	if err != nil {
		return err
	}
	d, err := e.start(w.daemonArgs(inputs, filepath.Join(e.dir, "wal-daemon"))...)
	if err != nil {
		return err
	}
	rec.DaemonArgs = d.args
	base, err := d.counters()
	if err != nil {
		return err
	}
	// The daemon and the traced replay take the stream in alternating
	// chunks, so that a drift of the box (the disk, a neighbour) falls on
	// both sides of the difference the residual is.
	c, err := d.dial()
	if err != nil {
		return err
	}
	defer c.close()
	tr := newTracer()
	walDir := filepath.Join(e.dir, "wal-traced")
	traced, err := startReplay(tr, w, walDir)
	if err != nil {
		return err
	}
	settle()
	p := &phase{}
	for lo := 0; lo < len(part); {
		hi := lo + (len(part)+traceChunks-1)/traceChunks
		if hi > len(part) {
			hi = len(part)
		}
		c.send(part[lo:hi], p)
		traced.feed(part[lo:hi])
		lo = hi
	}
	note(p.attempted, p.failed, p.firstErr)
	counters, err := d.counters()
	if err != nil {
		return err
	}
	daemonOut, err := d.outputs(w.outputs)
	d.kill()
	if err != nil {
		return err
	}
	note(checkOutputs(daemonOut, w.expect(w.model([][]op{part})), "daemon"))
	for name, s := range p.verbs {
		rec.Ops[name] = len(s)
		if strings.Contains(name, ".") { // an aside series
			rec.detail("daemon."+name+"_p50_us", "us", us(s.p50()), len(s))
		} else {
			rec.layer("daemon."+name+"_p50_us", us(s.p50()), len(s))
		}
	}
	ops := float64(len(part))
	rec.layer("eval.scan_steps", float64(counters["scan"]), 1)
	rec.layer("eval.probe_steps", float64(counters["probe_index"]+counters["probe_prefix"]+counters["probe_suffix"]), 1)
	rec.layer("eval.variant_runs", float64(counters["plan_variant"]), 1)
	rec.layer("eval.base_runs", float64(counters["plan_base"]), 1)
	rec.layer("instance.barrier_clones_per_op", float64(counters["barrier_clones"]-base["barrier_clones"])/ops, len(part))
	rec.layer("instance.clone_bytes_per_op", float64(counters["clone_bytes"]-base["clone_bytes"])/ops, len(part))
	rec.layer("instance.shared_chunks_per_op", float64(counters["shared_chunks"]-base["shared_chunks"])/ops, len(part))

	note(traced.attempted, traced.failed, traced.firstErr)
	check(fidelity(w, traced.m, daemonOut, counters))
	mirrorCounters := traced.m.counters()
	edb, err := traced.m.engine.EDBSnapshot()
	if err != nil {
		return err
	}
	traced.m.crash()
	if err := tr.write(outDir, w.name, seed); err != nil {
		return err
	}
	prof := tr.digest()

	// What the spans cost: their number times the measured cost of one,
	// as a share of the time spent in the requests. A second replay with
	// spans off differs from the first by several percent either way for
	// other reasons (where collections fall), which buries a cost this
	// small.
	rec.layer("trace.overhead_pct", 100*ratio(float64(len(tr.spans))*float64(spanCost()), float64(traced.busy)), len(tr.spans))

	for _, l := range []struct{ metric, span string }{
		{"parser.parse_program_us", "parser.parse_program"}, {"eval.compile_us", "eval.compile"},
		{"eval.assert_us", "eval.assert"}, {"eval.retract_us", "eval.retract"},
		{"eval.query_us", "eval.query"}, {"eval.holds_us", "eval.holds"}, {"eval.edb_snapshot_us", "eval.edb_snapshot"},
		{"instance.sorted_us", "instance.sorted"}, {"value.render_us", "value.render"},
	} {
		rec.layer(l.metric, us(prof.p50(l.span)), len(prof.byName[l.span]))
	}
	// Request payloads only: the data file's one parse is set-up.
	var payloads series
	for _, s := range tr.spans {
		if s.name == "parser.parse_instance" && s.req >= 0 {
			payloads = append(payloads, time.Duration(s.end-s.start))
		}
	}
	rec.layer("parser.parse_instance_us", us(payloads.p50()), len(payloads))
	fix := prof.p50("eval.fixpoint")
	rec.layer("eval.fixpoint_ms", ms(fix), 1)
	rec.layer("eval.facts_per_s", ratio(float64(traced.fixpointDerived), fix.Seconds()), 1)
	rec.layer("eval.derived_per_assert", ratio(float64(traced.derived), float64(traced.asserts)), traced.asserts)
	rec.layer("eval.overdeleted_per_retract", ratio(float64(traced.overdeleted), float64(traced.retracts)), traced.retracts)
	rec.layer("eval.rederived_per_retract", ratio(float64(traced.rederived), float64(traced.retracts)), traced.retracts)
	rec.layer("eval.stamp_pruned_per_retract", ratio(float64(traced.pruned), float64(traced.retracts)), traced.retracts)
	rec.layer("eval.dred_useful_ratio", ratio(float64(traced.overdeleted-traced.rederived), float64(traced.overdeleted)), traced.retracts)
	rec.layer("value.symbols", float64(value.Symbols()-traced.symbols), 1)
	rec.layer("replay.allocs_per_op", float64(traced.mallocs)/ops, len(part))
	rec.layer("replay.alloc_bytes_per_op", float64(traced.bytes)/ops, len(part))

	measureCodecs(rec, edb)
	if w.sync != "" {
		appends := prof.byName["wal.append"]
		rec.layer("wal.append_us", us(appends.p50()), len(appends))
		nosync, err := appendScratch(filepath.Join(e.dir, "wal-nosync"), part, wal.SyncNever, 0, 4096)
		if err != nil {
			return err
		}
		rec.layer("wal.append_nosync_us", us(nosync.p50()), len(nosync))
		opts, err := walOptions(w.sync)
		if err != nil {
			return err
		}
		idle, err := appendScratch(filepath.Join(e.dir, "wal-idle"), part, opts.Sync, idleGap, 1024)
		if err != nil {
			return err
		}
		rec.layer("wal.append_idle_us", us(idle.p50()), len(idle))
		rec.layer("wal.fsync_us", us(appends.p50()-nosync.p50()), len(appends))
		rec.layer("wal.bytes_per_record", ratio(float64(mirrorCounters["wal_bytes"]), float64(mirrorCounters["wal_records"])), mirrorCounters["wal_records"])
		rec.layer("wal.write_amp", ratio(float64(int64(mirrorCounters["wal_bytes"])+traced.m.ckptBytes), float64(traced.m.payload)), 1)
		rec.layer("wal.checkpoint_ms", ms(prof.p50("wal.checkpoint")), len(prof.byName["wal.checkpoint"]))
		rec.layer("wal.checkpoint_bytes", float64(traced.m.lastCkptBytes), 1)
		rec.layer("wal.checkpoints", float64(mirrorCounters["checkpoints"]), 1)
		took, replayed, err := recoverLog(w, walDir, mirrorCounters["facts"])
		check(err)
		rec.layer("wal.recover_ms", ms(took.p50()), len(took))
		rec.layer("wal.records_replayed", float64(replayed), 1)
	}

	root := "request." + w.primaryVerb
	rec.Budget = prof.budget(root)
	for verb, s := range p.verbs {
		if strings.Contains(verb, ".") {
			continue
		}
		residual := us(s.p50()) - sumRows(prof.budget("request."+verb))
		rec.layer("protocol."+verb+"_residual_us", residual, len(s))
		if verb == w.primaryVerb {
			rec.Budget = append(rec.Budget, budgetRow{"protocol." + verb + "_residual_us", residual},
				budgetRow{"= daemon." + verb + "_p50_us", us(s.p50())})
		}
	}
	rec.layer("share.wal_pct", prof.share(root, "wal."), len(prof.requests[root]))
	rec.layer("share.eval_pct", prof.share(root, "eval."), len(prof.requests[root]))
	rec.layer("share.instance_value_pct", prof.share(root, "instance.", "value."), len(prof.requests[root]))
	rec.layer("share.parser_pct", prof.share(root, "parser."), len(prof.requests[root]))

	rec.finish()
	return nil
}

// measureCodecs times the snapshot codec on the engine's base facts
// and the value codec on every path in them.
func measureCodecs(rec *record, edb *instance.Instance) {
	const reps = 9
	var enc, dec series
	var buf []byte
	for i := 0; i < reps; i++ {
		began := time.Now()
		buf = edb.AppendBinary(buf[:0])
		enc = append(enc, time.Since(began))
		began = time.Now()
		if _, _, err := instance.DecodeInstance(buf); err != nil {
			panic(err) // the codec cannot read its own output
		}
		dec = append(dec, time.Since(began))
	}
	rec.layer("instance.encode_us", us(enc.p50()), reps)
	rec.layer("instance.decode_us", us(dec.p50()), reps)

	var paths []value.Path
	for _, name := range edb.Names() {
		for _, t := range edb.Relation(name).Tuples() {
			paths = append(paths, t...)
		}
	}
	if len(paths) == 0 {
		return
	}
	enc, dec = nil, nil
	for i := 0; i < reps; i++ {
		began := time.Now()
		buf = buf[:0]
		for _, p := range paths {
			buf = value.AppendPath(buf, p)
		}
		enc = append(enc, time.Since(began))
		began = time.Now()
		for rest := buf; len(rest) > 0; {
			var err error
			if _, rest, err = value.ConsumePath(rest); err != nil {
				panic(err)
			}
		}
		dec = append(dec, time.Since(began))
	}
	rec.layer("value.encode_ns_per_path", float64(enc.p50())/float64(len(paths)), len(paths))
	rec.layer("value.decode_ns_per_path", float64(dec.p50())/float64(len(paths)), len(paths))
}

// discard is a recovery handler for a log known to be empty.
type discard struct{}

func (discard) Restore(string, *instance.Instance) error { return nil }
func (discard) Replay(wal.Record) error                  { return nil }

// idleGap is the pause appendScratch can leave before each append: about
// what a daemon's core idles while its client reads the reply and
// writes the next request.
const idleGap = 50 * time.Microsecond

// appendScratch appends the stream's first write records (up to limit)
// to a fresh log under the given policy, pausing gap before each, and
// returns what each append took. With SyncNever it is the append
// without the fsync; with the workload's policy and idleGap it is the
// append as the daemon meets it, on a core that has just woken up — on
// the reference VM an fsync after such a pause takes about twice as
// long as one issued back to back, and that difference is most of a
// durable assert's protocol residual.
func appendScratch(dir string, stream []op, policy wal.SyncPolicy, gap time.Duration, limit int) (series, error) {
	l, err := wal.Open(dir, wal.Options{Sync: policy, CheckpointRecords: -1}, discard{})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	var took series
	for _, o := range stream {
		rec := wal.Record{Op: wal.OpAssert}
		switch o.verb {
		case "assert":
		case "retract":
			rec.Op = wal.OpRetract
		default:
			continue
		}
		if rec.Batch, err = parser.ParseInstance(o.arg); err != nil {
			return nil, err
		}
		time.Sleep(gap)
		began := time.Now()
		if err := l.Append(rec); err != nil {
			return nil, err
		}
		took = append(took, time.Since(began))
		if len(took) == limit {
			break
		}
	}
	return took, nil
}

const recoverBudget = 2 * time.Second

// recoverLog opens the directory the traced replay left behind, as a
// restart after kill -9 would, a few times over, and checks that what
// comes back is the state that was there.
func recoverLog(w *serving, dir string, wantFacts int) (series, int, error) {
	opts, err := walOptions(w.sync)
	if err != nil {
		return nil, 0, err
	}
	var took series
	replayed := 0
	// Up to recoverRuns opens, but no more than fit in recoverBudget:
	// replaying seq-window's log takes seconds.
	for began := time.Now(); len(took) < recoverRuns && (len(took) == 0 || time.Since(began) < recoverBudget); {
		h := &walHandler{rep: eval.Replayer{Limits: daemonLimits}}
		began := time.Now()
		l, err := wal.Open(dir, opts, h)
		if err != nil {
			return nil, 0, err
		}
		took = append(took, time.Since(began))
		replayed = l.Recovery().RecordsReplayed
		l.Close()
		if h.rep.Engine() == nil {
			return took, replayed, fmt.Errorf("wal.Open on the replay's directory recovered no engine")
		}
		if got := h.rep.Engine().Stats().Facts; got != wantFacts {
			return took, replayed, fmt.Errorf("wal.Open recovered %d facts, the replay ended with %d", got, wantFacts)
		}
	}
	return took, replayed, nil
}

// cliPass is cmd/seqlog's main for one suite program, in process: read
// the files, parse, compile, evaluate, sort and print. Prepared.Query
// is Eval plus a map lookup; calling Eval lets the pass count the
// derived facts.
func cliPass(tr *tracer, req int32, p batchProgram, args []string) (lines []string, derived int, err error) {
	root := tr.begin("request.seqlog", -1, req)
	defer tr.end(root)
	src, err := os.ReadFile(args[1])
	if err != nil {
		return nil, 0, err
	}
	var prog ast.Program
	tr.in("parser.parse_program", root, req, func() { prog, err = parser.ParseProgram(string(src)) })
	if err != nil {
		return nil, 0, err
	}
	var prep *eval.Prepared
	tr.in("eval.compile", root, req, func() { prep, err = eval.Compile(prog) })
	if err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(args[3])
	if err != nil {
		return nil, 0, err
	}
	var edb, out *instance.Instance
	tr.in("parser.parse_instance", root, req, func() { edb, err = parser.ParseInstance(string(data)) })
	if err != nil {
		return nil, 0, err
	}
	tr.in("eval.fixpoint", root, req, func() { out, err = prep.Eval(edb, daemonLimits) })
	if err != nil {
		return nil, 0, err
	}
	names := prog.IDBNames()
	if p.output != "" {
		names = []string{p.output}
	}
	var printed bytes.Buffer
	for _, n := range names {
		rel := out.Relation(n)
		if rel == nil {
			continue
		}
		var sorted []instance.Tuple
		tr.in("instance.sorted", root, req, func() { sorted = rel.Sorted() })
		tr.in("value.render", root, req, func() { renderTuples(&printed, n, sorted) })
	}
	if printed.Len() > 0 {
		lines = strings.Split(strings.TrimSuffix(printed.String(), "\n"), "\n")
	}
	return lines, out.Facts() - edb.Facts(), nil
}

// traceBatch fills the record from a traced run of batch-eval: for
// each program of each pass the CLI as a child and then the same work
// in process with spans (side by side, so that a drift of the box falls
// on both), then the paper-facing half's own layers.
func (e *env) traceBatch(rec *record, seed int64, scale float64, outDir string) error {
	rec.zeroLayers()
	rec.Labels = map[string]string{"budget": "suite pass"}
	passes := scaled(scaled(batchPasses, scale), tracedShare)
	suite := genBatch(seed, e.shrink())
	argv, err := writeSuite(filepath.Join(e.dir, "suite"), suite)
	if err != nil {
		return err
	}
	check := rec.check
	tr := newTracer()
	symbols := value.Symbols()
	walls := map[string]series{}
	var mallocs, bytes uint64
	var busy time.Duration
	derived := 0
	for pass := 0; pass < passes; pass++ {
		derived = 0
		for i, p := range suite {
			c := e.runChild(argv[i], p.want)
			check(c.err)
			if c.err == nil {
				walls[p.name] = append(walls[p.name], c.wall)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			began := time.Now()
			lines, d, err := cliPass(tr, int32(i), p, argv[i])
			busy += time.Since(began)
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
			if err == nil {
				if same, diff := sameLines(lines, p.want); !same {
					err = fmt.Errorf("in-process %s: %s", p.name, diff)
				}
			}
			check(err)
			derived += d
		}
	}
	if err := tr.write(outDir, "batch-eval", seed); err != nil {
		return err
	}
	prof := tr.digest()
	n := passes * len(suite)
	rec.Ops["seqlog"] = n
	var childSum time.Duration
	for name, s := range walls {
		rec.layer("cli.child_wall_ms."+name, ms(s.p50()), len(s))
		childSum += s.p50()
	}

	// Per pass: the sum over the suite of each layer's per-program p50.
	perPass := func(span string) time.Duration {
		byProgram := map[int32]series{}
		for _, s := range tr.spans {
			if s.name == span {
				byProgram[s.req] = append(byProgram[s.req], time.Duration(s.end-s.start))
			}
		}
		var sum time.Duration
		for _, s := range byProgram {
			sum += s.p50()
		}
		return sum
	}
	fix := perPass("eval.fixpoint")
	rec.layer("eval.fixpoint_ms", ms(fix), n)
	rec.layer("eval.facts_per_s", ratio(float64(derived), fix.Seconds()), n)
	rec.layer("value.symbols", float64(value.Symbols()-symbols), 1)
	rec.layer("replay.allocs_per_op", float64(mallocs)/float64(n), n)
	rec.layer("replay.alloc_bytes_per_op", float64(bytes)/float64(n), n)
	rec.layer("trace.overhead_pct", 100*ratio(float64(len(tr.spans))*float64(spanCost()), float64(busy)), len(tr.spans))
	rec.layer("share.eval_pct", prof.share("request.seqlog", "eval."), n)
	rec.layer("share.instance_value_pct", prof.share("request.seqlog", "instance.", "value."), n)
	rec.layer("share.parser_pct", prof.share("request.seqlog", "parser."), n)
	for _, l := range []struct{ metric, span string }{
		{"parser.parse_program_us", "parser.parse_program"}, {"eval.compile_us", "eval.compile"},
		{"parser.parse_instance_us", "parser.parse_instance"}, {"eval.fixpoint_ms", "eval.fixpoint"},
		{"instance.sorted_us", "instance.sorted"}, {"value.render_us", "value.render"},
	} {
		if l.span != "eval.fixpoint" {
			rec.layer(l.metric, us(perPass(l.span)), n)
		}
		rec.Budget = append(rec.Budget, budgetRow{l.span, us(perPass(l.span))})
	}
	inProcess := perPass("request.seqlog")
	rec.layer("cli.residual_ms", ms(childSum-inProcess), n)
	rec.Budget = append(rec.Budget, budgetRow{"seqlog.self (file reads)", us(inProcess) - sumRows(rec.Budget)},
		budgetRow{"cli.residual_ms", us(childSum - inProcess)},
		budgetRow{"= sum of cli.child_wall_ms", us(childSum)})

	check(measureRewrites(rec, suite))
	rec.finish()
	return nil
}

func sumRows(rows []budgetRow) float64 {
	var s float64
	for _, r := range rows {
		s += r.P50us
	}
	return s
}

// measureRewrites times the paper-facing half on the suite programs
// that have the feature each rewrite removes, and associative
// unification on the equation of the paper's Figure 2.
func measureRewrites(rec *record, suite []batchProgram) error {
	const reps = 15
	programs := map[string]ast.Program{}
	for _, p := range suite {
		prog, err := parser.ParseProgram(p.program)
		if err != nil {
			return err
		}
		programs[p.name] = prog
	}
	rewrites := []func() error{
		func() error { _, err := rewrite.EliminateEquations(programs["process-mining"]); return err },
		func() error { _, err := rewrite.EliminatePacking(programs["three-occurrences"], "A"); return err },
		func() error {
			_, err := rewrite.EliminateArity(programs["reverse-arity"], rewrite.DefaultArityMarkers)
			return err
		},
	}
	var total time.Duration
	for _, f := range rewrites {
		var took series
		for i := 0; i < reps; i++ {
			began := time.Now()
			if err := f(); err != nil {
				return fmt.Errorf("rewrite: %w", err)
			}
			took = append(took, time.Since(began))
		}
		total += took.p50()
	}
	rec.layer("rewrite.eliminate_us", us(total), reps*len(rewrites))

	eq := unify.Equation{
		L: ast.Cat(ast.P("x"), ast.Packed(ast.Cat(ast.A("y"), ast.P("z"))), ast.A("w")),
		R: ast.Cat(ast.P("u"), ast.P("v"), ast.P("u")),
	}
	var took series
	for i := 0; i < reps; i++ {
		began := time.Now()
		if res := unify.Solve(eq, unify.Options{}); len(res.Solutions) != 4 {
			return fmt.Errorf("unify: Figure 2's equation has 4 solutions, Solve found %d", len(res.Solutions))
		}
		took = append(took, time.Since(began))
	}
	rec.layer("unify.solve_us", us(took.p50()), reps)
	return nil
}
