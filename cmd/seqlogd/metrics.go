package main

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"seqlog/internal/eval"
	"seqlog/internal/instance"
	"seqlog/internal/value"
)

// Request phases: parse, apply and reply split a verb's latency (a
// handler laps parse and apply, the rest is reply); the other five are
// the parts of a write's apply that eval.MaintenanceStats times.
const (
	parsePhase = iota
	applyPhase
	replyPhase
	validatePhase // then barrier, overdelete, reinsert, compact
	nPhases       = validatePhase + 5
)

var phaseNames = [nPhases]string{"parse", "apply", "reply", "validate", "barrier", "overdelete", "reinsert", "compact"}

// registry is the daemon's stats: a row per entry of the verbs table
// and the daemon's own counters, all atomics, so `stats` never waits on
// wmu. The zero value is ready.
type registry struct {
	once                        sync.Once
	rows                        []verbRow
	rejectedLoads, idleTimeouts atomic.Int64
	wal                         atomic.Pointer[walCounters] // see publish
}

// verbRow is one verb's row. hist[0] counts requests under 1 µs,
// hist[i] those in [2^(i-1), 2^i) µs, hist[23] all from 2^22 µs up.
type verbRow struct {
	name                 string
	calls, errors, total atomic.Int64
	phases               [nPhases]atomic.Int64
	hist                 [24]atomic.Int64
}

// walCounters is the WAL's state after the last write or checkpoint.
type walCounters struct {
	records, checkpoints   int
	bytes                  int64
	readonly               bool
	appendT, fsyncT, ckptT time.Duration
}

// row returns the row of verbs[i]. A request takes its row before it
// runs, so `stats json` finds the rows made.
func (r *registry) row(i int) *verbRow {
	r.once.Do(func() {
		r.rows = make([]verbRow, len(verbs))
		for i := range verbs {
			r.rows[i].name = verbs[i].name
		}
	})
	return &r.rows[i]
}

// record counts one finished request.
func (r *verbRow) record(laps *[nPhases]time.Duration, failed bool) {
	total := laps[parsePhase] + laps[applyPhase] + laps[replyPhase]
	r.calls.Add(1)
	if failed {
		r.errors.Add(1)
	}
	r.total.Add(int64(total))
	for p, d := range laps {
		r.phases[p].Add(int64(d))
	}
	r.hist[min(bits.Len64(uint64(total/time.Microsecond)), len(r.hist)-1)].Add(1)
}

// lap charges the time since the last lap (or the start) to phase p.
func (c *session) lap(p int) {
	now := time.Now()
	c.laps[p] += now.Sub(c.mark)
	c.mark = now
}

// publish copies the WAL's counters into the registry. Callers hold wmu.
func (s *server) publish() {
	a, f, ck := s.wal.Times()
	s.reg.wal.Store(&walCounters{s.wal.Records(), s.wal.Checkpoints(), s.wal.Bytes(), s.wal.Err() != nil, a, f, ck})
}

// field is one name=value of an "ok" line and one key of `stats json`.
type field struct {
	name string
	val  any
}

// replyFields sends an "ok" line of name=value fields.
func (c *session) replyFields(fs []field) error {
	c.out.WriteString("ok")
	for _, f := range fs {
		fmt.Fprintf(c.out, " %s=%v", f.name, f.val)
	}
	return c.reply("")
}

// work appends what write replies and stats share: eval.PlanStats,
// then the copy-on-write barrier's instance.CloneStats.
func work(fs []field, ps eval.PlanStats, cs instance.CloneStats) []field {
	return append(fs, field{"plan_variant", ps.VariantRuns}, field{"plan_base", ps.BaseRuns}, field{"plan_goal", ps.GoalRuns},
		field{"probe_index", ps.IndexProbeSteps}, field{"probe_prefix", ps.PrefixProbeSteps},
		field{"probe_suffix", ps.SuffixProbeSteps}, field{"scan", ps.ScanSteps},
		field{"barrier_clones", cs.BarrierClones}, field{"shared_chunks", cs.SharedChunks}, field{"clone_bytes", cs.CloneBytes})
}

// stats answers `stats`: the engine's counters (they reset on load),
// then the daemon's. `stats json` sends them as one JSON line, with the
// verb rows, the WAL's and recovery's timings and the symbol count.
func (c *session) stats(sv *served, arg string) error {
	if arg != "" && arg != "json" {
		return fmt.Errorf("stats: unknown argument %q (json)", arg)
	}
	s, st, w := c.srv, sv.engine.Stats(), walCounters{}
	if p := s.reg.wal.Load(); p != nil {
		w = *p
	}
	fs := work([]field{{"facts", st.Facts}, {"derived", st.Derived}, {"asserts", st.Asserts}, {"retracts", st.Retracts},
		{"warnings", len(sv.warnings)}, {"rejected_loads", s.reg.rejectedLoads.Load()}}, st.Plans, st.Clones)
	fs = append(fs, field{"wal_records", w.records}, field{"wal_bytes", w.bytes}, field{"checkpoints", w.checkpoints},
		field{"recovered_records", s.recovery.RecordsReplayed}, field{"readonly", w.readonly},
		field{"idle_timeouts", s.reg.idleTimeouts.Load()})
	c.lap(applyPhase)
	if arg == "" {
		return c.replyFields(fs)
	}
	rs, rows := s.recovery, map[string]any{}
	m := map[string]any{"symbols": value.Symbols(), "verbs": rows,
		"wal": map[string]time.Duration{"append_ns": w.appendT, "fsync_ns": w.fsyncT, "checkpoint_ns": w.ckptT},
		"recovery": map[string]any{"checkpoint_gen": rs.CheckpointGen, "records_replayed": rs.RecordsReplayed,
			"decode_ns": rs.Decode, "restore_ns": rs.Restore, "replay_ns": rs.Replay}}
	for _, f := range fs {
		m[f.name] = f.val
	}
	for i := range s.reg.rows {
		r, ns, hist := &s.reg.rows[i], [2]map[string]int64{{}, {}}, [24]int64{} // ns: phase_ns, maintenance_ns
		for p := range r.phases {
			ns[min(p/validatePhase, 1)][phaseNames[p]] = r.phases[p].Load()
		}
		for b := range hist {
			hist[b] = r.hist[b].Load()
		}
		rows[r.name] = map[string]any{"calls": r.calls.Load(), "errors": r.errors.Load(), "total_ns": r.total.Load(),
			"hist": hist, "phase_ns": ns[0], "maintenance_ns": ns[1]}
	}
	line, _ := json.Marshal(m) // numbers, bools and strings always encode
	c.out.Write(line)
	return c.reply("\nok")
}
