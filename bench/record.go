package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// The end-to-end metrics, reported by every workload. What "primary"
// and "secondary" time is the workload's own (serving.primaryLabel,
// bench/README.md): the contract wants one metric vector for all
// workloads, and the verbs differ from one to the next.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"primary_p50_us", "us"},
	{"secondary_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"rss_peak_mb", "MB"},
}

// record is the run record: the result line plus what is needed to
// read it later — where and on what it ran, how much of each verb, how
// many samples stand behind each number.
type record struct {
	Workload   string   `json:"workload"`
	Mode       string   `json:"mode"`
	Seed       int64    `json:"seed"`
	Scale      float64  `json:"scale"`
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	CPUModel   string   `json:"cpu_model"`
	Kernel     string   `json:"kernel"`
	DaemonArgs []string `json:"daemon_flags,omitempty"`
	// Labels say what this workload's primary and secondary series time.
	Labels map[string]string `json:"labels,omitempty"`
	// Ops counts the requests of the measured phase per verb; Samples the
	// observations behind each metric.
	Ops     map[string]int `json:"ops"`
	Samples map[string]int `json:"samples"`
	// Detail holds numbers BENCHMARK.json does not declare: per-verb
	// round trips, recovery, exact WAL counts.
	Detail map[string]metric `json:"detail,omitempty"`
	// Raw holds the few-sample series whole, in seconds.
	Raw    map[string][]float64 `json:"raw,omitempty"`
	Budget []budgetRow          `json:"budget,omitempty"`
	Notes  []string             `json:"notes,omitempty"`
	// StaleDaemonsKilled counts daemons of an earlier run found alive.
	StaleDaemonsKilled int    `json:"stale_daemons_killed"`
	Error              string `json:"first_error,omitempty"`
	Result             result `json:"result"`
}

// budgetRow is one line of the budget table: a layer's p50 inside one
// request of the workload's primary verb.
type budgetRow struct {
	Layer string  `json:"layer"`
	P50us float64 `json:"p50_us"`
}

func (e *env) newRecord(workload string, seed int64, scale float64, traced bool) *record {
	r := &record{
		Workload: workload, Mode: "end-to-end", Seed: seed, Scale: scale,
		Commit: commit(e.root), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), Kernel: kernel(),
		Ops: map[string]int{}, Samples: map[string]int{}, Detail: map[string]metric{}, Raw: map[string][]float64{},
		StaleDaemonsKilled: e.stale,
		Result:             result{Metrics: map[string]metric{}},
	}
	if traced {
		r.Mode = "traced"
	}
	return r
}

func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown (not a git checkout)"
}

func cpuModel() string {
	raw, _ := os.ReadFile("/proc/cpuinfo")
	for _, l := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	raw, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(raw))
}

func (r *record) set(name, unit string, v float64, samples int) {
	r.Result.Metrics[name] = metric{v, unit}
	r.Samples[name] = samples
}

func (r *record) raw(name string, s series) {
	for _, d := range s {
		r.Raw[name] = append(r.Raw[name], d.Seconds())
	}
}

func (r *record) detail(name, unit string, v float64, samples int) {
	r.Detail[name] = metric{v, unit}
	r.Samples[name] = samples
}

// note adds verified ops to the record's count and keeps the first
// error.
func (r *record) note(attempted, failed int, err error) {
	r.Result.Attempted += attempted
	r.Result.Failed += failed
	if err != nil && r.Error == "" {
		r.Error = err.Error()
	}
}

// check counts one pass-or-fail verification as one attempted op.
func (r *record) check(err error) {
	if err != nil {
		r.note(1, 1, err)
	} else {
		r.note(1, 0, nil)
	}
}

// finish settles correct and failed. A failed request or an oracle
// mismatch fails the run: its ops all count as failed.
func (r *record) finish() {
	if r.Error != "" {
		fmt.Fprintf(os.Stderr, "seqbench: %s: %s\n", r.Workload, r.Error)
		r.Result.Failed = r.Result.Attempted
	}
	r.Result.Correct = r.Result.Failed == 0
}

// run runs one workload in one mode and writes its record.
func (e *env) run(name string, seed int64, scale float64, traced bool, outDir string) (*record, error) {
	rec := e.newRecord(name, seed, scale, traced)
	// A directory of its own: a WAL left by one workload must not be
	// what the next one's daemon recovers from.
	var err error
	if e.dir, err = os.MkdirTemp(e.tmp, name+"-"); err != nil {
		return nil, err
	}
	switch {
	case name == "batch-eval" && traced:
		err = e.traceBatch(rec, seed, scale, outDir)
	case name == "batch-eval":
		err = e.measureBatch(rec, seed, scale)
	case traced:
		err = e.traceServing(rec, genServing(name, seed, scale), seed, outDir)
	default:
		err = e.measureServing(rec, genServing(name, seed, scale))
	}
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	file := fmt.Sprintf("run-%s-trace0.json", name)
	if traced {
		file = fmt.Sprintf("run-%s-trace1.json", name)
	}
	return rec, os.WriteFile(filepath.Join(outDir, file), append(raw, '\n'), 0o644)
}

func genServing(name string, seed int64, scale float64) *serving {
	switch name {
	case "tc-assert-durable":
		return genDurable(seed, scale)
	case "tc-retract-churn":
		return genChurn(seed, scale)
	case "tc-read-mix":
		return genReadMix(seed, scale)
	}
	return genWindow(seed, scale)
}

// measureServing fills the record from one untraced daemon run.
func (e *env) measureServing(rec *record, w *serving) error {
	run, err := e.runServing(w)
	if err != nil {
		return err
	}
	p := run.phase
	rec.DaemonArgs = run.args
	rec.Labels = map[string]string{"primary": w.primaryLabel, "secondary": w.secondaryLabel}
	for verb, s := range p.verbs {
		rec.Ops[verb] = len(s)
		rec.detail(verb+"_p50_us", "us", us(s.p50()), len(s))
		if len(s) >= 1000 {
			rec.detail(verb+"_p99_us", "us", us(s.quantile(0.99)), len(s))
		} else if len(s) >= 200 {
			rec.detail(verb+"_p95_us", "us", us(s.quantile(0.95)), len(s))
		}
	}
	secondarySeries := p.secondary
	if w.recover {
		secondarySeries = run.recovery
		rec.detail("recovery_s", "s", run.recovery.p50().Seconds(), len(run.recovery))
		rec.detail("recovered_records", "count", float64(run.recovered), 1)
	}
	rec.raw("setup_s", run.ready)
	rec.raw("recovery_s", run.recovery)
	rec.Raw["ops_per_s"], rec.Raw["cpu_us_per_op"] = p.rates, p.cpuPerOp
	rec.set("setup_s", "s", run.ready.p50().Seconds(), len(run.ready))
	rec.set("ops_per_s", "1/s", median(p.rates), len(p.rates))
	rec.set("primary_p50_us", "us", us(p.primary.p50()), len(p.primary))
	rec.detail("primary_p90_us", "us", us(p.primary.quantile(0.9)), len(p.primary))
	rec.set("secondary_p50_us", "us", us(secondarySeries.p50()), len(secondarySeries))
	rec.set("cpu_us_per_op", "us", median(p.cpuPerOp), len(p.cpuPerOp))
	rec.set("rss_peak_mb", "MB", run.rss, 1)

	rec.detail("measured_s", "s", p.wall.Seconds(), 1)
	if w.sync != "" {
		writes := 0
		for name, n := range rec.Ops {
			if strings.HasPrefix(name, "assert") || strings.HasPrefix(name, "retract") {
				writes += n
			}
		}
		rec.detail("wal_bytes_per_op", "B", ratio(float64(run.counters["wal_bytes"]-run.before["wal_bytes"]), float64(writes)), writes)
		rec.detail("wal_checkpoints", "count", float64(run.counters["checkpoints"]-run.before["checkpoints"]), 1)
	}
	if w.sync == "always" {
		rec.Notes = append(rec.Notes, "-sync always latency is this sandbox's disk, not a device's")
	}
	rec.note(run.attempted, run.failed, run.firstErr)
	rec.finish()
	return nil
}

// print writes the record as a table: every metric by name and unit.
func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "== %s  %s  seed=%d scale=%.3g  attempted=%d failed=%d correct=%t\n",
		r.Workload, r.Mode, r.Seed, r.Scale, r.Result.Attempted, r.Result.Failed, r.Result.Correct)
	for _, k := range sortedKeys(r.Labels) {
		fmt.Fprintf(w, "   %s = %s\n", k, r.Labels[k])
	}
	table := func(title string, m map[string]metric) {
		if len(m) == 0 {
			return
		}
		fmt.Fprintf(w, "   %s\n", title)
		for _, k := range sortedKeys(m) {
			fmt.Fprintf(w, "     %-36s %16.4f %-6s n=%d\n", k, m[k].Value, m[k].Unit, r.Samples[k])
		}
	}
	table("metrics", r.Result.Metrics)
	table("detail", r.Detail)
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "   budget of one %s (p50, us)\n", r.Labels["budget"])
		for _, b := range r.Budget {
			fmt.Fprintf(w, "     %-36s %16.2f\n", b.Layer, b.P50us)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	if r.Error != "" {
		fmt.Fprintf(w, "   FAILED: %s\n", r.Error)
	}
}
