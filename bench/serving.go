package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRuns is how many times a run starts its daemon from nothing;
// setup_s is their median.
const setupRuns = 7

// recoverRuns is how many times the durable workload is killed and
// restarted on its WAL; the recovery time reported is their median.
const recoverRuns = 5

func (e *env) repeats(n int) int {
	if e.quick {
		return 1
	}
	return n
}

// shrink divides the batch suite's input sizes.
func (e *env) shrink() int {
	if e.quick {
		return 4
	}
	return 1
}

// phase is what one pass of a workload's streams through a live daemon
// measured.
type phase struct {
	wall               time.Duration
	attempted, failed  int
	primary, secondary series
	verbs              map[string]series // round trips per op.series()
	firstErr           error
	// done counts completed requests of all connections as they complete.
	done *atomic.Int64
	// mark, on the first connection only, is called at the start of the
	// stream, at each sampleWindows-th of it and at its end.
	mark func()
	// rates and cpuPerOp are per window between two marks: requests
	// completed per second (all connections) and daemon user+sys CPU per
	// request. Their medians are the run's throughput and CPU cost: a
	// burst of a neighbour's load moves a few windows, not the median.
	// Windows are cut by request number, so they hold the same requests
	// on every run.
	rates    []float64
	cpuPerOp []float64
}

// sampleWindows is how many windows a run is cut into: enough for a
// median, few enough that each holds a second or so of requests.
const sampleWindows = 10

// writeInputs writes the workload's program and data files and returns
// the flags that name them.
func (e *env) writeInputs(w *serving) ([]string, error) {
	prog, err := e.write("program.sdl", w.program)
	if err != nil {
		return nil, err
	}
	data, err := e.write("data.sdl", w.data)
	if err != nil {
		return nil, err
	}
	return []string{"-program", prog, "-data", data}, nil
}

// daemonArgs adds the workload's WAL flags, if it has a WAL, to the
// flags naming its inputs.
func (w *serving) daemonArgs(inputs []string, walDir string) []string {
	if w.sync == "" {
		return inputs
	}
	return append(append([]string(nil), inputs...),
		"-wal-dir", walDir, "-sync", w.sync, "-checkpoint-every", fmt.Sprint(checkpointEvery))
}

// startFresh starts the workload's daemon on an empty WAL directory,
// setupRuns times; all but the last are killed again. It returns the
// last daemon and every start's time to the first ok.
func (e *env) startFresh(w *serving, inputs []string) (*daemon, string, series, error) {
	var d *daemon
	var walDir string
	var ready series
	for i := 0; i < e.repeats(setupRuns); i++ {
		if d != nil {
			d.kill()
		}
		walDir = filepath.Join(e.dir, fmt.Sprintf("wal-%d", i))
		var err error
		if d, err = e.start(w.daemonArgs(inputs, walDir)...); err != nil {
			return nil, "", nil, err
		}
		ready = append(ready, d.ready)
	}
	return d, walDir, ready, nil
}

// send runs one stream down one connection, closed loop: the next
// request leaves when the previous reply has been read. A reply that
// is not ok, times out, or contradicts the oracle's expectation for
// that request counts as failed. Results accumulate into p.
func (c *client) send(s []op, p *phase) {
	if p.verbs == nil {
		p.verbs = map[string]series{}
	}
	if p.mark != nil {
		p.mark()
		defer p.mark()
	}
	for i, o := range s {
		if p.mark != nil && i > 0 && i*sampleWindows/len(s) != (i-1)*sampleWindows/len(s) {
			p.mark()
		}
		r := c.roundTrip(o.line(), false)
		p.attempted++
		if err := o.check(r); err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
			if r.final == "" {
				return // the connection is gone
			}
			continue
		}
		if p.done != nil {
			p.done.Add(1)
		}
		p.verbs[o.series()] = append(p.verbs[o.series()], r.took)
		into := &p.primary
		switch o.bucket {
		case noBucket:
			continue
		case secondary:
			into = &p.secondary
		}
		if o.join && len(*into) > 0 {
			(*into)[len(*into)-1] += r.took
		} else {
			*into = append(*into, r.took)
		}
	}
}

// settle flushes the machine's dirty pages before a measured phase:
// writeback left over from the build or from an earlier run's files
// otherwise lands in this run's fsyncs (measured: the first durable
// runs after a build were up to twice as slow).
func settle() { syscall.Sync() }

// drive sends each stream down its own connection, all at once.
func (d *daemon) drive(streams [][]op) (*phase, error) {
	clients := make([]*client, len(streams))
	for i := range streams {
		c, err := d.dial()
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients[i] = c
	}
	var done atomic.Int64
	parts := make([]phase, len(streams))
	for i := range parts {
		parts[i].done = &done
	}
	p := &phase{verbs: map[string]series{}}
	type sample struct {
		at  time.Time
		ops int64
		cpu time.Duration
	}
	var samples []sample
	parts[0].mark = func() { samples = append(samples, sample{time.Now(), done.Load(), d.cpu()}) }
	cpu0 := d.cpu()
	began := time.Now()
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clients[i].send(streams[i], &parts[i])
		}(i)
	}
	wg.Wait()
	p.wall = time.Since(began)
	cpu := d.cpu() - cpu0
	for i := 1; i < len(samples); i++ {
		a, b := samples[i-1], samples[i]
		if n := b.ops - a.ops; n > 0 {
			p.rates = append(p.rates, float64(n)/b.at.Sub(a.at).Seconds())
			p.cpuPerOp = append(p.cpuPerOp, us(b.cpu-a.cpu)/float64(n))
		}
	}
	for _, part := range parts {
		p.attempted += part.attempted
		p.failed += part.failed
		p.primary = append(p.primary, part.primary...)
		p.secondary = append(p.secondary, part.secondary...)
		for v, s := range part.verbs {
			p.verbs[v] = append(p.verbs[v], s...)
		}
		if p.firstErr == nil {
			p.firstErr = part.firstErr
		}
	}
	// A run too short for windows (the smoke test) reports its totals.
	if completed := p.attempted - p.failed; len(p.rates) < sampleWindows && completed > 0 {
		p.rates = []float64{float64(completed) / p.wall.Seconds()}
		p.cpuPerOp = []float64{us(cpu) / float64(completed)}
	}
	return p, nil
}

// check holds a reply against what the generator knew it must say.
func (o op) check(r reply) error {
	if r.err != nil {
		return r.err
	}
	if o.checkDerived {
		if got, _ := r.field("derived"); got != o.derived {
			return fmt.Errorf("%s: derived=%d, oracle says %d", clip(o.line()), got, o.derived)
		}
	}
	if o.checkN {
		if got, _ := r.field("n"); got != o.n || r.rows != o.n {
			return fmt.Errorf("%s: n=%d with %d rows, oracle says %d", o.line(), got, r.rows, o.n)
		}
	}
	if o.holds != "" && r.final != "ok "+o.holds {
		return fmt.Errorf("%s: %q, oracle says %s", o.line(), r.final, o.holds)
	}
	return nil
}

// outputs reads relations back from the daemon as fact lines.
func (d *daemon) outputs(rels []string) (map[string][]string, error) {
	c, err := d.dial()
	if err != nil {
		return nil, err
	}
	defer c.close()
	out := map[string][]string{}
	for _, rel := range rels {
		r := c.roundTrip("query "+rel, true)
		if r.err != nil {
			return nil, r.err
		}
		out[rel] = r.body
	}
	return out, nil
}

// checkOutputs holds outputs against the oracle's. Each relation is
// one more attempted op.
func checkOutputs(got, want map[string][]string, who string) (attempted, failed int, firstErr error) {
	for _, rel := range sortedKeys(got) {
		attempted++
		if same, diff := sameLines(got[rel], want[rel]); !same {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: query %s after the run: %s (got %d lines, oracle %d)", who, rel, diff, len(got[rel]), len(want[rel]))
			}
		}
	}
	return
}

// verify reads the workload's outputs back and holds them against the
// oracle's for the given EDB.
func (d *daemon) verify(w *serving, model edb, who string) (attempted, failed int, firstErr error) {
	got, err := d.outputs(w.outputs)
	if err != nil {
		return len(w.outputs), len(w.outputs), err
	}
	return checkOutputs(got, w.expect(model), who)
}

// counters reads the daemon's stats reply as name to value.
func (d *daemon) counters() (map[string]int, error) {
	c, err := d.dial()
	if err != nil {
		return nil, err
	}
	defer c.close()
	r := c.roundTrip("stats", false)
	if r.err != nil {
		return nil, r.err
	}
	return parseCounters(r.final), nil
}

// servingRun is everything one untraced daemon run of a workload
// yields.
type servingRun struct {
	ready     series // daemon exec to first ok, setupRuns fresh starts
	phase     *phase
	rss       float64
	before    map[string]int // stats before the measured phase
	counters  map[string]int // stats after it
	recovery  series         // kill -9 to first ok, recoverRuns restarts
	recovered int            // recovered_records of the last restart
	args      []string
	attempted int
	failed    int
	firstErr  error
}

// runServing starts the daemon, drives the op stream, checks the
// outputs against the oracle and, for the durable workload, kills the
// daemon and checks what the restarts recover.
func (e *env) runServing(w *serving) (*servingRun, error) {
	inputs, err := e.writeInputs(w)
	if err != nil {
		return nil, err
	}
	d, walDir, ready, err := e.startFresh(w, inputs)
	if err != nil {
		return nil, err
	}
	run := &servingRun{ready: ready, args: d.args}
	if run.before, err = d.counters(); err != nil {
		return nil, err
	}
	settle()
	if run.phase, err = d.drive(w.streams); err != nil {
		return nil, err
	}
	run.rss = d.peakRSS()
	if run.counters, err = d.counters(); err != nil {
		return nil, err
	}
	note := func(attempted, failed int, err error) {
		run.attempted += attempted
		run.failed += failed
		if run.firstErr == nil {
			run.firstErr = err
		}
	}
	note(run.phase.attempted, run.phase.failed, run.phase.firstErr)
	model := w.model(w.streams)
	note(d.verify(w, model, "daemon"))

	if w.recover {
		// What must come back: everything acknowledged. Records since the
		// last checkpoint are replayed, the rest is in the checkpoint.
		wantReplayed := w.ops() % checkpointEvery
		for i := 0; i < e.repeats(recoverRuns); i++ {
			d.kill()
			if d, err = e.start(w.daemonArgs(inputs, walDir)...); err != nil {
				return nil, fmt.Errorf("restart on the WAL: %w", err)
			}
			run.recovery = append(run.recovery, d.ready)
		}
		after, err := d.counters()
		if err != nil {
			return nil, err
		}
		run.recovered = after["recovered_records"]
		if run.recovered != wantReplayed {
			note(1, 1, fmt.Errorf("recovered_records=%d after kill -9, the acknowledged stream says %d", run.recovered, wantReplayed))
		} else {
			note(1, 0, nil)
		}
		note(d.verify(w, model, "daemon after kill -9"))
	}
	d.kill()
	return run, nil
}
