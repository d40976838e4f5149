package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// batchSecondary is the suite program whose wall time is batch-eval's
// secondary series: reversal with arity expressed through
// concatenation and markers, the cost of a redundant feature.
const batchSecondary = "reverse-noarity"

// child is one finished seqlog invocation.
type child struct {
	wall, cpu time.Duration
	rssMB     float64
	err       error // exit status or an output the oracle rejects
}

// writeSuite writes each program's files under dir and returns the
// argument lists, in suite order.
func writeSuite(dir string, suite []batchProgram) ([][]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	argv := make([][]string, len(suite))
	for i, p := range suite {
		prog, data := filepath.Join(dir, p.name+".sdl"), filepath.Join(dir, p.name+".facts")
		if err := os.WriteFile(prog, []byte(p.program), 0o644); err != nil {
			return nil, err
		}
		if err := os.WriteFile(data, []byte(p.data), 0o644); err != nil {
			return nil, err
		}
		argv[i] = []string{"-program", prog, "-data", data}
		if p.output != "" {
			argv[i] = append(argv[i], "-output", p.output)
		}
	}
	return argv, nil
}

// runChild runs the CLI once and holds what it printed against the
// oracle's lines.
func (e *env) runChild(args []string, want []string) child {
	cmd := exec.Command(filepath.Join(e.bin, "seqlog"), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	began := time.Now()
	err := cmd.Run()
	c := child{wall: time.Since(began)}
	if err != nil {
		c.err = fmt.Errorf("seqlog %s: %v: %s", strings.Join(args, " "), err, clip(stderr.String()))
		return c
	}
	c.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024
	}
	got := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(got) == 1 && got[0] == "" {
		got = nil
	}
	if same, diff := sameLines(got, want); !same {
		c.err = fmt.Errorf("seqlog %s: %s (printed %d lines, oracle %d)", strings.Join(args, " "), diff, len(got), len(want))
	}
	return c
}

// batchRun is what the CLI passes over the suite measured.
type batchRun struct {
	setup             series            // input generation and file writing
	passes            series            // one suite pass: the sum of its children
	passRates         []float64         // per pass: children per second
	passCPU           []float64         // per pass: CPU per child, us
	walls             map[string]series // per program
	children          int
	rss               float64
	attempted, failed int
	firstErr          error
}

func (e *env) runBatch(seed int64, passes int) (*batchRun, error) {
	run := &batchRun{walls: map[string]series{}}
	var suite []batchProgram
	var argv [][]string
	for i := 0; i < e.repeats(setupRuns); i++ {
		began := time.Now()
		suite = genBatch(seed, e.shrink())
		var err error
		if argv, err = writeSuite(filepath.Join(e.dir, fmt.Sprintf("suite-%d", i)), suite); err != nil {
			return nil, err
		}
		run.setup = append(run.setup, time.Since(began))
	}
	for pass := 0; pass < passes; pass++ {
		var wall, cpu time.Duration
		ran := 0
		for i, p := range suite {
			c := e.runChild(argv[i], p.want)
			run.attempted++
			if c.err != nil {
				run.failed++
				if run.firstErr == nil {
					run.firstErr = c.err
				}
				continue
			}
			run.children++
			ran++
			wall += c.wall
			cpu += c.cpu
			run.walls[p.name] = append(run.walls[p.name], c.wall)
			if c.rssMB > run.rss {
				run.rss = c.rssMB
			}
		}
		run.passes = append(run.passes, wall)
		if ran > 0 {
			run.passRates = append(run.passRates, float64(ran)/wall.Seconds())
			run.passCPU = append(run.passCPU, us(cpu)/float64(ran))
		}
	}
	return run, nil
}

// measureBatch fills the record from untraced CLI passes.
func (e *env) measureBatch(rec *record, seed int64, scale float64) error {
	run, err := e.runBatch(seed, scaled(batchPasses, scale))
	if err != nil {
		return err
	}
	rec.Labels = map[string]string{
		"primary":   "one pass over the suite: the sum of its seqlog invocations",
		"secondary": "one seqlog invocation of " + batchSecondary,
	}
	rec.Ops["seqlog"] = run.children
	measured := run.passes.sum()
	rec.set("setup_s", "s", run.setup.p50().Seconds(), len(run.setup))
	rec.raw("setup_s", run.setup)
	rec.raw("pass_s", run.passes)
	rec.set("ops_per_s", "1/s", median(run.passRates), len(run.passRates))
	rec.set("primary_p50_us", "us", us(run.passes.p50()), len(run.passes))
	rec.set("secondary_p50_us", "us", us(run.walls[batchSecondary].p50()), len(run.walls[batchSecondary]))
	rec.set("cpu_us_per_op", "us", median(run.passCPU), len(run.passCPU))
	rec.set("rss_peak_mb", "MB", run.rss, run.children)
	rec.detail("measured_s", "s", measured.Seconds(), 1)
	rec.detail("batch_eval_s", "s", run.passes.p50().Seconds(), len(run.passes))
	for name, s := range run.walls {
		rec.detail("child_wall_ms."+name, "ms", ms(s.p50()), len(s))
	}
	rec.note(run.attempted, run.failed, run.firstErr)
	rec.finish()
	return nil
}
