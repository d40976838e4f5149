// Command seqbench is the repository's benchmark: five named workloads
// through the real seqlogd and seqlog binaries, checked against
// oracles written in plain Go, plus — with -trace 1 — an in-process
// replay of the same op streams with a span around every call into a
// layer. bench/README.md defines the workloads and the metrics;
// BENCHMARK.json declares them.
//
//	bash bench/run.sh -workload tc-read-mix -seed 9 -seconds 15 -trace 0
//	bash bench/run.sh -seed 9        every workload, both modes, as tables
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// runSeconds is the run length the reference sizes in gen.go were
// fitted to; it is BENCHMARK.json's run_seconds.
const runSeconds = 15

// workloadNames lists the workloads BENCHMARK.json declares, in its
// order.
var workloadNames = []string{"batch-eval", "tc-retract-churn", "tc-read-mix", "seq-window"}

// undeclared is the workload the harness runs but BENCHMARK.json does
// not list: everything it measures is bound by fsync on the sandbox's
// shared disk, whose latency drifts by a factor of three within an
// hour. Over four sets of ten runs the spread of its metrics was
// 11-27 %, on some sets beyond the widest bound a declared metric may
// have (bench/README.md, Noise). It runs under its own name and under
// "all", and the smoke test covers it.
const undeclared = "tc-assert-durable"

// allWorkloads is every workload the harness knows, the durable one
// last: a build's writeback is long over when it starts.
var allWorkloads = append(append([]string(nil), workloadNames...), undeclared)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "all", "one of "+strings.Join(allWorkloads, ", ")+"; all runs each in both modes")
	seed := flag.Int64("seed", 9, "seed every input is made from (9 is the reference: the archive's graph)")
	seconds := flag.Int("seconds", runSeconds, "run length; scales every op count by seconds/"+strconv.Itoa(runSeconds))
	trace := flag.Int("trace", 0, "0: end-to-end metrics from the untraced binaries; 1: per-layer metrics from the traced in-process replay")
	out := flag.String("out", "bench/out", "directory for the run record and trace-<workload>.json")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "seqbench: -seconds must be at least 1, -trace 0 or 1, and there are no positional arguments")
		os.Exit(2)
	}
	scale := float64(*seconds) / runSeconds

	names := []string{*workload}
	if *workload == "all" {
		names = allWorkloads
	} else if !slices.Contains(allWorkloads, *workload) {
		fmt.Fprintf(os.Stderr, "seqbench: unknown workload %q (have %s)\n", *workload, strings.Join(allWorkloads, ", "))
		os.Exit(2)
	}

	e, err := newEnv(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqbench:", err)
		os.Exit(1)
	}
	// A signal must not leave a daemon or a scratch directory behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		modes := []int{*trace}
		if *workload == "all" {
			modes = []int{0, 1}
		}
		for _, mode := range modes {
			rec, err := e.run(name, *seed, scale, mode == 1, *out)
			if err != nil {
				e.close()
				fmt.Fprintf(os.Stderr, "seqbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			rec.print(os.Stdout)
			total.Correct = total.Correct && rec.Result.Correct
			total.Attempted += rec.Result.Attempted
			total.Failed += rec.Result.Failed
			for k, v := range rec.Result.Metrics {
				if *workload == "all" {
					k = name + "/" + k
				}
				total.Metrics[k] = v
			}
		}
	}
	e.close()
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "seqbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }
