package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// declared is BENCHMARK.json, as far as the tests read it.
type declared struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclaredNames: what the harness emits is what BENCHMARK.json
// declares — workloads, metric names and units, none missing, none
// extra — and the run length the sizes were fitted to.
func TestDeclaredNames(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, the harness %v", names, workloadNames)
	}
	if d.RunSeconds != runSeconds {
		t.Errorf("run_seconds: BENCHMARK.json has %d, the sizes in gen.go are fitted to %d", d.RunSeconds, runSeconds)
	}
	units := func(ms []declaredMetric) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	mine := func(ms []struct{ name, unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.name] = m.unit
		}
		return out
	}
	if got, want := units(d.EndToEnd), mine(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, the harness %v", got, want)
	}
	if got, want := units(d.PerLayer), mine(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json has %v, the harness %v", got, want)
	}
}

// TestWorkloadsSmoke runs every workload at about 1/100 of its size in
// both modes through the real binaries. Every oracle must pass, the
// traced mode's mirror-fidelity check with it (the in-process replay
// and the daemon fed the same stream end with the same query output
// and the same exact counters), and each mode must emit exactly the
// declared metric names.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs seqlogd and seqlog")
	}
	e, err := newEnv("smoke")
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.quick = true
	out := t.TempDir()
	for _, name := range allWorkloads {
		for _, traced := range []bool{false, true} {
			rec, err := e.run(name, 9, 0.01, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d: %s",
					name, traced, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, rec.Error)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			var wantNames []string
			for _, m := range want {
				wantNames = append(wantNames, m.name)
			}
			sort.Strings(wantNames)
			if got := sortedKeys(rec.Result.Metrics); !reflect.DeepEqual(got, wantNames) {
				t.Errorf("%s traced=%t emits %v, declared %v", name, traced, got, wantNames)
			}
			if traced {
				if _, err := os.Stat(filepath.Join(out, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", name, err)
				}
			}
		}
	}
	if leftover, _ := filepath.Glob(filepath.Join(e.pidDir, "*.pid")); len(leftover) > 0 {
		t.Errorf("daemons left behind: %v", leftover)
	}
}

// TestFidelityBites: the mirror-fidelity check fails when a counter or
// an output line differs.
func TestFidelityBites(t *testing.T) {
	w := genChurn(9, 0.005)
	m, err := startMirror(nil, w, "")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]string{}
	for _, rel := range w.outputs {
		if out[rel], err = m.lines(rel); err != nil {
			t.Fatal(err)
		}
	}
	if err := fidelity(w, m, out, m.counters()); err != nil {
		t.Fatalf("a mirror disagrees with itself: %v", err)
	}
	off := m.counters()
	off["derived"]++
	if fidelity(w, m, out, off) == nil {
		t.Error("a counter off by one passed")
	}
	out["T"] = out["T"][1:]
	if fidelity(w, m, out, m.counters()) == nil {
		t.Error("a missing output line passed")
	}
}

// TestOracles pins the plain-Go oracles on inputs small enough to
// check by hand.
func TestOracles(t *testing.T) {
	g := graph{nodes: []string{"a", "b", "c"}, edges: [][2]string{{"a", "b"}, {"b", "c"}, {"a", "c"}, {"c", "c"}}}
	// Closure: a→b, a→c, b→c, c→c, and S since a reaches b.
	loss := closureLoss(g, []int{0, 1, 2, 3})
	if want := map[int]int{0: 2, 1: 1, 2: 0, 3: 1}; !reflect.DeepEqual(loss, want) {
		t.Errorf("closureLoss = %v, want %v", loss, want)
	}
	got := expectClosure(edb{"R": {"a.b": true, "b.c": true}})
	sort.Strings(got["T"])
	if want := []string{"T(a.b).", "T(a.c).", "T(b.c)."}; !reflect.DeepEqual(got["T"], want) || len(got["S"]) != 1 {
		t.Errorf("expectClosure = %v", got)
	}
	for p, want := range map[string]bool{"a.b.b": true, "b": false, "a": true} {
		if evenBs(path(splitPath(p))) != want {
			t.Errorf("evenBs(%s) != %t", p, want)
		}
	}
	for _, c := range []struct {
		log  path
		want bool
	}{
		{path{"ship"}, true},
		{path{evComplete, "ship", evPayment}, true},
		{path{evComplete, evPayment, evComplete}, false},
		{path{evPayment, evComplete}, false},
	} {
		if paid(c.log) != c.want {
			t.Errorf("paid(%v) != %t", c.log, c.want)
		}
	}
	lines := occurrenceLines(path{"a", "b", "a", "b", "a"}, []path{{"a", "b"}, {"b", "a"}})
	want := []string{"T(<a.b>.a.b.a).", "T(a.<b.a>.b.a).", "T(a.b.<a.b>.a).", "T(a.b.a.<b.a>).", "A."}
	sort.Strings(lines)
	sort.Strings(want)
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("occurrenceLines = %v, want %v", lines, want)
	}
}

// TestStreamsAreSeeded: the same seed gives the same inputs, another
// seed other inputs.
func TestStreamsAreSeeded(t *testing.T) {
	for _, name := range allWorkloads[1:] {
		a, b, c := genServing(name, 9, 0.02), genServing(name, 9, 0.02), genServing(name, 10, 0.02)
		if !reflect.DeepEqual(a.streams, b.streams) || a.data != b.data {
			t.Errorf("%s: seed 9 twice gave different inputs", name)
		}
		if a.data == c.data {
			t.Errorf("%s: seeds 9 and 10 gave the same data", name)
		}
	}
	if !reflect.DeepEqual(genBatch(9, 4), genBatch(9, 4)) {
		t.Error("batch-eval: seed 9 twice gave different suites")
	}
}

func splitPath(s string) []string { return strings.Split(s, ".") }
