package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// This file makes every input from the seed, in the harness's own
// process: program texts, fact files and the op streams. Nothing here
// imports the repository's packages — the programs under test receive
// only the files and protocol lines built below.

// The programs are the paper's, as registered in internal/queries; the
// harness carries its own copies because it feeds them as files.
const (
	progReachability = `T(@x.@y) :- R(@x.@y).
T(@x.@z) :- T(@x.@y), R(@y.@z).
S :- T(a.b).
`
	progNFA = `S(@q.$x, eps) :- R($x), N(@q).
S(@q2.$y, $z.@a) :- S(@q1.@a.$y, $z), D(@q1, @a, @q2).
A($x) :- S(@q, $x), F(@q).
`
	progThreeOccurrences = `T($u.<$s>.$v) :- R($u.$s.$v), S($s).
A :- T($x), T($y), T($z), $x != $y, $x != $z, $y != $z.
`
	progReverseArity = `T($x, eps) :- R($x).
T($x, $y.@u) :- T($x.@u, $y).
S($x) :- T(eps, $x).
`
	progReverseNoArity = `T($x.a.a.$x.b) :- R($x).
T($x.a.$y.@u.a.$x.b.$y.@u) :- T($x.@u.a.$y.a.$x.@u.b.$y).
S($x) :- T(a.$x.a.b.$x).
`
	progSquaring = `T(eps, $x, $x) :- R($x).
T($y.$x, $x, $z) :- T($y, $x, a.$z).
S($y) :- T($y, $x, eps).
`
	progProcessMining = `After($v) :- L($u.'complete order'.$v), $v = $w.'receive payment'.$z.
Bad($x) :- L($x), $x = $u.'complete order'.$v, !After($v).
S($x) :- L($x), !Bad($x).
`
	// progWindow is nfa-accept plus process-mining in one program (the
	// mining output is renamed OK: both originals call theirs S).
	progWindow = progNFA + `After($v) :- L($u.'complete order'.$v), $v = $w.'receive payment'.$z.
Bad($x) :- L($x), $x = $u.'complete order'.$v, !After($v).
OK($x) :- L($x), !Bad($x).
`
	// nfaFacts is Example 2.1's automaton for "an even number of b's".
	nfaFacts = "N(q0). F(q0).\nD(q0, a, q0). D(q0, b, q1). D(q1, a, q1). D(q1, b, q0).\n"
)

const (
	evComplete = "'complete order'"
	evPayment  = "'receive payment'"
)

var events = []string{"'create order'", evComplete, evPayment, "ship", "close"}

// path is a flat path as the tokens the protocol prints: plain atoms,
// or quoted ones where the atom would not lex as an identifier.
type path []string

func (p path) String() string {
	if len(p) == 0 {
		return "eps"
	}
	return strings.Join(p, ".")
}

// fact renders rel(p).
func fact(rel string, p path) string { return rel + "(" + p.String() + ")." }

// graph is a directed graph whose edges are the length-2 paths of R.
type graph struct {
	nodes []string
	edges [][2]string // distinct, in order of first appearance
}

// genGraph draws edges the way internal/workload.Graph does, so seed 9
// with 200 nodes and 1000 draws is the graph of the BENCH_*.json
// archive.
func genGraph(seed int64, n, draws int) graph {
	r := rand.New(rand.NewSource(seed))
	g := graph{nodes: make([]string, n)}
	for i := range g.nodes {
		switch i {
		case 0:
			g.nodes[i] = "a"
		case 1:
			g.nodes[i] = "b"
		default:
			g.nodes[i] = fmt.Sprintf("n%d", i)
		}
	}
	seen := map[[2]string]bool{}
	for i := 0; i < draws; i++ {
		e := [2]string{g.nodes[r.Intn(n)], g.nodes[r.Intn(n)]}
		if !seen[e] {
			seen[e] = true
			g.edges = append(g.edges, e)
		}
	}
	return g
}

func (g graph) facts() string {
	var b strings.Builder
	for _, e := range g.edges {
		b.WriteString(fact("R", path{e[0], e[1]}))
		b.WriteByte('\n')
	}
	return b.String()
}

// genPaths draws count distinct paths of the given length over the
// alphabet. seen carries distinctness across calls: a sliding window
// must never hold one string twice, or a retract would remove a fact
// the window still counts.
func genPaths(r *rand.Rand, seen map[string]bool, count, length int, alphabet []string) []path {
	out := make([]path, 0, count)
	for len(out) < count {
		p := make(path, length)
		for i := range p {
			p[i] = alphabet[r.Intn(len(alphabet))]
		}
		if k := p.String(); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

func pathFacts(rel string, ps []path) string {
	var b strings.Builder
	for _, p := range ps {
		b.WriteString(fact(rel, p))
		b.WriteByte('\n')
	}
	return b.String()
}

// bucket says which latency series a request's round trip feeds.
type bucket uint8

const (
	noBucket bucket = iota
	primary
	secondary
)

// op is one protocol request of a stream. join adds the round trip to
// the bucket's previous sample instead of opening a new one (a
// seq-window "admit" is the assert of R plus the assert of L).
type op struct {
	verb, arg string
	bucket    bucket
	join      bool
	// derived is the derived= count the reply must carry (checkDerived
	// set), n the row count of a query reply (checkN set).
	derived, n           int
	checkDerived, checkN bool
	holds                string // expected reply of a holds: "true" or "false"
	// aside names the relation of a request kept out of the per-verb
	// series: seq-window asserts into R (0.6 ms) and into L (5 ms), and
	// the median of the two pooled is the edge between two humps. Its
	// per-verb numbers and its budget are the L requests'; the R ones
	// are a series of their own.
	aside string
}

func (o op) line() string { return o.verb + " " + o.arg }

// series names the per-verb series a request belongs to.
func (o op) series() string {
	if o.aside != "" {
		return o.verb + "." + o.aside
	}
	return o.verb
}

// serving is one daemon workload: what the daemon is started with and
// the fixed op stream each connection sends.
type serving struct {
	name    string
	program string
	data    string
	// sync is the -sync policy; empty means no -wal-dir at all.
	sync string
	// streams holds one closed-loop op stream per connection.
	streams [][]op
	// outputs are the relations read back and checked after the run.
	outputs []string
	// primaryVerb names the protocol verb whose budget the traced run
	// closes; the two labels say what the generic latency series hold.
	primaryVerb, primaryLabel, secondaryLabel string
	// recover says the run ends with kill -9 and restarts on the WAL.
	recover bool
	// expect is the oracle: the outputs' fact lines for a given EDB.
	expect func(edb) map[string][]string
}

func (w *serving) ops() int {
	n := 0
	for _, s := range w.streams {
		n += len(s)
	}
	return n
}

// Reference sizes, chosen so that each workload's measured phase takes
// about runSeconds on the reference box (bench/README.md); -seconds
// scales all of them by one common factor.
const (
	graphNodes, graphDraws = 200, 1000
	durableAsserts         = 32000 // both connections together
	churnCycles            = 800   // capped at the graph's distinct edges
	readMixCycles          = 130
	windowSteps            = 1100
	windowSize, windowLen  = 256, 32
	batchPasses            = 5
)

func scaled(n int, scale float64) int {
	if v := int(float64(n)*scale + 0.5); v > 1 {
		return v
	}
	return 1
}

// checkpointEvery is -checkpoint-every (the daemon's default): the
// durable workload's 32 000 asserts cross it seven times.
const checkpointEvery = 4096

// genDurable: two connections assert single edges that form disjoint
// 8-edge chains, so every assert derives a known number of facts and
// the closure of the result is known without evaluating anything.
func genDurable(seed int64, scale float64) *serving {
	g := genGraph(seed, graphNodes, graphDraws)
	w := &serving{
		name: "tc-assert-durable", program: progReachability, data: g.facts(),
		sync: "always", outputs: []string{"T", "S"}, recover: true, expect: expectClosure,
		primaryVerb: "assert", primaryLabel: "assert round trip (two writers)",
		secondaryLabel: "kill -9 to first ok after restart on the WAL",
	}
	const conns, chain = 2, 8
	per := scaled(durableAsserts, scale) / conns
	for c := 0; c < conns; c++ {
		s := make([]op, 0, per)
		for i := 0; i < per; i++ {
			k, j := i/chain, i%chain
			from := fmt.Sprintf("c%dk%d_%d", c, k, j)
			to := fmt.Sprintf("c%dk%d_%d", c, k, j+1)
			s = append(s, op{verb: "assert", arg: fact("R", path{from, to}), bucket: primary,
				derived: j + 1, checkDerived: true})
		}
		w.streams = append(w.streams, s)
	}
	return w
}

// genChurn: every edge of the graph, in a seeded order, is retracted
// and asserted back.
func genChurn(seed int64, scale float64) *serving {
	g := genGraph(seed, graphNodes, graphDraws)
	w := &serving{
		name: "tc-retract-churn", program: progReachability, data: g.facts(),
		outputs: []string{"T", "S"}, expect: expectClosure,
		primaryVerb: "retract", primaryLabel: "retract round trip", secondaryLabel: "assert round trip (the edge put back)",
	}
	r := rand.New(rand.NewSource(seed + 1))
	order := r.Perm(len(g.edges))
	cycles := scaled(churnCycles, scale)
	if cycles > len(order) {
		cycles = len(order)
	}
	lost := closureLoss(g, order[:cycles])
	s := make([]op, 0, 2*cycles)
	for _, i := range order[:cycles] {
		e := g.edges[i]
		f := fact("R", path{e[0], e[1]})
		s = append(s,
			op{verb: "retract", arg: f, bucket: primary, derived: -lost[i], checkDerived: true},
			op{verb: "assert", arg: f, bucket: secondary, derived: lost[i], checkDerived: true})
	}
	w.streams = [][]op{s}
	return w
}

// genReadMix: query T, assert an edge to a fresh node (which pays the
// copy-on-write barrier the query's freeze armed), then eight holds.
func genReadMix(seed int64, scale float64) *serving {
	g := genGraph(seed, graphNodes, graphDraws)
	w := &serving{
		name: "tc-read-mix", program: progReachability, data: g.facts(),
		outputs: []string{"T", "S"}, expect: expectClosure,
		primaryVerb: "query", primaryLabel: "query T round trip", secondaryLabel: "assert round trip after a query (pays the barrier)",
	}
	reach := closure(g.edges)
	rows := 0
	// into[v] is how many nodes reach v, v itself counted once: that many
	// T facts an edge from v to a fresh sink derives.
	into := map[string]int{}
	for _, tos := range reach {
		rows += len(tos)
		for to := range tos {
			into[to]++
		}
	}
	for _, v := range g.nodes {
		if !reach[v][v] {
			into[v]++
		}
	}
	holds := fmt.Sprint(reach["a"]["b"])
	r := rand.New(rand.NewSource(seed + 2))
	cycles := scaled(readMixCycles, scale)
	s := make([]op, 0, 10*cycles)
	for i := 0; i < cycles; i++ {
		from := g.nodes[r.Intn(len(g.nodes))]
		grow := into[from]
		s = append(s, op{verb: "query", arg: "T", bucket: primary, n: rows, checkN: true})
		s = append(s, op{verb: "assert", arg: fact("R", path{from, fmt.Sprintf("f%d", i)}), bucket: secondary,
			derived: grow, checkDerived: true})
		rows += grow
		for h := 0; h < 8; h++ {
			s = append(s, op{verb: "holds", arg: "S", holds: holds})
		}
	}
	w.streams = [][]op{s}
	return w
}

// genWindow: a sliding window of strings over {a,b} (nfa-accept) and
// of event logs (process mining): admit a new one of each, expire the
// oldest of each, read both outputs every 16th step.
func genWindow(seed int64, scale float64) *serving {
	w := &serving{
		name: "seq-window", program: progWindow, sync: "never",
		outputs: []string{"A", "OK"}, expect: expectWindow,
		primaryVerb: "assert", primaryLabel: "admit: assert R(new) + assert L(new)",
		secondaryLabel: "expire: retract R(oldest) + retract L(oldest)",
	}
	steps := scaled(windowSteps, scale)
	r := rand.New(rand.NewSource(seed + 3))
	strs := genPaths(r, map[string]bool{}, windowSize+steps, windowLen, []string{"a", "b"})
	logs := genPaths(r, map[string]bool{}, windowSize+steps, windowLen, events)
	w.data = nfaFacts + pathFacts("R", strs[:windowSize]) + pathFacts("L", logs[:windowSize])
	s := make([]op, 0, 5*steps)
	for i := 0; i < steps; i++ {
		s = append(s,
			op{verb: "assert", arg: fact("R", strs[windowSize+i]), bucket: primary, aside: "R"},
			op{verb: "assert", arg: fact("L", logs[windowSize+i]), bucket: primary, join: true},
			op{verb: "retract", arg: fact("R", strs[i]), bucket: secondary, aside: "R"},
			op{verb: "retract", arg: fact("L", logs[i]), bucket: secondary, join: true})
		if i%16 == 15 {
			accepted, ok := 0, 0
			for k := i + 1; k <= i+windowSize; k++ {
				if evenBs(strs[k]) {
					accepted++
				}
				if paid(logs[k]) {
					ok++
				}
			}
			s = append(s,
				op{verb: "query", arg: "A", n: accepted, checkN: true, aside: "A"},
				op{verb: "query", arg: "OK", n: ok, checkN: true})
		}
	}
	w.streams = [][]op{s}
	return w
}

// batchProgram is one CLI invocation of the batch-eval suite.
type batchProgram struct {
	name, program, data string
	output              string // -output; empty prints every IDB relation
	want                []string
}

// genBatch builds the suite: the graph query at two sizes and the
// paper's sequence queries, each with the output an independent
// computation says it must print. shrink divides every input size (1
// outside the smoke test); the program names keep the full sizes.
func genBatch(seed int64, shrink int) []batchProgram {
	r := rand.New(rand.NewSource(seed + 4))
	var suite []batchProgram
	for _, size := range []struct{ n, draws int }{{200, 1000}, {400, 2000}} {
		g := genGraph(seed, size.n/shrink, size.draws/shrink)
		suite = append(suite, batchProgram{
			name: fmt.Sprintf("reachability-%d", size.n), program: progReachability,
			data: g.facts(), output: "T", want: closureLines(closure(g.edges)),
		})
	}

	strs := genPaths(r, map[string]bool{}, 64/shrink, 256/shrink, []string{"a", "b"})
	var accepted []string
	for _, p := range strs {
		if evenBs(p) {
			accepted = append(accepted, fact("A", p))
		}
	}
	suite = append(suite, batchProgram{name: "nfa-accept", program: progNFA,
		data: nfaFacts + pathFacts("R", strs), output: "A", want: accepted})

	hay := genPaths(r, map[string]bool{}, 1, 64, []string{"a", "b", "c"})[0]
	var needles []path
	seenNeedle := map[string]bool{}
	for len(needles) < 3 {
		start := r.Intn(len(hay) - 2)
		n := hay[start : start+3]
		if !seenNeedle[n.String()] {
			seenNeedle[n.String()] = true
			needles = append(needles, n)
		}
	}
	suite = append(suite, batchProgram{name: "three-occurrences", program: progThreeOccurrences,
		data: fact("R", hay) + "\n" + pathFacts("S", needles), want: occurrenceLines(hay, needles)})

	// The reversal inputs avoid a and b, the markers of the arity-free
	// program, so both versions read strings of the same alphabet.
	rev := func(count, length int) (string, []string) {
		ps := genPaths(r, map[string]bool{}, count, length, []string{"c", "d", "e"})
		want := make([]string, len(ps))
		for i, p := range ps {
			q := make(path, len(p))
			for k := range p {
				q[len(p)-1-k] = p[k]
			}
			want[i] = fact("S", q)
		}
		return pathFacts("R", ps), dedupe(want)
	}
	data, want := rev(64/shrink, 128/shrink)
	suite = append(suite, batchProgram{name: "reverse-arity", program: progReverseArity, data: data, output: "S", want: want})
	data, want = rev(64/shrink, 64/shrink)
	suite = append(suite, batchProgram{name: "reverse-noarity", program: progReverseNoArity, data: data, output: "S", want: want})

	logs := genPaths(r, map[string]bool{}, 256/shrink, 48, events)
	var compliant []string
	for _, p := range logs {
		if paid(p) {
			compliant = append(compliant, fact("S", p))
		}
	}
	suite = append(suite, batchProgram{name: "process-mining", program: progProcessMining,
		data: pathFacts("L", logs), output: "S", want: compliant})

	n := 96 / shrink
	as := func(k int) path {
		p := make(path, k)
		for i := range p {
			p[i] = "a"
		}
		return p
	}
	suite = append(suite, batchProgram{name: "squaring", program: progSquaring,
		data: fact("R", as(n)) + "\n", output: "S", want: []string{fact("S", as(n*n))}})
	return suite
}
