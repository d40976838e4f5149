package main

import (
	"sort"
	"strings"
)

// This file is the oracles: what each workload must output, computed
// in plain Go (breadth-first search, parity, a scan for the last
// 'complete order', string reversal) and never by the evaluator.

// edb is the oracle's model of the base facts: relation name to the
// set of its unary facts, each held as the printed path.
type edb map[string]map[string]bool

// apply replays fact lines of the harness's own making — "R(x.y)."
// facts, several per line allowed — as inserts or deletes.
func (e edb) apply(facts string, insert bool) {
	for _, f := range strings.FieldsFunc(facts, func(r rune) bool { return r == '\n' }) {
		for _, one := range strings.SplitAfter(f, ").") {
			one = strings.TrimSpace(one)
			rel, body, ok := strings.Cut(strings.TrimSuffix(one, ")."), "(")
			if !ok {
				continue
			}
			if e[rel] == nil {
				e[rel] = map[string]bool{}
			}
			if insert {
				e[rel][body] = true
			} else {
				delete(e[rel], body)
			}
		}
	}
}

// model is the EDB after the data file and every stream's ops.
func (w *serving) model(streams [][]op) edb {
	e := edb{}
	e.apply(w.data, true)
	for _, s := range streams {
		for _, o := range s {
			switch o.verb {
			case "assert":
				e.apply(o.arg, true)
			case "retract":
				e.apply(o.arg, false)
			}
		}
	}
	return e
}

// closure is the reachability relation over at least one edge.
func closure(edges [][2]string) map[string]map[string]bool {
	adj := map[string][]string{}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	out := make(map[string]map[string]bool, len(adj))
	for from := range adj {
		seen := map[string]bool{}
		queue := append([]string(nil), adj[from]...)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if seen[v] {
				continue
			}
			seen[v] = true
			queue = append(queue, adj[v]...)
		}
		out[from] = seen
	}
	return out
}

func closureLines(reach map[string]map[string]bool) []string {
	var out []string
	for from, tos := range reach {
		for to := range tos {
			out = append(out, fact("T", path{from, to}))
		}
	}
	sort.Strings(out)
	return out
}

func expectClosure(e edb) map[string][]string {
	var edges [][2]string
	for body := range e["R"] {
		from, to, _ := strings.Cut(body, ".")
		edges = append(edges, [2]string{from, to})
	}
	reach := closure(edges)
	out := map[string][]string{"T": closureLines(reach)}
	if reach["a"]["b"] {
		out["S"] = []string{"S."}
	}
	return out
}

// closureLoss is, for each listed edge, how many derived facts
// (closure pairs, plus S when a no longer reaches b) the graph loses
// when that edge alone is removed.
func closureLoss(g graph, which []int) map[int]int {
	id := make(map[string]int, len(g.nodes))
	for i, n := range g.nodes {
		id[n] = i
	}
	type arc struct{ to, edge int }
	adj := make([][]arc, len(g.nodes))
	for i, e := range g.edges {
		adj[id[e[0]]] = append(adj[id[e[0]]], arc{id[e[1]], i})
	}
	// count is the derived-fact count with one edge (or none: -1) left out.
	count := func(skip int) int {
		total := 0
		seen := make([]int, len(g.nodes))
		var stack []int
		for from := range adj {
			mark := from + 1
			stack = stack[:0]
			for _, a := range adj[from] {
				if a.edge != skip {
					stack = append(stack, a.to)
				}
			}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[v] == mark {
					continue
				}
				seen[v] = mark
				total++
				if from == id["a"] && v == id["b"] {
					total++ // S
				}
				for _, a := range adj[v] {
					if a.edge != skip {
						stack = append(stack, a.to)
					}
				}
			}
			// marks are per source: reset is implicit in mark = from+1
		}
		return total
	}
	full := count(-1)
	out := make(map[int]int, len(which))
	for _, i := range which {
		out[i] = full - count(i)
	}
	return out
}

// evenBs is Example 2.1's automaton: an even number of b's.
func evenBs(p path) bool {
	even := true
	for _, a := range p {
		if a == "b" {
			even = !even
		}
	}
	return even
}

// paid is the process-mining predicate: every 'complete order' is
// eventually followed by a 'receive payment' — that is, one follows
// the last 'complete order'.
func paid(p path) bool {
	ok := true
	for _, a := range p {
		switch a {
		case evComplete:
			ok = false
		case evPayment:
			ok = true
		}
	}
	return ok
}

func expectWindow(e edb) map[string][]string {
	out := map[string][]string{}
	for body := range e["R"] {
		if p := path(strings.Split(body, ".")); evenBs(p) {
			out["A"] = append(out["A"], fact("A", p))
		}
	}
	for body := range e["L"] {
		if p := path(strings.Split(body, ".")); paid(p) {
			out["OK"] = append(out["OK"], fact("OK", p))
		}
	}
	return out
}

// occurrenceLines is Example 2.2's output printed whole: one T fact
// per occurrence of a needle in the haystack, the needle packed, and
// A when there are at least three different ones.
func occurrenceLines(hay path, needles []path) []string {
	var out []string
	for _, n := range needles {
		for i := 0; i+len(n) <= len(hay); i++ {
			if hay[i:i+len(n)].String() != n.String() {
				continue
			}
			var parts []string
			if i > 0 {
				parts = append(parts, hay[:i].String())
			}
			parts = append(parts, "<"+n.String()+">")
			if rest := hay[i+len(n):]; len(rest) > 0 {
				parts = append(parts, rest.String())
			}
			out = append(out, "T("+strings.Join(parts, ".")+").")
		}
	}
	out = dedupe(out)
	if len(out) >= 3 {
		out = append(out, "A.")
	}
	return out
}

func dedupe(lines []string) []string {
	sort.Strings(lines)
	out := lines[:0]
	for i, l := range lines {
		if i == 0 || l != lines[i-1] {
			out = append(out, l)
		}
	}
	return out
}

// sameLines reports whether got and want hold the same set of lines,
// and a sample of the difference when they do not.
func sameLines(got, want []string) (bool, string) {
	g, w := dedupe(append([]string(nil), got...)), dedupe(append([]string(nil), want...))
	if len(g) == len(w) {
		same := true
		for i := range g {
			if g[i] != w[i] {
				same = false
				break
			}
		}
		if same {
			return true, ""
		}
	}
	in := func(set []string, l string) bool {
		i := sort.SearchStrings(set, l)
		return i < len(set) && set[i] == l
	}
	for _, l := range g {
		if !in(w, l) {
			return false, "unexpected " + clip(l)
		}
	}
	for _, l := range w {
		if !in(g, l) {
			return false, "missing " + clip(l)
		}
	}
	return false, "line counts differ"
}

func clip(s string) string {
	if len(s) > 120 {
		return s[:117] + "..."
	}
	return s
}
