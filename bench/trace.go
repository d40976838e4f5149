package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// A span is one call into a layer, recorded by the harness around the
// call (spans inside eval and wal are a later change's job): the
// layer's name, start and end in ns since the trace began, the span
// that made the call, and the request both belong to. Spans stay in
// memory until the run ends.
type span struct {
	name       string
	start, end int64
	parent     int32 // index into tracer.spans, -1 for a root
	req        int32 // request number, -1 for set-up work
	// aside marks the spans of a request kept out of the per-layer
	// series (op.aside).
	aside bool
}

// tracer collects spans, from one goroutine: the replay is sequential.
// A nil *tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	// aside is set while an aside request is being served.
	aside bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, req: req, aside: t.aside})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
}

// in runs f inside a span.
func (t *tracer) in(name string, parent, req int32, f func()) {
	i := t.begin(name, parent, req)
	f()
	t.end(i)
}

// spanCost times what recording one span costs: begin and end of
// 100 000 spans on a tracer of their own.
func spanCost() time.Duration {
	const n = 100000
	t := newTracer()
	began := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibration", -1, -1))
	}
	return time.Since(began) / n
}

// profile is the spans digested: durations per layer (aside requests
// left out), and for every request its root span and the self time
// each layer spent under it.
type profile struct {
	byName   map[string]series
	requests map[string][]requestCost // by root name: request.assert, ...
}

type requestCost struct {
	total time.Duration
	self  map[string]time.Duration // layer to self time inside this request
}

// digest computes self times: a span's duration minus the part of it
// its children cover.
func (t *tracer) digest() *profile {
	p := &profile{byName: map[string]series{}, requests: map[string][]requestCost{}}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
		if !s.aside {
			p.byName[s.name] = append(p.byName[s.name], time.Duration(d))
		}
	}
	// Spans are appended in begin order, so a root precedes its subtree.
	root := make([]int32, len(t.spans))
	costs := map[int32]*requestCost{}
	for i, s := range t.spans {
		if s.parent < 0 {
			root[i] = int32(i)
			if strings.HasPrefix(s.name, "request.") {
				costs[int32(i)] = &requestCost{total: time.Duration(s.end - s.start), self: map[string]time.Duration{}}
			}
		} else {
			root[i] = root[s.parent]
		}
		if c := costs[root[i]]; c != nil {
			c.self[s.name] += time.Duration(self[i])
		}
	}
	for i, s := range t.spans {
		if c := costs[int32(i)]; c != nil {
			p.requests[s.name] = append(p.requests[s.name], *c)
		}
	}
	return p
}

func (p *profile) p50(name string) time.Duration { return p.byName[name].p50() }

// budget is the per-request p50 of every layer's self time under the
// given kind of request; a layer most requests never enter (a
// checkpoint) reads 0 here and shows in its own series instead.
func (p *profile) budget(root string) []budgetRow {
	reqs := p.requests[root]
	layers := map[string]bool{}
	for _, r := range reqs {
		for l := range r.self {
			layers[l] = true
		}
	}
	var rows []budgetRow
	for _, l := range sortedKeys(layers) {
		s := make(series, len(reqs))
		for i, r := range reqs {
			s[i] = r.self[l]
		}
		name := l
		if l == root {
			name = "seqlogd.self" // the mirror's own glue between the calls
		}
		rows = append(rows, budgetRow{name, us(s.p50())})
	}
	return rows
}

// share is the fraction of the requests' total time that layers with
// one of the prefixes spent as self time.
func (p *profile) share(root string, prefixes ...string) float64 {
	var part, whole time.Duration
	for _, r := range p.requests[root] {
		whole += r.total
		for l, d := range r.self {
			for _, pre := range prefixes {
				if strings.HasPrefix(l, pre) {
					part += d
				}
			}
		}
	}
	return 100 * ratio(float64(part), float64(whole))
}

// write stores the spans as trace-<workload>.json: a name table and
// one [name, start_ns, end_ns, parent, request] row per span.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	index := map[string]int{}
	var names []string
	rows := make([][5]int64, len(t.spans))
	for i, s := range t.spans {
		n, ok := index[s.name]
		if !ok {
			n = len(names)
			index[s.name] = n
			names = append(names, s.name)
		}
		rows[i] = [5]int64{int64(n), s.start, s.end, int64(s.parent), int64(s.req)}
	}
	raw, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Columns  [5]string  `json:"columns"`
		Names    []string   `json:"names"`
		Spans    [][5]int64 `json:"spans"`
	}{workload, seed, [5]string{"name", "start_ns", "end_ns", "parent", "request"}, names, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}
