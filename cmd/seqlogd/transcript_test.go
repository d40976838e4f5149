package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"seqlog/internal/eval"
	"seqlog/internal/wal"
	"seqlog/internal/wal/walfault"
)

var updateTranscript = flag.Bool("update", false, "rewrite testdata/transcript.golden from the current server's replies")

// transcriptSession is one scripted connection of the protocol
// transcript; sessions run in order against the server they name.
type transcriptSession struct {
	name   string
	server string // "durable" (WAL attached), "bounded" (MaxFacts 3, no WAL) or "fresh"
	script string
	// before runs ahead of the session with the durable server's WAL
	// writer; the read-only session uses it to make the disk die.
	before func(fw *walfault.Writer)
}

// transcript is the scripted run TestProtocolTranscript pins, and the
// seed corpus of FuzzSession.
var transcript = []transcriptSession{
	{name: "no program loaded", server: "durable", script: `# comments and blank lines are skipped

bogus
assert E(a.b).
retract E(a.b).
query T
holds S
stats
explain
`},
	{name: "every verb", server: "durable", script: `load
T(@x.@y) :- E(@x.@y).
T(@x.@z) :- T(@x.@y), E(@y.@z).
S :- T(a.c).
.
assert E(a.b). E(b.c).
assert E(a.b).
assert E(a.b
assert T(a.b).
assert E(a, b).
assert
query T
query S
query U
query Nope
query
holds S
holds T
holds Nope
retract E(b.c).
retract E(b.c).
retract E(nope
retract T(a.b).
retract E(a, b).
query T
query S
holds S
stats
explain
Load
load
S($y.a) :- R($x).
T(@x) :- T(@x), !T(@x).
.
load
Pair($x, $y) :- Left($x), Right($y).
.
assert Left(l). Right(r).
query Pair
load
T(@x.@y) :- E(@x, @y).
.
load
T(@x.@y) :- E(@x.@y).
T(@x.@z) :- T(@x.@y), E(@y.@z).
.
query T
stats
quit
query T
`},
	{name: "truncated load", server: "durable", script: `query T
load
Broken($x) :- E($x).
`},
	{name: "read-only", server: "durable", before: func(fw *walfault.Writer) { fw.FailAfter = fw.Written() }, script: `assert E(b.c).
retract E(a.b).
load
T(@x.@y) :- E(@x.@y).
.
assert E(b.c).
query T
holds T
stats
`},
	{name: "broken engine", server: "bounded", script: `load
T(@x.@y) :- E(@x.@y).
T(@x.@z) :- T(@x.@y), E(@y.@z).
.
assert E(a.b). E(b.c). E(c.d).
assert E(x.y).
retract E(a.b).
query T
holds T
stats
explain
load
T(@x.@y) :- E(@x.@y).
.
query T
`},
	// The same negation cycle with and without a "---": only strata
	// somebody wrote are an order to hold a negation against.
	{name: "strata nobody wrote", server: "fresh", script: `load
T :- !T2.
T2 :- !T.
.
load
T :- !T2.
---
T2 :- !T.
.
`},
	// A relation defined in two written strata is refused at load; the
	// engine loaded before keeps serving.
	{name: "stratum order", server: "fresh", script: `load
T(@x) :- E(@x).
.
assert E(a). E(b).
load
T(@x) :- E(@x).
---
T(@x) :- F(@x).
.
query T
`},
}

// TestProtocolTranscript pins every verb's ok and err reply byte for
// byte: one scripted run over unknown commands, the no-program state,
// parse errors, IDB and arity rejections, no-op batches, nullary and
// unknown relations, rejected and warned loads, the EDB carry, a
// truncated load, read-only degradation, a broken engine and a negation
// cycle with and without written strata. The
// golden was recorded before the write path and the verb switch were
// unified; regenerate with
// `go test ./cmd/seqlogd -run TestProtocolTranscript -update` only when
// a reply is meant to change.
func TestProtocolTranscript(t *testing.T) {
	var fw *walfault.Writer
	servers := map[string]*server{
		"durable": newWALServer(t, t.TempDir(), wal.Options{Sync: wal.SyncNever,
			WrapWriter: func(w io.Writer) io.Writer {
				fw = &walfault.Writer{W: w, FailAfter: -1}
				return fw
			}}),
		"bounded": {limits: eval.Limits{MaxFacts: 3}},
		"fresh":   {},
	}
	var got strings.Builder
	for _, s := range transcript {
		if s.before != nil {
			s.before(fw)
		}
		got.WriteString("== " + s.name + " ==\n")
		for _, l := range strings.Split(strings.TrimSuffix(s.script, "\n"), "\n") {
			got.WriteString("> " + l + "\n")
		}
		got.WriteString("--\n")
		got.WriteString(run(t, servers[s.server], s.script))
	}
	const golden = "testdata/transcript.golden"
	if *updateTranscript {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("protocol transcript changed (run with -update if intended)\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}

// FuzzSession feeds arbitrary text to a server serving the transitive
// closure, one command per session as serve frames them (a load runs
// to its lone "."), and holds the protocol to three things: nothing
// panics, every command's reply ends in an ok or err line, and a
// following session's `query T` still gets its reply. The transcript's
// scripts are the seed corpus, with the stats argument forms.
func FuzzSession(f *testing.F) {
	for _, s := range transcript {
		f.Add(s.script)
	}
	f.Add("stats json\n")
	f.Add("stats bogus\nstats json json\n")
	f.Fuzz(func(t *testing.T, text string) {
		srv := &server{limits: eval.Limits{MaxFacts: 2000}}
		run(t, srv, "load\nT(@x.@y) :- E(@x.@y).\nT(@x.@z) :- T(@x.@y), E(@y.@z).\n.\nassert E(a.b). E(b.c).\n")
		for _, cmd := range append(commands(text), "query T\n") {
			reply := run(t, srv, cmd)
			lines := strings.Split(strings.TrimSuffix(reply, "\n"), "\n")
			last := lines[len(lines)-1]
			if !strings.HasSuffix(reply, "\n") || !(last == "ok" || strings.HasPrefix(last, "ok ") || strings.HasPrefix(last, "err ")) {
				t.Fatalf("command %q: reply does not end in an ok/err line:\n%s", cmd, reply)
			}
		}
	})
}

// commands splits protocol text into the commands serve would run, each
// with its line ending: lines that are blank or start with "#" are
// skipped, and a load takes every following line up to its lone ".".
func commands(text string) []string {
	var cmds []string
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cmd := lines[i] + "\n"
		if verb, _, _ := strings.Cut(line, " "); verb == "load" {
			for i+1 < len(lines) {
				i++
				cmd += lines[i] + "\n"
				if strings.TrimSpace(lines[i]) == "." {
					break
				}
			}
		}
		cmds = append(cmds, cmd)
	}
	return cmds
}
