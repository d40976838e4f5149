package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"seqlog/internal/eval"
)

// buildDaemon compiles the seqlogd binary once per test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "seqlogd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches the binary and waits for its listen address.
func startDaemon(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-listen", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "seqlogd: listening on "); ok {
			// Keep draining stderr so the daemon never blocks on a full
			// pipe; its notices are useful under -v.
			go func() {
				for sc.Scan() {
					t.Logf("daemon: %s", sc.Text())
				}
			}()
			return cmd, strings.TrimSpace(addr)
		}
		t.Logf("daemon: %s", line)
	}
	cmd.Process.Kill()
	cmd.Wait()
	t.Fatalf("daemon exited before listening (scanner err: %v)", sc.Err())
	return nil, ""
}

// client is a line-protocol session against a live daemon.
type client struct {
	conn net.Conn
	rd   *bufio.Reader
}

func dialDaemon(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &client{conn: conn, rd: bufio.NewReader(conn)}
}

// roundTrip sends one command and reads reply lines through the final
// ok/err line.
func (c *client) roundTrip(cmd string) (string, error) {
	if _, err := fmt.Fprintf(c.conn, "%s\n", cmd); err != nil {
		return "", err
	}
	return c.readReply()
}

func (c *client) readReply() (string, error) {
	var b strings.Builder
	for {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			return b.String(), err
		}
		b.WriteString(line)
		if strings.HasPrefix(line, "ok") || strings.HasPrefix(line, "err") {
			return b.String(), nil
		}
	}
}

const crashSrc = "T(@x.@y) :- E(@x.@y).\nT(@x.@z) :- T(@x.@y), E(@y.@z).\n"

// queryFacts returns the tuples of rel as printed fact lines.
func queryFacts(t *testing.T, c *client, rel string) map[string]bool {
	t.Helper()
	out, err := c.roundTrip("query " + rel)
	if err != nil || !strings.Contains(out, "ok n=") {
		t.Fatalf("query %s: %v\n%s", rel, err, out)
	}
	facts := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, rel+"(") {
			facts[strings.TrimSpace(line)] = true
		}
	}
	return facts
}

// closure computes the transitive closure the crash program derives,
// independently of any engine, from the recovered edge facts.
func closure(edges map[string]bool) map[string]bool {
	type pair struct{ x, y string }
	have := map[pair]bool{}
	for e := range edges {
		body := strings.TrimSuffix(strings.TrimPrefix(e, "E("), ").")
		parts := strings.SplitN(body, ".", 2)
		have[pair{parts[0], parts[1]}] = true
	}
	for changed := true; changed; {
		changed = false
		for a := range have {
			for b := range have {
				if a.y == b.x && !have[pair{a.x, b.y}] {
					have[pair{a.x, b.y}] = true
					changed = true
				}
			}
		}
	}
	out := map[string]bool{}
	for p := range have {
		out[fmt.Sprintf("T(%s.%s)", p.x, p.y)+"."] = true
	}
	return out
}

// TestCrashRecoveryKill9 is the process-level fault harness: a daemon
// under -sync always takes an assert storm, is killed with SIGKILL at
// a random moment, and is restarted on the same WAL directory. Every
// acknowledged write must survive (the recovered E is a superset of
// the acked facts — replies can be lost in flight, writes must not
// be), and the recovered T must equal the closure recomputed
// independently from the recovered E: recovery is replay, not
// deserialized derived state.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level crash harness")
	}
	bin := buildDaemon(t)
	walDir := t.TempDir()
	daemon, addr := startDaemon(t, bin, "-wal-dir", walDir, "-sync", "always")
	defer func() {
		daemon.Process.Kill()
		daemon.Wait()
	}()

	c := dialDaemon(t, addr)
	defer c.conn.Close()
	if out, err := c.roundTrip("load\n" + crashSrc + "."); err != nil || !strings.Contains(out, "ok loaded") {
		t.Fatalf("load: %v\n%s", err, out)
	}

	// The storm, with the killer on a random fuse (seeded per run by
	// the harness loop; crashes land anywhere from mid-record to
	// between batches).
	r := rand.New(rand.NewSource(time.Now().UnixNano()))
	fuse := time.Duration(r.Intn(120)) * time.Millisecond
	go func() {
		time.Sleep(fuse)
		daemon.Process.Kill()
	}()

	acked := map[string]bool{}
	for i := 0; i < 3000; i++ {
		fact := fmt.Sprintf("E(n%d.n%d).", i%17, (i*7+3)%17)
		out, err := c.roundTrip("assert " + fact)
		if err != nil {
			break // the kill landed
		}
		if !strings.HasPrefix(out, "ok") {
			t.Fatalf("assert refused: %s", out)
		}
		acked[fact] = true
	}
	daemon.Wait()

	restarted, addr2 := startDaemon(t, bin, "-wal-dir", walDir)
	defer func() {
		restarted.Process.Signal(syscall.SIGTERM)
		restarted.Wait()
	}()
	c2 := dialDaemon(t, addr2)
	defer c2.conn.Close()
	checkRecoveryStats(t, c2)

	if len(acked) == 0 {
		return // killed before any ack: nothing to verify
	}
	edges := queryFacts(t, c2, "E")
	for fact := range acked {
		if !edges[fact] {
			t.Fatalf("acknowledged fact %s lost in the crash (fuse %v, %d acked, %d recovered)",
				fact, fuse, len(acked), len(edges))
		}
	}
	got := queryFacts(t, c2, "T")
	want := closure(edges)
	for f := range want {
		if !got[f] {
			t.Fatalf("recovered closure missing %s (%d edges)", f, len(edges))
		}
	}
	for f := range got {
		if !want[f] {
			t.Fatalf("recovered closure has spurious %s", f)
		}
	}
}

// checkRecoveryStats holds a restarted daemon's `stats json` to its
// text counters: recovery's records_replayed is recovered_records, and
// no duration it reports is negative.
func checkRecoveryStats(t *testing.T, c *client) {
	t.Helper()
	out, err := c.roundTrip("stats json")
	if err != nil || !strings.HasSuffix(out, "\nok\n") {
		t.Fatalf("stats json: %v\n%s", err, out)
	}
	var st struct {
		Recovered int                       `json:"recovered_records"`
		Recovery  map[string]int64          `json:"recovery"`
		WAL       map[string]int64          `json:"wal"`
		Verbs     map[string]map[string]any `json:"verbs"`
	}
	if err := json.Unmarshal([]byte(strings.TrimSuffix(out, "\nok\n")), &st); err != nil {
		t.Fatalf("stats json: %v\n%s", err, out)
	}
	if st.Recovery["records_replayed"] != int64(st.Recovered) {
		t.Fatalf("records_replayed %d, recovered_records %d", st.Recovery["records_replayed"], st.Recovered)
	}
	for group, ns := range map[string]map[string]int64{"recovery": st.Recovery, "wal": st.WAL} {
		for k, v := range ns {
			if strings.HasSuffix(k, "_ns") && v < 0 {
				t.Fatalf("%s.%s = %d", group, k, v)
			}
		}
	}
	for verb, row := range st.Verbs {
		if row["total_ns"].(float64) < 0 {
			t.Fatalf("%s total_ns = %v", verb, row["total_ns"])
		}
		for _, phases := range []any{row["phase_ns"], row["maintenance_ns"]} {
			for k, v := range phases.(map[string]any) {
				if v.(float64) < 0 {
					t.Fatalf("%s %s = %v", verb, k, v)
				}
			}
		}
	}
}

// TestShutdownCheckpointRecovery: SIGTERM shuts the daemon down
// gracefully — exit status 0, a final checkpoint on disk — and the
// restart recovers from the snapshot without replaying records.
func TestShutdownCheckpointRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level shutdown harness")
	}
	bin := buildDaemon(t)
	walDir := t.TempDir()
	daemon, addr := startDaemon(t, bin, "-wal-dir", walDir, "-sync", "always")
	killed := false
	defer func() {
		if !killed {
			daemon.Process.Kill()
			daemon.Wait()
		}
	}()

	c := dialDaemon(t, addr)
	if out, err := c.roundTrip("load\n" + crashSrc + "."); err != nil || !strings.Contains(out, "ok loaded") {
		t.Fatalf("load: %v\n%s", err, out)
	}
	if out, err := c.roundTrip("assert E(a.b). E(b.c)."); err != nil || !strings.HasPrefix(out, "ok") {
		t.Fatalf("assert: %v\n%s", err, out)
	}
	c.conn.Close()

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("graceful shutdown must exit clean: %v", err)
	}
	killed = true
	if _, err := os.Stat(filepath.Join(walDir, "checkpoint-00000001.ckpt")); err != nil {
		t.Fatalf("final checkpoint missing: %v", err)
	}

	restarted, addr2 := startDaemon(t, bin, "-wal-dir", walDir)
	defer func() {
		restarted.Process.Signal(syscall.SIGTERM)
		restarted.Wait()
	}()
	c2 := dialDaemon(t, addr2)
	defer c2.conn.Close()
	out, err := c2.roundTrip("stats")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"facts=5", "recovered_records=0 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("restart stats missing %q: %s", want, out)
		}
	}
	checkRecoveryStats(t, c2)
}

// TestNegativeMaxFactsIsUsageError: the daemon refuses a negative
// -max-facts at the command line — exit status 2, before it listens,
// in the words seqlog uses (eval.Limits.SetMaxFacts) — rather than
// starting and then rejecting every load against the bound.
func TestNegativeMaxFactsIsUsageError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	out, err := exec.Command(buildDaemon(t), "-max-facts", "-5").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("seqlogd -max-facts -5: %v, want exit status 2\n%s", err, out)
	}
	want := `invalid value "-5" for flag -max-facts: ` + new(eval.Limits).SetMaxFacts("-5").Error() + "\n"
	if !strings.HasPrefix(string(out), want) {
		t.Errorf("output %q does not start with %q", out, want)
	}
}
