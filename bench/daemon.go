package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env is one invocation's working state: where the binaries under
// test were built, the scratch directory for this run, and the child
// processes still alive. close undoes all of it on every exit path.
type env struct {
	root   string // the repository root
	bin    string // directory holding seqlogd and seqlog
	tmp    string // scratch for this invocation, removed by close
	dir    string // scratch of the workload being run, under tmp
	pidDir string // one file per live daemon, for stale detection
	stale  int    // daemons of an earlier run found alive and killed
	// quick is the smoke test's mode: one daemon start and one restart
	// in place of the medians' several, and a batch suite a quarter the
	// size. The command line cannot set it.
	quick bool

	mu      sync.Mutex
	daemons map[*daemon]bool
}

// requestTimeout is how long a client waits for a reply before the
// request counts as failed.
const requestTimeout = 30 * time.Second

// newEnv finds the repository, builds cmd/seqlogd and cmd/seqlog once
// into .bench_build/bin and makes the run's scratch directory.
func newEnv(label string) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, bin: filepath.Join(build, "bin"), pidDir: filepath.Join(build, "pids"),
		daemons: map[*daemon]bool{}}
	for _, d := range []string{e.bin, e.pidDir, filepath.Join(build, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	e.reapStale()
	cmd := exec.Command("go", "build", "-o", e.bin+string(filepath.Separator), "./cmd/seqlogd", "./cmd/seqlog")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(build, "gocache"), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building the binaries under test: %v\n%s", err, out)
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"+label+"-"); err != nil {
		return nil, err
	}
	return e, nil
}

// findRoot accepts the working directory or its parent (go test runs
// in bench/) as the repository root.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "seqlogd", "main.go")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no cmd/seqlogd under %s or its parent: run from the repository root", wd)
}

// reapStale looks for daemons an earlier, interrupted run left behind.
// A run can never talk to one by accident — every daemon listens on a
// port of its own that only its parent learns — but a leftover would
// compete for the two cores, so it is reported, killed and counted in
// the run record.
func (e *env) reapStale() {
	files, _ := filepath.Glob(filepath.Join(e.pidDir, "*.pid"))
	for _, f := range files {
		pid, err := strconv.Atoi(strings.TrimSuffix(filepath.Base(f), ".pid"))
		if err == nil {
			cmdline, _ := os.ReadFile(fmt.Sprintf("/proc/%d/cmdline", pid))
			if bytes.HasPrefix(cmdline, []byte(filepath.Join(e.bin, "seqlogd"))) {
				fmt.Fprintf(os.Stderr, "seqbench: stale seqlogd (pid %d) from an earlier run: killing it\n", pid)
				if p, err := os.FindProcess(pid); err == nil {
					p.Kill()
				}
				e.stale++
			}
		}
		os.Remove(f)
	}
}

// close kills every child still alive, waits for it, and removes the
// scratch directory.
func (e *env) close() {
	e.mu.Lock()
	live := make([]*daemon, 0, len(e.daemons))
	for d := range e.daemons {
		live = append(live, d)
	}
	e.mu.Unlock()
	for _, d := range live {
		d.kill()
	}
	os.RemoveAll(e.tmp)
}

func (e *env) write(name, content string) (string, error) {
	p := filepath.Join(e.dir, name)
	return p, os.WriteFile(p, []byte(content), 0o644)
}

// daemon is one running seqlogd.
type daemon struct {
	env   *env
	cmd   *exec.Cmd
	addr  string
	args  []string
	ready time.Duration // exec to the first ok reply
	done  chan struct{} // closed when stderr is drained
}

// start execs seqlogd on a free loopback port and waits — for the
// "listening on" line, never for a timer — until it answers a request.
func (e *env) start(args ...string) (*daemon, error) {
	d := &daemon{env: e, args: append([]string{"-listen", "127.0.0.1:0"}, args...), done: make(chan struct{})}
	d.cmd = exec.Command(filepath.Join(e.bin, "seqlogd"), d.args...)
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	began := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	pidFile := filepath.Join(e.pidDir, fmt.Sprintf("%d.pid", d.cmd.Process.Pid))
	os.WriteFile(pidFile, nil, 0o644)
	e.mu.Lock()
	e.daemons[d] = true
	e.mu.Unlock()

	sc := bufio.NewScanner(stderr)
	var notices []string
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "seqlogd: listening on "); ok {
			d.addr = strings.TrimSpace(addr)
			break
		}
		notices = append(notices, line)
	}
	if d.addr == "" {
		close(d.done)
		d.kill()
		return nil, fmt.Errorf("seqlogd exited before listening:\n%s", strings.Join(notices, "\n"))
	}
	go func() { // keep the pipe empty so the daemon never blocks on it
		for sc.Scan() {
		}
		close(d.done)
	}()
	c, err := d.dial()
	if err != nil {
		d.kill()
		return nil, err
	}
	defer c.close()
	if r := c.roundTrip("stats", false); r.err != nil {
		d.kill()
		return nil, fmt.Errorf("first request: %w", r.err)
	}
	d.ready = time.Since(began)
	return d, nil
}

// kill is kill -9: no drain, no final checkpoint. It returns once the
// process has ended.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.cmd.Wait()
	os.Remove(filepath.Join(d.env.pidDir, fmt.Sprintf("%d.pid", d.cmd.Process.Pid)))
	d.env.mu.Lock()
	delete(d.env.daemons, d)
	d.env.mu.Unlock()
}

// cpu returns the CPU time the daemon's threads have run so far, to
// the nanosecond, from /proc/<pid>/task/*/schedstat; where the kernel
// keeps no schedstat, user+system from /proc/<pid>/stat in 10 ms ticks.
func (d *daemon) cpu() time.Duration {
	pid := d.cmd.Process.Pid
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	var ran int64
	for _, t := range tasks {
		raw, err := os.ReadFile(t)
		if err != nil {
			continue // the thread ended between the glob and the read
		}
		if f := strings.Fields(string(raw)); len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			ran += ns
		}
	}
	if ran > 0 {
		return time.Duration(ran)
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name, field 2, may hold spaces; count from its ")".
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond
}

// peakRSS returns VmHWM in MB.
func (d *daemon) peakRSS() float64 {
	raw, _ := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// client is one synchronous line-protocol session.
type client struct {
	conn net.Conn
	rd   *bufio.Reader
}

func (d *daemon) dial() (*client, error) {
	conn, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, err
	}
	return &client{conn: conn, rd: bufio.NewReaderSize(conn, 256<<10)}, nil
}

func (c *client) close() { c.conn.Close() }

// reply is what came back for one request: the final ok/err line, the
// number of lines before it, those lines when asked for, and the round
// trip from the write to the final line read.
type reply struct {
	final string
	rows  int
	body  []string
	took  time.Duration
	err   error // transport failure, timeout, or an err reply
}

func (c *client) roundTrip(line string, keep bool) reply {
	var r reply
	began := time.Now()
	c.conn.SetDeadline(began.Add(requestTimeout))
	if _, err := c.conn.Write([]byte(line + "\n")); err != nil {
		r.err = err
		return r
	}
	for {
		l, err := c.rd.ReadSlice('\n')
		if err != nil {
			r.err = err
			return r
		}
		if bytes.HasPrefix(l, []byte("ok")) || bytes.HasPrefix(l, []byte("err")) {
			r.took = time.Since(began)
			r.final = strings.TrimSpace(string(l))
			if strings.HasPrefix(r.final, "err") {
				r.err = fmt.Errorf("%s: %s", clip(line), r.final)
			}
			return r
		}
		r.rows++
		if keep {
			r.body = append(r.body, strings.TrimSpace(string(l)))
		}
	}
}

// field reads key=value out of a reply's final line.
func (r reply) field(key string) (int, bool) {
	for _, f := range strings.Fields(r.final) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, err := strconv.Atoi(v)
			return n, err == nil
		}
	}
	return 0, false
}

// parseCounters reads the name=value fields of a stats reply.
func parseCounters(line string) map[string]int {
	out := map[string]int{}
	for _, f := range strings.Fields(line) {
		if k, v, ok := strings.Cut(f, "="); ok {
			if n, err := strconv.Atoi(v); err == nil {
				out[k] = n
			}
		}
	}
	return out
}
