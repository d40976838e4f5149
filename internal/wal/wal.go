// Package wal is the durability layer of the serving tier: a
// write-ahead log of accepted load/assert/retract batches with
// periodic snapshot checkpoints and crash recovery.
//
// State is a deterministic log of deltas (the DDlog model): every
// mutation the engine accepts is first appended here as a
// length-prefixed, CRC32C-checksummed record, and recovery rebuilds
// the engine by restoring the newest valid checkpoint and replaying
// the tail through the same incremental maintenance that ran live
// (eval.Replayer). Recovery never refuses to start: a torn or
// truncated final record is truncated away and appending continues at
// the cut, and a checkpoint that fails its checksum falls back to the
// previous generation.
//
// On disk a log directory holds numbered generations:
//
//	wal-00000000.log          records since the start (generation 0)
//	checkpoint-00000001.ckpt  snapshot of the state after wal-00000000
//	wal-00000001.log          records since checkpoint 1, and so on
//
// Checkpoint g captures the state reached by replaying everything up
// to and including wal-(g-1); records accepted afterwards append to
// wal-g. One previous generation is retained as the fallback for a
// corrupt newest checkpoint; older generations are deleted when a new
// checkpoint commits.
package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"seqlog/internal/instance"
)

// SyncPolicy says when appended records are fsync'd to disk.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged write is
	// durable. The safest and slowest policy.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most every Options.SyncEvery: a crash can
	// lose the last interval's acknowledged writes, but the log never
	// lies about order and recovery still truncates cleanly.
	SyncInterval
	// SyncNever leaves syncing to the OS page cache (and Close). For
	// tests and throwaway instances.
	SyncNever
)

// syncPolicies names the policies, as the -sync flag spells them.
var syncPolicies = [...]string{SyncAlways: "always", SyncInterval: "interval", SyncNever: "never"}

// ParseSyncPolicy parses the -sync flag values always|interval|never.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	for p, name := range syncPolicies {
		if name == s {
			return SyncPolicy(p), nil
		}
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (always, interval, never)", s)
}

func (p SyncPolicy) String() string {
	if p >= 0 && int(p) < len(syncPolicies) {
		return syncPolicies[p]
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// checkpointBytes of records appended since the last checkpoint make
// ShouldCheckpoint report true, whatever CheckpointRecords says.
const checkpointBytes = 16 << 20

// Options configure a Log.
type Options struct {
	// Sync is the fsync policy for appends (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the maximum staleness under SyncInterval (default
	// 100ms). The sync happens on the first append past the deadline;
	// Close always syncs.
	SyncEvery time.Duration
	// CheckpointRecords triggers ShouldCheckpoint once that many
	// records were appended since the last checkpoint (default 4096;
	// negative disables this trigger, not checkpointBytes' one).
	CheckpointRecords int
	// WrapWriter, when set, wraps the WAL file writer — the fault
	// injection hook (internal/wal/walfault). It is re-applied to the
	// fresh file after every checkpoint rotation.
	WrapWriter func(io.Writer) io.Writer
	// Logf receives recovery and corruption notices (default: discard).
	Logf func(format string, args ...any)
	// Now is the clock of SyncInterval and of every timing (default time.Now).
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.CheckpointRecords == 0 {
		o.CheckpointRecords = 4096
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Handler receives the recovered state during Open: at most one
// Restore (the newest valid checkpoint), then every surviving WAL
// record in order. A Replay error is reported and counted but does not
// stop recovery — the live engine, too, keeps serving after a failed
// maintenance call, and recovery must reproduce that state rather than
// refuse to start.
type Handler interface {
	Restore(program string, edb *instance.Instance) error
	Replay(rec Record) error
}

// RecoveryStats reports what Open found and did.
type RecoveryStats struct {
	// CheckpointGen is the generation of the checkpoint restored from
	// (0: none — recovery started empty).
	CheckpointGen int
	// CheckpointsSkipped counts newer checkpoints passed over because
	// they failed validation.
	CheckpointsSkipped int
	// RecordsReplayed counts WAL records handed to Handler.Replay.
	RecordsReplayed int
	// ReplayErrors counts records whose Replay returned an error
	// (reported via Logf, replay continued).
	ReplayErrors int
	// TruncatedBytes is the size of the torn tail cut from the newest
	// WAL file (0 when the log ended cleanly).
	TruncatedBytes int64
	// Stopped carries a description of a mid-chain corruption that
	// ended replay before the newest record (rare double-failure case);
	// empty on a clean recovery.
	Stopped string
	// Decode is the time spent reading and validating checkpoints,
	// Restore the newest valid one's Handler.Restore (compile and initial
	// fixpoint), Replay reading, decoding and replaying WAL records.
	Decode, Restore, Replay time.Duration
}

// Log is an open write-ahead log: the append handle of the newest
// generation plus checkpoint bookkeeping. Methods are not safe for
// concurrent use; the serving layer serializes writers (appends happen
// under the same lock that orders engine maintenance, which is what
// keeps log order and apply order identical).
type Log struct {
	dir  string
	opts Options

	gen int
	f   *os.File
	w   io.Writer

	failed   error
	lastSync time.Time

	records                      int
	bytes                        int64
	checkpoints                  int
	appendT, fsyncT, checkpointT time.Duration // see Times
	ckptRecords                  int
	ckptBytes                    int64

	recovered RecoveryStats

	payloadBuf []byte
	frameBuf   []byte
}

func walPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", gen))
}

func ckptPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("checkpoint-%08d.ckpt", gen))
}

// Open recovers the state stored in dir — newest valid checkpoint into
// h.Restore, surviving WAL records into h.Replay — and returns a log
// ready to append at the exact point recovery reached. A missing dir
// is created (a fresh, empty log); a torn final record is truncated; a
// corrupt newest checkpoint falls back to the previous one.
func Open(dir string, opts Options, h Handler) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{dir: dir, opts: opts, lastSync: opts.Now()}

	ckptGens, walGens, err := scanDir(dir)
	if err != nil {
		return nil, err
	}

	// Restore the newest checkpoint that validates; fall back on
	// corruption. Generation 0 means "start empty".
	base := 0
	for i := len(ckptGens) - 1; i >= 0; i-- {
		gen := ckptGens[i]
		start := opts.Now()
		program, edb, err := readCheckpoint(ckptPath(dir, gen))
		decoded := opts.Now()
		l.recovered.Decode += decoded.Sub(start)
		if err != nil {
			opts.Logf("wal: checkpoint %d invalid, falling back: %v", gen, err)
			l.recovered.CheckpointsSkipped++
			continue
		}
		err = h.Restore(program, edb)
		l.recovered.Restore = opts.Now().Sub(decoded)
		if err != nil {
			return nil, fmt.Errorf("wal: restoring checkpoint %d: %w", gen, err)
		}
		base = gen
		break
	}
	l.recovered.CheckpointGen = base

	// Replay the WAL chain from the restored generation on. The newest
	// file may end in a torn record (truncated below); corruption in an
	// older file of the chain stops replay there.
	chain := walGens[sort.SearchInts(walGens, base):]
	l.gen = base
	if n := len(chain); n > 0 {
		l.gen = chain[n-1]
	}
	start := opts.Now()
	for _, gen := range chain {
		newest := gen == l.gen
		keep, err := l.replayFile(walPath(dir, gen), newest, h)
		l.recovered.Replay = opts.Now().Sub(start)
		if err != nil {
			return nil, err
		}
		if !keep {
			break
		}
	}

	if err := l.openAppend(); err != nil {
		return nil, err
	}
	return l, nil
}

// scanDir lists the checkpoint and WAL generations present, ascending.
func scanDir(dir string) (ckptGens, walGens []int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		var gen int
		if n, _ := fmt.Sscanf(e.Name(), "checkpoint-%d.ckpt", &gen); n == 1 {
			ckptGens = append(ckptGens, gen)
		} else if n, _ := fmt.Sscanf(e.Name(), "wal-%d.log", &gen); n == 1 {
			walGens = append(walGens, gen)
		}
	}
	sort.Ints(ckptGens)
	sort.Ints(walGens)
	return ckptGens, walGens, nil
}

// replayFile replays one WAL file. For the newest file a torn tail is
// truncated in place and replay reports success; for an older file any
// damage stops the chain (keep=false) — the state beyond it cannot be
// trusted, and recovery proceeds with what it has.
func (l *Log) replayFile(path string, newest bool, h Handler) (keep bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("wal: %w", err)
	}
	stop := func(off int64, cause error) (bool, error) {
		if !newest {
			l.recovered.Stopped = fmt.Sprintf("%s at byte %d: %v", filepath.Base(path), off, cause)
			l.opts.Logf("wal: %s", l.recovered.Stopped)
			return false, nil
		}
		if cut := int64(len(data)) - off; cut > 0 {
			l.recovered.TruncatedBytes = cut
			l.opts.Logf("wal: truncating torn tail of %s at byte %d (%d bytes dropped): %v",
				filepath.Base(path), off, cut, cause)
			if err := os.Truncate(path, off); err != nil {
				return false, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
		return true, nil
	}
	if len(data) < len(walMagic) || string(data[:len(walMagic)]) != walMagic {
		if !newest || len(data) > 0 && string(data[:min(len(data), len(walMagic))]) != walMagic[:min(len(data), len(walMagic))] {
			// A wrong magic is not a torn tail; only an empty or
			// magic-prefix file (creation interrupted) is recoverable by
			// rewriting the header.
			if !newest {
				l.recovered.Stopped = fmt.Sprintf("%s: bad magic", filepath.Base(path))
				l.opts.Logf("wal: %s", l.recovered.Stopped)
				return false, nil
			}
			return false, fmt.Errorf("wal: %s is not a WAL file (bad magic)", path)
		}
		l.opts.Logf("wal: rewriting interrupted header of %s", filepath.Base(path))
		if err := os.WriteFile(path, []byte(walMagic), 0o644); err != nil {
			return false, err
		}
		return true, nil
	}
	rest := data[len(walMagic):]
	off := int64(len(walMagic))
	for len(rest) > 0 {
		payload, tail, err := readFrame(rest)
		if err != nil {
			return stop(off, err)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return stop(off, err)
		}
		if err := h.Replay(rec); err != nil {
			l.recovered.ReplayErrors++
			l.opts.Logf("wal: replaying %s record at byte %d of %s: %v", rec.Op, off, filepath.Base(path), err)
		}
		l.recovered.RecordsReplayed++
		off += int64(len(rest) - len(tail))
		rest = tail
	}
	return true, nil
}

// openAppend opens (creating if needed) the current generation's file
// for appending and installs the (possibly fault-wrapped) writer.
func (l *Log) openAppend() error {
	path := walPath(l.dir, l.gen)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.WriteString(walMagic); err != nil {
			f.Close()
			return fmt.Errorf("wal: writing header: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.w = io.Writer(f)
	if l.opts.WrapWriter != nil {
		l.w = l.opts.WrapWriter(f)
	}
	return nil
}

// Recovery returns what Open found and did.
func (l *Log) Recovery() RecoveryStats { return l.recovered }

// Err returns the sticky append failure, nil while the log is healthy.
// Once an append or sync fails the log accepts no further writes: the
// serving layer degrades to read-only on exactly this signal.
func (l *Log) Err() error { return l.failed }

// Records returns the number of records appended since Open.
func (l *Log) Records() int { return l.records }

// Bytes returns the framed bytes appended since Open.
func (l *Log) Bytes() int64 { return l.bytes }

// Checkpoints returns the number of checkpoints written since Open.
func (l *Log) Checkpoints() int { return l.checkpoints }

// Times returns the time spent since Open framing and writing records,
// syncing them, and checkpointing (failed attempts included).
func (l *Log) Times() (appendT, fsyncT, checkpointT time.Duration) {
	return l.appendT, l.fsyncT, l.checkpointT
}

// Append encodes, frames and writes one record, then syncs according
// to the policy. The first failure is sticky: the record may be
// partially on disk (recovery will truncate it), no further appends
// are accepted, and every later call returns the original error.
func (l *Log) Append(rec Record) error {
	if l.failed != nil {
		return l.failed
	}
	start := l.opts.Now()
	payload, err := appendRecord(l.payloadBuf[:0], rec)
	if err != nil {
		return err // encoding error: nothing written, log still healthy
	}
	l.payloadBuf = payload
	l.frameBuf = appendFrame(l.frameBuf[:0], payload)
	_, err = l.w.Write(l.frameBuf)
	written := l.opts.Now()
	l.appendT += written.Sub(start)
	if err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		return l.failed
	}
	if l.opts.Sync == SyncAlways || l.opts.Sync == SyncInterval && written.Sub(l.lastSync) >= l.opts.SyncEvery {
		if err := l.sync(written); err != nil {
			return err
		}
	}
	l.records++
	l.ckptRecords++
	l.bytes += int64(len(l.frameBuf))
	l.ckptBytes += int64(len(l.frameBuf))
	return nil
}

// sync fsyncs the append handle, timing it from start.
func (l *Log) sync(start time.Time) error {
	err := l.f.Sync()
	l.lastSync = l.opts.Now()
	l.fsyncT += l.lastSync.Sub(start)
	if err != nil {
		l.failed = fmt.Errorf("wal: sync: %w", err)
		return l.failed
	}
	return nil
}

// ShouldCheckpoint reports whether the records or bytes appended since
// the last checkpoint crossed CheckpointRecords or checkpointBytes.
func (l *Log) ShouldCheckpoint() bool {
	if l.failed != nil {
		return false
	}
	return (l.opts.CheckpointRecords > 0 && l.ckptRecords >= l.opts.CheckpointRecords) ||
		l.ckptBytes >= checkpointBytes
}

// Checkpoint commits a snapshot of the current state (the program
// source and the engine's base facts) as the next generation and
// rotates the WAL: the snapshot is written to a temp file, fsync'd and
// renamed, a fresh WAL file is started, and generations older than the
// immediate fallback are deleted. On success the replayed prefix of
// the old WAL is no longer needed for recovery (the previous
// generation is kept only as the fallback for a corrupt checkpoint).
func (l *Log) Checkpoint(program string, edb *instance.Instance) error {
	if l.failed != nil {
		return l.failed
	}
	start := l.opts.Now()
	defer func() { l.checkpointT += l.opts.Now().Sub(start) }()
	next := l.gen + 1
	tmp := ckptPath(l.dir, next) + ".tmp"
	if err := writeFileSynced(tmp, encodeCheckpoint(program, edb)); err != nil {
		return fmt.Errorf("wal: writing checkpoint %d: %w", next, err)
	}
	if err := os.Rename(tmp, ckptPath(l.dir, next)); err != nil {
		return fmt.Errorf("wal: committing checkpoint %d: %w", next, err)
	}
	syncDir(l.dir)

	// Start the next generation's WAL. From here on the old file is
	// frozen: no record may land in it after the checkpoint that
	// supersedes it.
	old := l.f
	l.gen = next
	if err := l.openAppend(); err != nil {
		l.failed = err
		return err
	}
	old.Sync()
	old.Close()
	syncDir(l.dir)

	// Drop generations older than the fallback.
	for gen := next - 2; gen >= 0; gen-- {
		w, c := walPath(l.dir, gen), ckptPath(l.dir, gen)
		errW, errC := os.Remove(w), os.Remove(c)
		if os.IsNotExist(errW) && (gen == 0 || os.IsNotExist(errC)) {
			break // older generations were cleaned up before
		}
	}

	l.checkpoints++
	l.ckptRecords, l.ckptBytes = 0, 0
	return nil
}

// Close syncs and closes the append handle. Append errors already
// recorded are returned but do not prevent closing.
func (l *Log) Close() error {
	if l.f == nil {
		return l.failed
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	if l.failed != nil {
		return l.failed
	}
	return err
}

// encodeCheckpoint renders a checkpoint file: the magic, then one frame
// holding the program source and the base facts.
func encodeCheckpoint(program string, edb *instance.Instance) []byte {
	payload := binary.AppendUvarint(nil, uint64(len(program)))
	payload = append(payload, program...)
	payload = edb.AppendBinary(payload)
	return append([]byte(ckptMagic), appendFrame(nil, payload)...)
}

// readCheckpoint reads and validates one checkpoint file; a file that
// cannot be read is as invalid as one that does not decode.
func readCheckpoint(path string) (string, *instance.Instance, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	return decodeCheckpoint(data)
}

// decodeCheckpoint validates a checkpoint file's contents, returning the
// program source and the decoded base-fact instance.
func decodeCheckpoint(data []byte) (string, *instance.Instance, error) {
	if len(data) < len(ckptMagic) || string(data[:len(ckptMagic)]) != ckptMagic {
		return "", nil, fmt.Errorf("bad magic")
	}
	payload, rest, err := readFrame(data[len(ckptMagic):])
	if err != nil {
		return "", nil, err
	}
	if len(rest) != 0 {
		return "", nil, fmt.Errorf("%d trailing bytes", len(rest))
	}
	n, w := binary.Uvarint(payload)
	if w <= 0 || n > uint64(len(payload[w:])) {
		return "", nil, fmt.Errorf("truncated program")
	}
	program := string(payload[w : w+int(n)])
	edb, tail, err := instance.DecodeInstance(payload[w+int(n):])
	if err != nil {
		return "", nil, err
	}
	if len(tail) != 0 {
		return "", nil, fmt.Errorf("%d trailing instance bytes", len(tail))
	}
	return program, edb, nil
}

// writeFileSynced writes data to path and fsyncs it before closing.
func writeFileSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable; errors are ignored (not every filesystem supports it).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
