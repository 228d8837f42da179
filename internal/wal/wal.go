// Package wal is the write-ahead log of the counting service: an
// append-only, segmented, checksummed log of ingest records (SBF1 add
// frames and merge snapshots) that makes an ack mean something across a
// crash. The serving layer appends every mutation to the log *before*
// acknowledging it, and a restarted process replays the log tail on top
// of the newest checkpoint — because the log records are the wire frames
// themselves, replay re-runs the exact ingest sequence and the recovered
// store is bit-identical to the pre-crash one by construction.
//
// On-disk layout: Dir holds segment files named wal-<base>.seg, where
// <base> is the 16-hex-digit LSN (log sequence number — a dense record
// index, starting at 0) of the segment's first record. Each record is
//
//	[uint32 LE payload length][uint32 LE CRC32-C of payload][payload]
//
// Segments rotate at Options.SegmentBytes; completed checkpoints call
// TruncateBefore to delete segments made obsolete (every record below the
// checkpoint's LSN).
//
// Crash semantics, the heart of the package: a torn append — the process
// or machine died mid-write — can only ever damage the *tail* of the
// *last* segment. Open therefore truncates the last segment at the first
// record that is short or fails its checksum **iff nothing readable
// follows it** (the torn-write signature), and refuses to open — with a
// typed, errors.Is-able error — on any damage that a torn write cannot
// explain: a bad checksum with valid bytes after it, a short or
// checksum-bad record in a non-final segment, a gap in the segment
// sequence. Truncating at the torn record and never past it is what keeps
// "replay the tail" honest: every record the log returns was written in
// full, and no record that was written in full is ever dropped.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/fsx"
)

// FsyncPolicy says when Append makes records durable against power
// failure. Against a process crash (kill -9) every completed Append is
// durable under every policy — the bytes are in the kernel regardless.
type FsyncPolicy int

const (
	// FsyncAlways fsyncs the segment before Append returns: an acked
	// record survives power failure. The strictest and slowest policy.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval fsyncs at most every Options.SyncInterval, piggybacked
	// on Append (and forced by Sync): bounded post-power-failure loss.
	FsyncInterval
	// FsyncNever leaves syncing to the OS (and to explicit Sync calls,
	// which checkpoints issue): crash-safe, power-failure lossy.
	FsyncNever
)

// ParsePolicy maps the CLI vocabulary ("always", "interval", "never")
// onto a policy.
func ParsePolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// Typed open/replay failures. Wrapped with file and offset context; test
// with errors.Is.
var (
	// ErrCorrupt reports damage a torn write cannot explain: a bad
	// checksum mid-segment, a short record in a non-final segment, or an
	// empty non-final segment. The log refuses to open — counting on top
	// of silently dropped acked records would be worse than not starting.
	ErrCorrupt = errors.New("wal: corrupt log")
	// ErrGap reports a hole in the segment sequence (a segment's base LSN
	// does not continue its predecessor): records are missing wholesale.
	ErrGap = errors.New("wal: gap in segment sequence")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("wal: log is closed")
	// ErrPoisoned reports use of a log after one of its writes or fsyncs
	// failed, including the seal of a full segment (its close) and the
	// directory fsync that makes a new segment durable. A failed write can
	// leave a torn record mid-segment, and on Linux a retried fsync can
	// report success after the kernel dropped the dirty pages, so the log
	// refuses every later Append and Sync rather than ack records it may
	// have lost. The error wraps the first failure; reopening the log
	// recovers.
	ErrPoisoned = errors.New("wal: log poisoned by an earlier write or fsync failure")
)

// Options dimensions a Log. Dir is required; everything else defaults.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes rotates segments at this size (0 = 64 MiB). A single
	// record larger than the cap still lands in one segment — the cap
	// bounds rotation, not record size.
	SegmentBytes int64
	// Policy says when appends fsync; see FsyncPolicy.
	Policy FsyncPolicy
	// SyncInterval is FsyncInterval's cadence (0 = 100 ms).
	SyncInterval time.Duration
}

// DefaultSegmentBytes is the segment rotation size when unset.
const DefaultSegmentBytes = 64 << 20

// DefaultSyncInterval is FsyncInterval's cadence when unset.
const DefaultSyncInterval = 100 * time.Millisecond

// recHeaderBytes is the per-record framing cost: length + CRC.
const recHeaderBytes = 8

// syncDir fsyncs a directory. Tests replace it to inject a failure.
var syncDir = fsx.SyncDir

// RecordOverhead is the on-disk framing cost per record beyond its
// payload — exported so callers can account pending-replay bytes exactly.
const RecordOverhead = recHeaderBytes

// castagnoli is the CRC32-C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segInfo is one on-disk segment: its first LSN, record count, and size.
type segInfo struct {
	base    uint64
	records uint64
	bytes   int64
	path    string
}

func (s segInfo) end() uint64 { return s.base + s.records }

// Stats is a point-in-time observability snapshot of the log.
type Stats struct {
	// Segments and Bytes describe the on-disk footprint (all segments,
	// including the active one).
	Segments int
	Bytes    int64
	// NextLSN is the LSN the next Append will get (== records ever
	// appended, counting those already truncated away).
	NextLSN uint64
	// AppendedBytes counts bytes ever appended (headers included),
	// monotone across the process lifetime, initialized at Open to the
	// bytes already on disk. TruncateBefore does not decrease it.
	AppendedBytes int64
	// UnsyncedBytes counts bytes appended since the last fsync;
	// OldestUnsyncedUnixNano stamps the first of them (0 when none) —
	// together they bound what a power failure right now could lose.
	UnsyncedBytes          int64
	OldestUnsyncedUnixNano int64
	LastSyncUnixNano       int64
	// TailTruncatedBytes reports how many torn-tail bytes Open discarded
	// (0 on a clean open).
	TailTruncatedBytes int64
	// Err is why appends fail, nil while they succeed: the poison error
	// (see ErrPoisoned), or else the error of the last rotation when it
	// could not create the next segment. The next rotation that creates
	// one clears it.
	Err error
}

// Log is an open write-ahead log. Append/Sync/NextLSN/Stats are safe for
// concurrent use; Replay and TruncateBefore serialize against appends.
type Log struct {
	opts Options

	mu        sync.Mutex
	f         *os.File  // active segment (last in segs)
	segs      []segInfo // all live segments, ascending base; last is active
	nextLSN   uint64
	appended  int64 // lifetime bytes, incl. pre-existing at Open
	unsynced  int64
	oldestUns time.Time
	lastSync  time.Time
	truncated int64 // torn-tail bytes discarded at Open
	buf       []byte
	closed    bool
	failed    error // first failed write, fsync, seal or directory fsync; poisons the log
	rotateErr error // last rotation's failure to create a segment; retried by the next Append
}

// segName renders a segment file name for its base LSN.
func segName(base uint64) string { return fmt.Sprintf("wal-%016x.seg", base) }

// parseSegName inverts segName; ok is false for foreign files.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg")
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Open scans Dir, validates every segment, truncates a torn tail in the
// final segment (never anything else — see the package comment for the
// refusal rules), and returns a Log positioned to append after the last
// intact record.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SegmentBytes < 0 {
		return nil, fmt.Errorf("wal: segment size %d < 0", opts.SegmentBytes)
	}
	if opts.SyncInterval == 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if opts.SyncInterval < 0 {
		return nil, fmt.Errorf("wal: sync interval %v < 0", opts.SyncInterval)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var segs []segInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		base, ok := parseSegName(e.Name())
		if !ok {
			continue // foreign file (manifest, tmp, ...): not ours to judge
		}
		segs = append(segs, segInfo{base: base, path: filepath.Join(opts.Dir, e.Name())})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })

	l := &Log{opts: opts, lastSync: time.Now()}
	for i := range segs {
		final := i == len(segs)-1
		if i > 0 && segs[i].base != segs[i-1].end() {
			return nil, fmt.Errorf("%w: segment %s starts at lsn %d, previous ends at %d",
				ErrGap, filepath.Base(segs[i].path), segs[i].base, segs[i-1].end())
		}
		if err := l.scanSegment(&segs[i], final); err != nil {
			return nil, err
		}
		if !final && segs[i].records == 0 {
			// An empty *final* segment is a benign crash artifact (created,
			// died before the first append); an empty interior one means the
			// records the next segment's base promises are gone.
			return nil, fmt.Errorf("%w: segment %s is empty but not last",
				ErrCorrupt, filepath.Base(segs[i].path))
		}
	}
	l.segs = segs
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		l.nextLSN = last.end()
		// Reopen the final segment for appending.
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
	}
	for _, s := range l.segs {
		l.appended += s.bytes
	}
	return l, nil
}

// scanSegment walks one segment file, counting records and validating
// checksums. For the final segment a torn tail is truncated in place;
// anywhere else, damage is a typed refusal.
func (l *Log) scanSegment(s *segInfo, final bool) error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	name := filepath.Base(s.path)
	var hdr [recHeaderBytes]byte
	var payload []byte
	off := int64(0)
	// torn marks damage only a torn write can explain: the broken record
	// runs to end-of-file, nothing readable after it.
	truncateTail := func(reason string) error {
		if !final {
			return fmt.Errorf("%w: %s at %s offset %d in non-final segment", ErrCorrupt, reason, name, off)
		}
		if err := os.Truncate(s.path, off); err != nil {
			return fmt.Errorf("wal: truncating torn tail of %s: %w", name, err)
		}
		if err := syncDir(l.opts.Dir); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		l.truncated += size - off
		size = off
		return nil
	}
	for off < size {
		rem := size - off
		if rem < recHeaderBytes {
			if err := truncateTail("short record header"); err != nil {
				return err
			}
			break
		}
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return fmt.Errorf("wal: reading %s: %w", name, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:4]))
		want := binary.LittleEndian.Uint32(hdr[4:])
		if n == 0 {
			// A zero-length record is never written; its "header" is torn
			// garbage at the tail and corruption anywhere else.
			if err := truncateTail("zero-length record"); err != nil {
				return err
			}
			break
		}
		if recHeaderBytes+n > rem {
			if err := truncateTail("record past end of segment"); err != nil {
				return err
			}
			break
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(f, payload); err != nil {
			return fmt.Errorf("wal: reading %s: %w", name, err)
		}
		if crc32.Checksum(payload, castagnoli) != want {
			if recHeaderBytes+n == rem {
				// The bad record is the last thing in the file: a torn
				// payload write. Anything after it could not have been
				// written by a later append, so damage here is corruption.
				if err := truncateTail("checksum mismatch in final record"); err != nil {
					return err
				}
				break
			}
			return fmt.Errorf("%w: checksum mismatch at %s offset %d (lsn %d), valid data follows",
				ErrCorrupt, name, off, s.base+s.records)
		}
		off += recHeaderBytes + n
		s.records++
	}
	s.bytes = size
	return nil
}

// Append writes one record whose payload is the concatenation of parts,
// fsyncing per the policy, and returns the record's LSN. The multi-part
// form lets a caller prepend a type tag to a borrowed frame buffer
// without copying either. Safe for concurrent use; concurrent appends
// serialize.
func (l *Log) Append(parts ...[]byte) (uint64, error) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total == 0 {
		return 0, errors.New("wal: empty record")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.poisoned(); err != nil {
		return 0, err
	}
	if l.f == nil || l.segs[len(l.segs)-1].bytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	// One buffered write per record: header + parts assembled contiguously
	// so a record hits the kernel in a single syscall (the torn-tail scan
	// depends only on ordering within the file, which O_APPEND gives us).
	if cap(l.buf) < recHeaderBytes+total {
		l.buf = make([]byte, 0, recHeaderBytes+total)
	}
	buf := l.buf[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(total))
	crc := uint32(0)
	for _, p := range parts {
		crc = crc32.Update(crc, castagnoli, p)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc)
	for _, p := range parts {
		buf = append(buf, p...)
	}
	if _, err := l.f.Write(buf); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		return 0, l.failed
	}
	// A oversized record must not pin its buffer in the log forever.
	if cap(buf) <= 1<<20 {
		l.buf = buf
	} else {
		l.buf = nil
	}
	lsn := l.nextLSN
	l.nextLSN++
	seg := &l.segs[len(l.segs)-1]
	seg.records++
	seg.bytes += int64(recHeaderBytes + total)
	l.appended += int64(recHeaderBytes + total)
	if l.unsynced == 0 {
		l.oldestUns = time.Now()
	}
	l.unsynced += int64(recHeaderBytes + total)
	switch l.opts.Policy {
	case FsyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case FsyncInterval:
		if time.Since(l.lastSync) >= l.opts.SyncInterval {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		}
	}
	return lsn, nil
}

// rotateLocked seals the active segment (fsync + close) and starts a new
// one named by the next LSN, fsyncing the directory so the new segment's
// existence survives power loss. A failed seal or directory fsync
// poisons the log: a close can report a lost write-back, and the new
// segment already exists on disk. A failed create writes nothing, so it
// only sets rotateErr and the next Append tries again.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		err := l.f.Close()
		l.f = nil // released even when Close fails
		if err != nil {
			l.failed = fmt.Errorf("wal: sealing segment: %w", err)
			return l.failed
		}
	}
	path := filepath.Join(l.opts.Dir, segName(l.nextLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		l.rotateErr = fmt.Errorf("wal: new segment: %w", err)
		return l.rotateErr
	}
	l.f = f
	l.segs = append(l.segs, segInfo{base: l.nextLSN, path: path})
	if err := syncDir(l.opts.Dir); err != nil {
		l.failed = fmt.Errorf("wal: new segment: %w", err)
		return l.failed
	}
	l.rotateErr = nil
	return nil
}

func (l *Log) syncLocked() error {
	if l.f != nil && l.unsynced > 0 {
		if err := l.f.Sync(); err != nil {
			l.failed = fmt.Errorf("wal: fsync: %w", err)
			return l.failed
		}
	}
	l.unsynced = 0
	l.oldestUns = time.Time{}
	l.lastSync = time.Now()
	return nil
}

// poisoned returns ErrPoisoned wrapping the log's first failed write,
// fsync, seal or directory fsync, or nil while none has failed.
func (l *Log) poisoned() error {
	if l.failed == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrPoisoned, l.failed)
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.poisoned(); err != nil {
		return err
	}
	return l.syncLocked()
}

// NextLSN returns the LSN the next Append will assign — equivalently, the
// number of records ever appended. A checkpoint captures this under its
// barrier: the snapshot then covers exactly the records below it.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Replay streams every record with lsn >= from, in order, to fn. The
// payload slice is reused between calls — fn must not retain it. An fn
// error aborts the replay and is returned verbatim. Replay reads the
// segment files independently of the append handle; it is meant to run
// before serving starts.
func (l *Log) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segInfo(nil), l.segs...)
	l.mu.Unlock()
	var payload []byte
	var hdr [recHeaderBytes]byte
	for _, s := range segs {
		if s.end() <= from {
			continue
		}
		f, err := os.Open(s.path)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		lsn := s.base
		for rec := uint64(0); rec < s.records; rec++ {
			if _, err := io.ReadFull(f, hdr[:]); err != nil {
				f.Close()
				return fmt.Errorf("wal: replay %s: %w", filepath.Base(s.path), err)
			}
			n := int(binary.LittleEndian.Uint32(hdr[:4]))
			if cap(payload) < n {
				payload = make([]byte, n)
			}
			payload = payload[:n]
			if _, err := io.ReadFull(f, payload); err != nil {
				f.Close()
				return fmt.Errorf("wal: replay %s: %w", filepath.Base(s.path), err)
			}
			if lsn >= from {
				// Checksums were verified at Open; a record mutated between
				// Open and Replay would be caught here too, cheaply.
				if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
					f.Close()
					return fmt.Errorf("%w: checksum mismatch at lsn %d during replay", ErrCorrupt, lsn)
				}
				if err := fn(lsn, payload); err != nil {
					f.Close()
					return err
				}
			}
			lsn++
		}
		f.Close()
	}
	return nil
}

// TruncateBefore deletes segments whose every record is below lsn —
// called after a checkpoint covering those records became durable. The
// active segment is never deleted (rotation retires it first). Deletion
// is fsynced into the directory.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	kept := l.segs[:0]
	removed := false
	for i, s := range l.segs {
		if s.end() <= lsn && i < len(l.segs)-1 {
			// A file already gone counts as removed; on any other error
			// the list keeps exactly the segments not yet removed.
			if err := os.Remove(s.path); err != nil && !errors.Is(err, os.ErrNotExist) {
				l.segs = append(kept, l.segs[i:]...)
				return fmt.Errorf("wal: truncate: %w", err)
			}
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	l.segs = kept
	if removed {
		return syncDir(l.opts.Dir)
	}
	return nil
}

// Stats returns a point-in-time observability snapshot.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Segments:           len(l.segs),
		NextLSN:            l.nextLSN,
		AppendedBytes:      l.appended,
		UnsyncedBytes:      l.unsynced,
		TailTruncatedBytes: l.truncated,
		Err:                l.poisoned(),
	}
	if st.Err == nil {
		st.Err = l.rotateErr
	}
	for _, s := range l.segs {
		st.Bytes += s.bytes
	}
	if !l.lastSync.IsZero() {
		st.LastSyncUnixNano = l.lastSync.UnixNano()
	}
	if !l.oldestUns.IsZero() {
		st.OldestUnsyncedUnixNano = l.oldestUns.UnixNano()
	}
	return st
}

// Close fsyncs and closes the active segment; a poisoned log skips the
// fsync, still closes the file, and returns its poison error. The log is
// unusable after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.poisoned()
	if l.f == nil {
		return err
	}
	if err == nil {
		err = l.syncLocked()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
