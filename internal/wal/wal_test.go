package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/fsx"
)

// collect replays the whole log (from `from`) into copied payloads.
func collect(t *testing.T, l *Log, from uint64) [][]byte {
	t.Helper()
	var out [][]byte
	err := l.Replay(from, func(lsn uint64, p []byte) error {
		if lsn != from+uint64(len(out)) {
			return fmt.Errorf("lsn %d out of order (want %d)", lsn, from+uint64(len(out)))
		}
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func record(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-%s", i, string(bytes.Repeat([]byte{byte(i)}, i%37))))
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		lsn, err := l.Append(record(i))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i) {
			t.Fatalf("append %d got lsn %d", i, lsn)
		}
	}
	got := collect(t, l, 0)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, p := range got {
		if !bytes.Equal(p, record(i)) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	// Partial replay starts exactly at `from`.
	tail := collect(t, l, 42)
	if len(tail) != n-42 || !bytes.Equal(tail[0], record(42)) {
		t.Fatalf("tail replay: %d records, first %q", len(tail), tail[0])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same contents, next LSN continues.
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextLSN() != n {
		t.Fatalf("reopened NextLSN %d, want %d", l2.NextLSN(), n)
	}
	if got := collect(t, l2, 0); len(got) != n {
		t.Fatalf("reopened replay %d records", len(got))
	}
	if lsn, err := l2.Append([]byte("after-reopen")); err != nil || lsn != n {
		t.Fatalf("append after reopen: lsn %d err %v", lsn, err)
	}
}

func TestMultiPartAppend(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte{7}, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	if len(got) != 1 || !bytes.Equal(got[0], append([]byte{7}, "payload"...)) {
		t.Fatalf("multi-part record came back %q", got[0])
	}
	if _, err := l.Append(); err == nil {
		t.Fatal("empty record accepted")
	}
}

func TestRotationAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates.
	l, err := Open(Options{Dir: dir, SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation, have %d segments", st.Segments)
	}
	if got := collect(t, l, 0); len(got) != n {
		t.Fatalf("replay %d records across segments", len(got))
	}

	// Truncate below 10: only records >= 10 remain replayable; replay
	// from 10 is unaffected.
	if err := l.TruncateBefore(10); err != nil {
		t.Fatal(err)
	}
	tail := collect(t, l, 10)
	if len(tail) != n-10 || !bytes.Equal(tail[0], record(10)) {
		t.Fatalf("post-truncate replay: %d records", len(tail))
	}
	if l.Stats().Segments >= st.Segments {
		t.Fatalf("truncate removed nothing (%d -> %d segments)", st.Segments, l.Stats().Segments)
	}
	l.Close()

	// Reopen after truncation: base LSN is no longer 0; appends continue.
	l2, err := Open(Options{Dir: dir, SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.NextLSN() != n {
		t.Fatalf("NextLSN %d after truncated reopen, want %d", l2.NextLSN(), n)
	}
}

// TestTruncateBeforeMissingSegment: a segment file removed behind the
// log's back counts as truncated, so it neither fails this truncation
// nor wedges every later one.
func TestTruncateBeforeMissingSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 1}) // every record rotates
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := l.Append(record(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendN(10)
	if err := os.Remove(l.segs[0].path); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(l.NextLSN()); err != nil {
		t.Fatalf("truncate with the first segment file gone: %v", err)
	}
	appendN(10)
	if err := l.TruncateBefore(l.NextLSN()); err != nil {
		t.Fatalf("second truncate: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if segs := l.Stats().Segments; segs != 1 || len(files) != 1 {
		t.Fatalf("%d segments listed and %d files on disk after truncating everything, want 1 and 1", segs, len(files))
	}
}

// lastSegment returns the path of the highest-base segment in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestBase uint64
	for _, e := range entries {
		if base, ok := parseSegName(e.Name()); ok && (best == "" || base > bestBase) {
			best, bestBase = filepath.Join(dir, e.Name()), base
		}
	}
	if best == "" {
		t.Fatal("no segments found")
	}
	return best
}

// TestTornTailEveryOffset is the core crash-semantics test: a log of
// complete records plus a final record truncated at EVERY possible byte
// boundary must reopen with exactly the complete records — the torn
// record dropped, never anything before it.
func TestTornTailEveryOffset(t *testing.T) {
	const whole = 5
	build := func(t *testing.T) (string, int64) {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < whole; i++ {
			if _, err := l.Append(record(i)); err != nil {
				t.Fatal(err)
			}
		}
		info, err := os.Stat(lastSegment(t, dir))
		if err != nil {
			t.Fatal(err)
		}
		intact := info.Size()
		if _, err := l.Append([]byte("the-final-record-that-will-be-torn")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		return dir, intact
	}
	dir0, intact := build(t)
	full, err := os.Stat(lastSegment(t, dir0))
	if err != nil {
		t.Fatal(err)
	}
	for cut := intact; cut < full.Size(); cut++ {
		dir, _ := build(t)
		seg := lastSegment(t, dir)
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		got := collect(t, l, 0)
		if len(got) != whole {
			t.Fatalf("cut at %d: recovered %d records, want %d", cut, len(got), whole)
		}
		if l.NextLSN() != whole {
			t.Fatalf("cut at %d: NextLSN %d", cut, l.NextLSN())
		}
		if tb := l.Stats().TailTruncatedBytes; cut > intact && tb != cut-intact {
			t.Fatalf("cut at %d: truncated %d bytes, want %d", cut, tb, cut-intact)
		}
		// The log must append cleanly after healing the tail.
		if lsn, err := l.Append([]byte("after-heal")); err != nil || lsn != whole {
			t.Fatalf("cut at %d: append after heal lsn %d err %v", cut, lsn, err)
		}
		l.Close()
	}
}

// TestCorruptMidSegmentRefuses: a checksum flip with valid records after
// it is not a torn write — the log must refuse with ErrCorrupt, not
// silently drop acked records.
func TestCorruptMidSegmentRefuses(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(record(i + 10)); err != nil { // i+10: records long enough to flip mid-payload
			t.Fatal(err)
		}
	}
	l.Close()
	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload.
	n0 := int64(binary.LittleEndian.Uint32(data[:4]))
	off := recHeaderBytes + n0 + recHeaderBytes + 2
	data[off] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-segment corruption opened with err = %v, want ErrCorrupt", err)
	}
}

// TestCorruptNonFinalSegmentRefuses: even tail-shaped damage is a refusal
// when it is not in the final segment.
func TestCorruptNonFinalSegmentRefuses(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(record(i + 10)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	entries, _ := os.ReadDir(dir)
	first := filepath.Join(dir, entries[0].Name())
	info, _ := os.Stat(first)
	if err := os.Truncate(first, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 32}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short non-final segment opened with err = %v, want ErrCorrupt", err)
	}
}

func TestZeroLengthInteriorSegmentRefuses(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	entries, _ := os.ReadDir(dir)
	if err := os.Truncate(filepath.Join(dir, entries[0].Name()), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 32}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero-length interior segment: err = %v, want ErrCorrupt", err)
	}
}

func TestEmptyFinalSegmentTolerated(t *testing.T) {
	// Crash between segment creation and first append: benign.
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(record(1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("empty final segment refused: %v", err)
	}
	defer l2.Close()
	if l2.NextLSN() != 1 {
		t.Fatalf("NextLSN %d, want 1", l2.NextLSN())
	}
	if lsn, err := l2.Append(record(2)); err != nil || lsn != 1 {
		t.Fatalf("append into healed log: lsn %d err %v", lsn, err)
	}
}

func TestSegmentGapRefuses(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	entries, _ := os.ReadDir(dir)
	if len(entries) < 3 {
		t.Skipf("need >=3 segments, have %d", len(entries))
	}
	if err := os.Remove(filepath.Join(dir, entries[1].Name())); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 32}); !errors.Is(err, ErrGap) {
		t.Fatalf("segment gap opened with err = %v, want ErrGap", err)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
		ok   bool
	}{
		{"always", FsyncAlways, true},
		{"interval", FsyncInterval, true},
		{"never", FsyncNever, true},
		{"sometimes", 0, false},
		{"", 0, false},
	} {
		got, err := ParsePolicy(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("String() roundtrip: %q -> %q", tc.in, got.String())
		}
	}

	// Always: nothing unsynced after an append. Never: bytes accumulate.
	la, err := Open(Options{Dir: t.TempDir(), Policy: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer la.Close()
	la.Append(record(1))
	if st := la.Stats(); st.UnsyncedBytes != 0 || st.OldestUnsyncedUnixNano != 0 {
		t.Errorf("FsyncAlways left %d bytes unsynced", st.UnsyncedBytes)
	}
	ln, err := Open(Options{Dir: t.TempDir(), Policy: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ln.Append(record(1))
	if st := ln.Stats(); st.UnsyncedBytes == 0 || st.OldestUnsyncedUnixNano == 0 {
		t.Error("FsyncNever reported no unsynced bytes after an append")
	}
	if err := ln.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := ln.Stats(); st.UnsyncedBytes != 0 {
		t.Error("explicit Sync left unsynced bytes")
	}

	li, err := Open(Options{Dir: t.TempDir(), Policy: FsyncInterval, SyncInterval: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	time.Sleep(time.Microsecond)
	li.Append(record(1))
	if st := li.Stats(); st.UnsyncedBytes != 0 {
		t.Error("elapsed FsyncInterval did not sync on append")
	}
}

func TestConcurrentAppends(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append(record(g*each + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := l.NextLSN(); n != goroutines*each {
		t.Fatalf("NextLSN %d, want %d", n, goroutines*each)
	}
	if got := collect(t, l, 0); len(got) != goroutines*each {
		t.Fatalf("replayed %d records", len(got))
	}
}

func TestClosedLog(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(record(1))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append(record(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
}

// TestPoisonedAfterFailedWriteOrFsync: the first failed write, fsync,
// seal close or directory fsync poisons the log. Every later Append and
// Sync returns ErrPoisoned wrapping that failure, even once the file
// handle works again; Close still releases the file, and a reopen
// replays exactly the records acked before the failure.
func TestPoisonedAfterFailedWriteOrFsync(t *testing.T) {
	for _, fault := range []string{"write", "fsync", "seal-close", "dir-fsync"} {
		t.Run(fault, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Dir: dir, Policy: FsyncNever}
			if fault == "seal-close" || fault == "dir-fsync" {
				opts.SegmentBytes = 1 // the next Append rotates
			}
			l, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append(record(0)); err != nil {
				t.Fatal(err)
			}
			good := l.f
			var first error
			switch fault {
			case "write", "fsync":
				bad, err := os.Open(good.Name())
				if err != nil {
					t.Fatal(err)
				}
				if fault == "write" {
					// A read-only handle: Write fails with EBADF.
					l.f = bad
					_, first = l.Append(record(1))
					bad.Close()
				} else {
					// A closed handle: Sync fails.
					bad.Close()
					l.f = bad
					first = l.Sync()
				}
				l.f = good
			case "seal-close":
				// Synced, so the rotation's seal is a bare close, and it
				// fails on a handle closed out from under the log.
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
				good.Close()
				_, first = l.Append(record(1))
			case "dir-fsync":
				// The rotation creates the next segment, then its
				// directory fsync fails.
				syncDir = func(string) error { return errors.New("injected directory fsync failure") }
				_, first = l.Append(record(1))
				syncDir = fsx.SyncDir
			}
			if first == nil || errors.Is(first, ErrPoisoned) {
				t.Fatalf("failed %s returned %v, want the failure itself", fault, first)
			}
			if _, err := l.Append(record(2)); !errors.Is(err, ErrPoisoned) || !errors.Is(err, first) {
				t.Errorf("append after failed %s: %v, want ErrPoisoned wrapping %v", fault, err, first)
			}
			if err := l.Sync(); !errors.Is(err, ErrPoisoned) || !errors.Is(err, first) {
				t.Errorf("sync after failed %s: %v, want ErrPoisoned wrapping %v", fault, err, first)
			}
			if err := l.Stats().Err; !errors.Is(err, ErrPoisoned) {
				t.Errorf("Stats().Err after failed %s: %v, want ErrPoisoned", fault, err)
			}
			if n := l.NextLSN(); n != 1 {
				t.Errorf("NextLSN %d after failed %s, want 1", n, fault)
			}
			if err := l.Close(); !errors.Is(err, ErrPoisoned) {
				t.Errorf("close of a poisoned log: %v, want ErrPoisoned", err)
			}
			if _, err := good.Write([]byte{0}); !errors.Is(err, os.ErrClosed) {
				t.Errorf("segment still open after Close: write returned %v", err)
			}
			l2, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if got := collect(t, l2, 0); len(got) != 1 || !bytes.Equal(got[0], record(0)) {
				t.Errorf("reopened log replays %d records, want only the one acked", len(got))
			}
		})
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("empty Dir accepted")
	}
	if _, err := Open(Options{Dir: t.TempDir(), SegmentBytes: -1}); err == nil {
		t.Error("negative segment size accepted")
	}
	if _, err := Open(Options{Dir: t.TempDir(), SyncInterval: -time.Second}); err == nil {
		t.Error("negative sync interval accepted")
	}
}
