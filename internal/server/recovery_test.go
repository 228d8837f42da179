package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	sbitmap "repro"
	"repro/internal/wal"
)

// storeImage snapshots every key's marshaled counter state — the
// bit-identity currency of the recovery tests. Comparing images instead
// of whole-store MarshalBinary bytes sidesteps Go's randomized map
// iteration order, which permutes entries without changing state.
func storeImage(t *testing.T, st *sbitmap.Store[string]) map[string]string {
	t.Helper()
	img := make(map[string]string, st.Len())
	st.ForEach(func(key string, c sbitmap.Counter) bool {
		blob, err := sbitmap.Marshal(c)
		if err != nil {
			t.Fatalf("marshal %q: %v", key, err)
		}
		img[key] = string(blob)
		return true
	})
	return img
}

// assertBitIdentical fails unless got holds exactly want's keys with
// byte-for-byte equal counter state.
func assertBitIdentical(t *testing.T, got, want *sbitmap.Store[string]) {
	t.Helper()
	gi, wi := storeImage(t, got), storeImage(t, want)
	if len(gi) != len(wi) {
		t.Fatalf("key counts differ: recovered %d, twin %d", len(gi), len(wi))
	}
	for key, wb := range wi {
		gb, ok := gi[key]
		if !ok {
			t.Fatalf("key %q missing after recovery", key)
		}
		if gb != wb {
			t.Fatalf("key %q: recovered counter state differs from the twin's (%d vs %d bytes)",
				key, len(gb), len(wb))
		}
	}
}

// frameOf encodes one (keys, items) batch as the SBF1 frame both the
// ingest path and the WAL carry.
func frameOf(keys []string, items []uint64) []byte {
	return AppendFrame(nil, &Frame{Keys: keys, Items64: items})
}

// ingestFrames feeds srv (durably, via IngestFrame — the acked path) and
// a twin store the identical frame sequence.
func ingestFrames(t *testing.T, srv *Server, twin *sbitmap.Store[string], frames [][]byte) {
	t.Helper()
	var f Frame
	defer f.Release()
	for _, raw := range frames {
		if err := f.DecodeBorrowed(raw); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.IngestFrame(raw, &f); err != nil {
			t.Fatal(err)
		}
		if err := f.DecodeBorrowed(raw); err != nil {
			t.Fatal(err)
		}
		twin.AddBatch64(f.Keys, f.Items64)
	}
}

// testFrames builds a deterministic frame workload: n frames, a few keys
// each, items spread so different frames touch overlapping counters.
func testFrames(n, seed int) [][]byte {
	frames := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		var keys []string
		var items []uint64
		for j := 0; j < 3; j++ {
			keys = append(keys, fmt.Sprintf("key-%02d", (i*3+j*5+seed)%17))
			items = append(items, uint64(seed)<<32|uint64(i*31+j))
		}
		frames = append(frames, frameOf(keys, items))
	}
	return frames
}

func TestWALReplayWithoutCheckpoint(t *testing.T) {
	// WAL only: every acked frame must come back from a cold start.
	cfg := Config{
		Spec:        sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=3"),
		WALDir:      t.TempDir(),
		FsyncPolicy: wal.FsyncAlways,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := sbitmap.NewStore[string](cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	frames := testFrames(40, 1)
	ingestFrames(t, srv, twin, frames)
	// Crash: abandon srv without Close — the log's file handle simply
	// stops being written, exactly like a killed process.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if srv2.ReplayedRecords() != len(frames) {
		t.Fatalf("replayed %d records, acked %d", srv2.ReplayedRecords(), len(frames))
	}
	assertBitIdentical(t, srv2.Store(), twin)
}

func TestWALCheckpointRecovery(t *testing.T) {
	// The full recovery chain: checkpoint image + WAL tail replay, with
	// the checkpoint truncating the log it supersedes.
	base := t.TempDir()
	cfg := Config{
		Spec:            sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=8"),
		Stripes:         16,
		CheckpointDir:   filepath.Join(base, "ckpt"),
		WALDir:          filepath.Join(base, "wal"),
		FsyncPolicy:     wal.FsyncAlways,
		WALSegmentBytes: 1 << 10, // small segments so truncation is observable
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := sbitmap.NewStore[string](cfg.Spec, sbitmap.WithStripes(16))
	if err != nil {
		t.Fatal(err)
	}

	ingestFrames(t, srv, twin, testFrames(30, 1))
	info, err := srv.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Incremental || info.StripesWritten == 0 {
		t.Fatalf("first checkpoint: %+v", info)
	}
	// The committed checkpoint covers every record so far: nothing is
	// pending replay, and obsolete whole segments are gone.
	if pending := srv.walPending.Load(); pending != 0 {
		t.Fatalf("wal pending %d after covering checkpoint", pending)
	}

	ingestFrames(t, srv, twin, testFrames(25, 2))
	info2, err := srv.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Incremental {
		t.Fatalf("second checkpoint not incremental: %+v", info2)
	}

	// Tail past the newest checkpoint, then crash.
	tail := testFrames(15, 3)
	ingestFrames(t, srv, twin, tail)

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if srv2.RestoredKeys() == 0 {
		t.Fatal("nothing restored from the checkpoint")
	}
	if srv2.ReplayedRecords() != len(tail) {
		t.Fatalf("replayed %d records, want the %d past the checkpoint", srv2.ReplayedRecords(), len(tail))
	}
	assertBitIdentical(t, srv2.Store(), twin)

	// And the recovered server keeps the chain going: another incremental
	// checkpoint, another restart, still identical.
	ingestFrames(t, srv2, twin, testFrames(10, 4))
	if _, err := srv2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv2.Close()
	srv3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv3.Close()
	assertBitIdentical(t, srv3.Store(), twin)
}

// TestIncrementalCheckpointWritesDirtyStripes: after a full checkpoint,
// an incremental one writes only the stripes ingest touched since, so its
// cost tracks the touched keys' stripes, not the key population.
func TestIncrementalCheckpointWritesDirtyStripes(t *testing.T) {
	const stripes, nKeys = 256, 4096
	cfg := Config{
		Spec:          sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=4"),
		Stripes:       stripes,
		CheckpointDir: t.TempDir(),
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := sbitmap.NewStore[string](cfg.Spec, sbitmap.WithStripes(stripes))
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) string { return fmt.Sprintf("user-%06x", i) }
	var frames [][]byte
	for lo := 0; lo < nKeys; lo += 1024 {
		var keys []string
		var items []uint64
		for i := lo; i < lo+1024; i++ {
			for j := 0; j < 4; j++ {
				keys = append(keys, key(i))
				items = append(items, uint64(i)<<8|uint64(j))
			}
		}
		frames = append(frames, frameOf(keys, items))
	}
	ingestFrames(t, srv, twin, frames)
	full, err := srv.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if full.Incremental || full.StripesWritten != stripes {
		t.Fatalf("first checkpoint: %+v, want a full pass over %d stripes", full, stripes)
	}

	ingestFrames(t, srv, twin, [][]byte{frameOf([]string{key(7)}, []uint64{1 << 40})})
	one, err := srv.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !one.Incremental || one.StripesWritten != 1 {
		t.Fatalf("checkpoint after touching one key: %+v, want incremental over 1 stripe", one)
	}
	if one.Bytes*50 >= full.Bytes {
		t.Errorf("one dirty stripe wrote %d B, want under 2%% of the full pass's %d B", one.Bytes, full.Bytes)
	}

	var keys []string
	var items []uint64
	for i := 0; i < 16; i++ {
		keys = append(keys, key(i*nKeys/16))
		items = append(items, 1<<41|uint64(i))
	}
	ingestFrames(t, srv, twin, [][]byte{frameOf(keys, items)})
	sixteen, err := srv.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !sixteen.Incremental || sixteen.StripesWritten < 1 || sixteen.StripesWritten > 16 {
		t.Fatalf("checkpoint after touching 16 keys: %+v, want incremental over 1..16 stripes", sixteen)
	}
	t.Logf("full %d stripes %d B; one key %d stripe %d B; 16 keys %d stripes %d B",
		full.StripesWritten, full.Bytes, one.StripesWritten, one.Bytes, sixteen.StripesWritten, sixteen.Bytes)

	srv.Close()
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	assertBitIdentical(t, srv2.Store(), twin)
}

func TestMergeRecordReplay(t *testing.T) {
	// /v1/merge mutations are logged too: a merged peer snapshot must
	// survive a crash just like acked frames.
	spec := sbitmap.MustSpec("hll:mbits=1024,seed=5")
	cfg := Config{Spec: spec, WALDir: t.TempDir(), FsyncPolicy: wal.FsyncAlways}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	twin, err := sbitmap.NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.AddNDJSON(ctx, []string{"mine"}, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	twin.AddString("mine", "a")

	peer, err := sbitmap.NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	peer.AddString("theirs", "b")
	peer.AddString("mine", "c")
	blob, err := peer.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Merge(ctx, blob); err != nil {
		t.Fatal(err)
	}
	if err := twin.Merge(peer); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if srv2.ReplayedRecords() != 2 {
		t.Fatalf("replayed %d records, want 2 (one frame, one merge)", srv2.ReplayedRecords())
	}
	assertBitIdentical(t, srv2.Store(), twin)
}

// TestRecoveryRefusals is the corrupt-input table: every damaged durable
// state that a crash cannot explain must refuse to start with a typed
// error and a message that says so — never silently count from scratch.
func TestRecoveryRefusals(t *testing.T) {
	spec := sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=2")
	for _, tc := range []struct {
		name     string
		corrupt  func(t *testing.T, ckDir, walDir string, cfg *Config)
		wantErr  error
		wantText string
	}{
		{
			name: "crc-damaged wal record",
			corrupt: func(t *testing.T, ckDir, walDir string, cfg *Config) {
				// Flip a payload byte of the FIRST record: the damage is not
				// a torn tail (valid records follow), so healing would drop
				// acked data — the only safe answer is refusal.
				seg := firstSegment(t, walDir)
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				data[wal.RecordOverhead+2] ^= 0xff
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr:  wal.ErrCorrupt,
			wantText: "refusing to start",
		},
		{
			name: "zero-length interior segment",
			corrupt: func(t *testing.T, ckDir, walDir string, cfg *Config) {
				if err := os.Truncate(firstSegment(t, walDir), 0); err != nil {
					t.Fatal(err)
				}
			},
			wantErr:  wal.ErrCorrupt,
			wantText: "refusing to start",
		},
		{
			name: "missing stripe file",
			corrupt: func(t *testing.T, ckDir, walDir string, cfg *Config) {
				if err := os.Remove(firstStripeFile(t, ckDir)); err != nil {
					t.Fatal(err)
				}
			},
			wantErr:  ErrCorruptCheckpoint,
			wantText: "refusing to start",
		},
		{
			name: "damaged stripe file",
			corrupt: func(t *testing.T, ckDir, walDir string, cfg *Config) {
				path := firstStripeFile(t, ckDir)
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0xff
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr:  ErrCorruptCheckpoint,
			wantText: "refusing to start",
		},
		{
			name: "garbage manifest",
			corrupt: func(t *testing.T, ckDir, walDir string, cfg *Config) {
				if err := os.WriteFile(filepath.Join(ckDir, manifestName), []byte("{not json"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr:  ErrCorruptCheckpoint,
			wantText: "refusing to start",
		},
		{
			name: "manifest from a different spec",
			corrupt: func(t *testing.T, ckDir, walDir string, cfg *Config) {
				cfg.Spec = sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=99")
			},
			wantErr:  ErrCheckpointSpecMismatch,
			wantText: "refusing to start",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := t.TempDir()
			cfg := Config{
				Spec:          spec,
				CheckpointDir: filepath.Join(base, "ckpt"),
				WALDir:        filepath.Join(base, "wal"),
				FsyncPolicy:   wal.FsyncAlways,
				// Small segments so the log rotates: the zero-length and
				// CRC cases need an INTERIOR segment — damage in the final
				// one that runs to EOF is a healable torn tail, not
				// corruption.
				WALSegmentBytes: 256,
			}
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := sbitmap.NewStore[string](spec)
			if err != nil {
				t.Fatal(err)
			}
			ingestFrames(t, srv, twin, testFrames(10, 1))
			if _, err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Records past the checkpoint keep the WAL tail non-empty, so
			// WAL-side corruption has something to bite.
			ingestFrames(t, srv, twin, testFrames(10, 2))
			srv.Close()

			tc.corrupt(t, cfg.CheckpointDir, cfg.WALDir, &cfg)
			_, err = New(cfg)
			if err == nil {
				t.Fatal("damaged durable state accepted")
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("error %v is not errors.Is(%v)", err, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantText) {
				t.Fatalf("error %q does not say %q", err, tc.wantText)
			}
		})
	}
}

func firstSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s (%v)", dir, err)
	}
	return segs[0]
}

func firstStripeFile(t *testing.T, dir string) string {
	t.Helper()
	snaps, err := filepath.Glob(filepath.Join(dir, "stripe-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no stripe snapshots in %s (%v)", dir, err)
	}
	return snaps[0]
}

// TestCrashTortureSimulated is the in-process half of the crash-torture
// invariant (cmd/sketchd's TestE2ECrashTorture is the kill -9 half):
// cycles of ingest at interleaved checkpoints, each ended by an
// un-Closed abandonment of the server — the process-internal equivalent
// of a crash, since nothing is flushed on the way out — followed by
// recovery that must be bit-identical to a twin fed exactly the acked
// frames. Runs under -race in CI.
func TestCrashTortureSimulated(t *testing.T) {
	base := t.TempDir()
	cfg := Config{
		Spec:            sbitmap.MustSpec("sbitmap:n=1e4,eps=0.1,seed=13"),
		Stripes:         32,
		CheckpointDir:   filepath.Join(base, "ckpt"),
		WALDir:          filepath.Join(base, "wal"),
		FsyncPolicy:     wal.FsyncAlways,
		WALSegmentBytes: 2 << 10,
	}
	twin, err := sbitmap.NewStore[string](cfg.Spec, sbitmap.WithStripes(32))
	if err != nil {
		t.Fatal(err)
	}
	iters := 8
	if testing.Short() {
		iters = 3
	}
	for i := 0; i < iters; i++ {
		srv, err := New(cfg)
		if err != nil {
			t.Fatalf("iteration %d: recovery failed: %v", i, err)
		}
		assertBitIdentical(t, srv.Store(), twin)
		ingestFrames(t, srv, twin, testFrames(10+i*3, i))
		switch i % 3 {
		case 0:
			// Crash with the whole cycle in the WAL tail.
		case 1:
			// Checkpoint mid-cycle, then more acked frames on top.
			if _, err := srv.Checkpoint(); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			ingestFrames(t, srv, twin, testFrames(7, 100+i))
		case 2:
			// Crash immediately after the checkpoint (empty tail).
			if _, err := srv.Checkpoint(); err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
		// Abandon srv: no Close, no flush — the crash.
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	assertBitIdentical(t, srv.Store(), twin)
}

func TestHealthzDegradesOnDurabilityLag(t *testing.T) {
	// fsync never + a 1ns ceiling: the first acked frame pushes the lag
	// over the limit, /v1/healthz must flip to a typed 503; a checkpoint
	// (which syncs the log) heals it.
	base := t.TempDir()
	cfg := Config{
		Spec:             sbitmap.MustSpec("hll:mbits=512"),
		CheckpointDir:    filepath.Join(base, "ckpt"),
		WALDir:           filepath.Join(base, "wal"),
		FsyncPolicy:      wal.FsyncNever,
		MaxDurabilityLag: time.Nanosecond,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	if h := srv.Health(); h.Status != "ok" || h.Error != nil {
		t.Fatalf("fresh server unhealthy: %+v", h)
	}
	if err := client.Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := client.AddNDJSON(ctx, []string{"k"}, []string{"v"}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // let the 1ns ceiling be exceeded measurably
	h := srv.Health()
	if h.Status != "degraded" || h.Error == nil || h.Error.Code != CodeDurabilityLag {
		t.Fatalf("health after unsynced ingest: %+v", h)
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body HealthResult
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable ||
		body.Error == nil || body.Error.Code != CodeDurabilityLag {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, body)
	}

	// Checkpoint syncs the WAL: everything acked is durable again.
	if _, err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if h := srv.Health(); h.Status != "ok" || h.DurabilityLagSeconds != 0 {
		t.Fatalf("health after checkpoint: %+v", h)
	}
}

// TestHealthzDegradesOnWALWriteFailure: while every WAL append fails,
// /v1/healthz answers a typed 503 (wal_write) so a load balancer stops
// routing ingest to the node, the plain /healthz liveness probe stays
// 200, and health is ok again once an append succeeds. One-byte segments
// make every append rotate, so removing the WAL directory makes the next
// segment's create fail until the directory is back.
func TestHealthzDegradesOnWALWriteFailure(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	srv, ts, client := newTestServer(t, Config{
		Spec:            sbitmap.MustSpec("hll:mbits=512"),
		WALDir:          walDir,
		WALSegmentBytes: 1,
	})
	defer srv.Close()
	ctx := context.Background()
	health := func() (int, HealthResult) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body HealthResult
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	add := func() error {
		_, err := client.AddFrame(ctx, &Frame{Keys: []string{"k"}, ItemsString: []string{"v"}})
		return err
	}

	if err := add(); err != nil {
		t.Fatal(err)
	}
	if code, h := health(); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy node: %d %+v", code, h)
	}

	if err := os.RemoveAll(walDir); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := add(); !isAPICode(err, CodeWALWrite) {
			t.Fatalf("ingest without a WAL directory: %v, want %s", err, CodeWALWrite)
		}
	}
	code, h := health()
	if code != http.StatusServiceUnavailable || h.Status != "degraded" ||
		h.Error == nil || h.Error.Code != CodeWALWrite {
		t.Fatalf("healthz while appends fail: %d %+v", code, h)
	}
	if err := client.Healthz(ctx); err != nil {
		t.Fatalf("liveness probe while appends fail: %v", err)
	}

	if err := os.Mkdir(walDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := add(); err != nil {
		t.Fatalf("ingest after the directory is back: %v", err)
	}
	if code, h := health(); code != http.StatusOK || h.Status != "ok" || h.Error != nil {
		t.Fatalf("healthz after a successful append: %d %+v", code, h)
	}
}

func TestStatsReportDurability(t *testing.T) {
	base := t.TempDir()
	cfg := Config{
		Spec:          sbitmap.MustSpec("hll:mbits=512"),
		CheckpointDir: filepath.Join(base, "ckpt"),
		WALDir:        filepath.Join(base, "wal"),
		FsyncPolicy:   wal.FsyncAlways,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	client := NewClient(ts.URL)
	ctx := context.Background()

	if _, err := client.AddNDJSON(ctx, []string{"a", "b"}, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALPendingReplayBytes <= 0 || stats.WALSegments == 0 {
		t.Fatalf("stats before checkpoint: %+v", stats)
	}
	if _, err := client.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err = client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALPendingReplayBytes != 0 || stats.LastCkStripes == 0 {
		t.Fatalf("stats after checkpoint: %+v", stats)
	}
	ts.Close()

	// Restart without the final close: the tail is empty (checkpoint
	// covered it), but more acked records then appear in the stats.
	if _, err := client.AddNDJSON(ctx, []string{"c"}, []string{"z"}); err == nil {
		t.Fatal("client outlived its server") // ts closed; guard against accidents
	}
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	client2 := NewClient(ts2.URL)
	stats, err = client2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RestoredKeys != 2 || stats.ReplayedRecords != 0 {
		t.Fatalf("stats after restart: %+v", stats)
	}
}
