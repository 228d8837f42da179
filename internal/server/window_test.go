package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	sbitmap "repro"
)

// wat builds the timestamp landing in sub-window widx of the given
// width (its midpoint).
func wat(widx int64, width time.Duration) time.Time {
	return time.Unix(0, widx*int64(width)+int64(width)/2)
}

func TestWindowErrorTable(t *testing.T) {
	// A windowed server (1m sub-windows, 5 retained → 5m retention) and a
	// plain one, probed with the same table style as TestHandlerErrorTable.
	_, wts, wclient := newTestServer(t, Config{
		Spec: sbitmap.MustSpec("hll:mbits=512/windowed(width=1m,ring=5)"),
	})
	_, fts, fclient := newTestServer(t, Config{
		Spec: sbitmap.MustSpec("hll:mbits=512"),
	})
	ctx := context.Background()
	if _, err := wclient.AddFrame(ctx, &Frame{Keys: []string{"known"}, ItemsString: []string{"x"}, TSNanos: wat(9, time.Minute).UnixNano(), HasTS: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := fclient.AddNDJSON(ctx, []string{"known"}, []string{"x"}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name       string
		ts         *httptest.Server
		path       string
		wantStatus int
		wantCode   string
	}{
		{"window on unwindowed store", fts, "/v1/estimate?key=known&window=5m", 400, CodeWindowNotConf},
		{"window not a duration", wts, "/v1/estimate?key=known&window=soon", 400, CodeBadWindow},
		{"window bare number", wts, "/v1/estimate?key=known&window=5", 400, CodeBadWindow},
		{"window zero", wts, "/v1/estimate?key=known&window=0s", 400, CodeBadWindow},
		{"window negative", wts, "/v1/estimate?key=known&window=-5m", 400, CodeBadWindow},
		{"window beyond retention", wts, "/v1/estimate?key=known&window=5m1s", 400, CodeBadWindow},
		{"window near the largest duration", wts, "/v1/estimate?key=known&window=2562047h47m16s", 400, CodeBadWindow},
		{"window unknown key", wts, "/v1/estimate?key=never-seen&window=5m", 404, CodeUnknownKey},
		{"window missing key", wts, "/v1/estimate?window=5m", 400, CodeMissingKey},
		{"window at retention ok", wts, "/v1/estimate?key=known&window=5m", 200, ""},
	} {
		status, code := apiErrorOf(t, tc.ts, "GET", tc.path, "", nil)
		if status != tc.wantStatus || code != tc.wantCode {
			t.Errorf("%s: got %d %q, want %d %q", tc.name, status, code, tc.wantStatus, tc.wantCode)
		}
	}
}

func TestWindowNDJSONTimestampsAndStats(t *testing.T) {
	// NDJSON records may carry "ts" (unix nanos). The server splits a
	// batch into same-ts runs; the result must match per-record
	// timestamped ingest into a twin store, and /v1/stats must expose the
	// window block.
	const width = time.Second
	spec := sbitmap.MustSpec("hll:mbits=1024,seed=13/windowed(width=1s,ring=3)")
	_, ts, client := newTestServer(t, Config{Spec: spec})
	ctx := context.Background()

	twin, err := sbitmap.NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}

	type rec struct {
		key, item string
		ts        int64
	}
	recs := []rec{
		{"a", "i1", wat(5, width).UnixNano()},
		{"a", "i2", wat(5, width).UnixNano()}, // same-ts run continues
		{"b", "i3", wat(5, width).UnixNano()},
		{"a", "i4", wat(6, width).UnixNano()}, // run break: next sub-window
		{"b", "i5", 0},                        // unstamped: watermark sub-window (6)
		{"a", "i6", wat(1, width).UnixNano()}, // ≤ wm-ring: late, folds into 6
	}
	var body []byte
	for _, r := range recs {
		if r.ts != 0 {
			body = append(body, fmt.Sprintf("{\"key\":%q,\"item\":%q,\"ts\":%d}\n", r.key, r.item, r.ts)...)
		} else {
			body = append(body, fmt.Sprintf("{\"key\":%q,\"item\":%q}\n", r.key, r.item)...)
		}
		if r.ts != 0 {
			twin.AddStringAt(time.Unix(0, r.ts), r.key, r.item)
		} else {
			twin.AddString(r.key, r.item)
		}
	}
	status, code := apiErrorOf(t, ts, "POST", "/v1/add", "application/x-ndjson", body)
	if status != 200 {
		t.Fatalf("timestamped NDJSON ingest: %d %q", status, code)
	}

	for _, key := range []string{"a", "b"} {
		for _, span := range []time.Duration{time.Second, 3 * time.Second} {
			got, ok, err := client.EstimateWindow(ctx, key, span)
			if err != nil || !ok {
				t.Fatalf("%s window %v: ok=%v err=%v", key, span, ok, err)
			}
			want, _, err := twin.EstimateWindow(key, span)
			if err != nil {
				t.Fatal(err)
			}
			if got.Estimate != want.Estimate || got.Windows != want.Windows ||
				got.WindowStartUnixNano != want.Start.UnixNano() ||
				got.WindowEndUnixNano != want.End.UnixNano() ||
				got.Tumbling != want.Tumbling || got.Window != span.String() {
				t.Errorf("%s window %v: service %+v, twin %+v", key, span, got, want)
			}
		}
		// The bare estimate answers over the full retention, like the twin.
		got, ok, err := client.Estimate(ctx, key)
		if err != nil || !ok {
			t.Fatalf("%s: %v", key, err)
		}
		if want, _ := twin.Estimate(key); got != want {
			t.Errorf("%s all-time: service %v, twin %v", key, got, want)
		}
	}

	stats, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Window == nil {
		t.Fatal("windowed server reports no window block in stats")
	}
	if stats.Window.Width != "1s" || stats.Window.Ring != 3 || stats.Window.RetentionSeconds != 3 {
		t.Errorf("window block = %+v", stats.Window)
	}
	if stats.Window.Watermark == nil || *stats.Window.Watermark != 6 {
		t.Errorf("watermark = %v, want 6", stats.Window.Watermark)
	}
	if stats.Window.LateRecords != 1 {
		t.Errorf("late_records = %d, want 1", stats.Window.LateRecords)
	}

	// An unwindowed server reports no window block.
	_, _, fclient := newTestServer(t, Config{Spec: sbitmap.MustSpec("hll:mbits=512")})
	fstats, err := fclient.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fstats.Window != nil {
		t.Errorf("unwindowed server reports window block %+v", fstats.Window)
	}
}

func TestWindowTwinEquivalenceAndRestart(t *testing.T) {
	// The acceptance invariant: a loopback server ingesting a timestamped
	// trace over ≥ 2^16 keys answers every /v1/estimate?window=5m
	// bit-identically to a single-process twin, and a checkpoint + WAL
	// tail + restart reproduces all of them.
	const (
		nKeys = 1 << 16
		chunk = 1 << 13
		width = time.Minute
	)
	dir := t.TempDir()
	cfg := Config{
		Spec:          sbitmap.MustSpec("hll:mbits=512,seed=21/windowed(width=1m,ring=5)"),
		CheckpointDir: filepath.Join(dir, "ckpt"),
		WALDir:        filepath.Join(dir, "wal"),
	}
	_, ts, client := newTestServer(t, cfg)
	ctx := context.Background()

	twin, err := sbitmap.NewStore[string](cfg.Spec)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05x", i)
	}
	items := make([]uint64, chunk)
	// Sub-windows 100..105: 101 rotates 100 out of the 5-deep ring, so
	// expiry is part of the trace, and every key lands in three of them.
	for _, widx := range []int64{100, 101, 103, 105} {
		for off := 0; off < nKeys; off += chunk {
			ck := keys[off : off+chunk]
			for i := range items {
				items[i] = uint64(widx)<<32 | uint64(off+i)%977
			}
			if _, err := client.AddFrame(ctx, &Frame{Keys: ck, Items64: items, TSNanos: wat(widx, width).UnixNano(), HasTS: true}); err != nil {
				t.Fatal(err)
			}
			twin.AddBatch64At(wat(widx, width), ck, items)
		}
	}

	queryAll := func(c *Client, when string) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < nKeys; i += 16 {
					got, ok, err := c.EstimateWindow(ctx, keys[i], 5*time.Minute)
					if err != nil || !ok {
						errs <- fmt.Errorf("%s: %s: ok=%v err=%v", when, keys[i], ok, err)
						return
					}
					want, _, err := twin.EstimateWindow(keys[i], 5*time.Minute)
					if err != nil {
						errs <- err
						return
					}
					if got.Estimate != want.Estimate || got.Windows != want.Windows ||
						got.WindowStartUnixNano != want.Start.UnixNano() ||
						got.WindowEndUnixNano != want.End.UnixNano() || got.Tumbling {
						errs <- fmt.Errorf("%s: %s: service %+v, twin %+v", when, keys[i], got, want)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	queryAll(client, "live")

	// Checkpoint, then more timestamped ingest that only the WAL holds.
	if _, err := client.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	tail := keys[:chunk]
	tailItems := make([]uint64, chunk)
	for i := range tailItems {
		tailItems[i] = uint64(i) | 1<<48
	}
	if _, err := client.AddFrame(ctx, &Frame{Keys: tail, Items64: tailItems, TSNanos: wat(106, width).UnixNano(), HasTS: true}); err != nil {
		t.Fatal(err)
	}
	twin.AddBatch64At(wat(106, width), tail, tailItems)
	ts.Close()

	// "Crash" recovery: checkpoint + WAL tail replay must reproduce every
	// windowed estimate, including the post-checkpoint sub-window 106.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	client2 := NewClient(ts2.URL)
	queryAll(client2, "restarted")
	stats, err := client2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Window == nil || stats.Window.Watermark == nil || *stats.Window.Watermark != 106 {
		t.Fatalf("restarted window stats = %+v", stats.Window)
	}
}

func TestWindowPreWindowCheckpointRestore(t *testing.T) {
	// A checkpoint written by an unwindowed server (the pre-window format:
	// no watermark in the manifest, no rings in the stripes) must still
	// restore into an unwindowed server.
	dir := t.TempDir()
	cfg := Config{
		Spec:          sbitmap.MustSpec("hll:mbits=512,seed=2"),
		CheckpointDir: filepath.Join(dir, "ckpt"),
	}
	srv, _, client := newTestServer(t, cfg)
	ctx := context.Background()
	if _, err := client.AddNDJSON(ctx, []string{"a", "b"}, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	want, _ := srv.Store().Estimate("a")

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv2.RestoredKeys() != 2 {
		t.Fatalf("restored %d keys, want 2", srv2.RestoredKeys())
	}
	if got, _ := srv2.Store().Estimate("a"); got != want {
		t.Errorf("restored estimate %v, want %v", got, want)
	}
	if _, _, ok := srv2.Store().WindowState(); ok {
		t.Error("unwindowed restore came back windowed")
	}
}
