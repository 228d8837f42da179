package main

// The window pseudo-experiment measures the sliding-window subsystem:
// per-key sub-window rings (windowed(width=1m,ring=5)) under timestamped
// keyed ingest. It reports steady-state in-window ingest vs the
// watermark-advancing passes that rotate every key's ring (reusing the
// expired slot's counter), merge-on-query latency for /v1/estimate?window=
// spans against a plain unwindowed store's estimate, the per-key
// resident footprint at ring=5, and an end-to-end loopback check: a real
// HTTP server fed version-2 (timestamped) frames across 2^16 keys must
// answer every ?window=5m query bit-identically to a single-process twin
// ring, before and after a checkpoint + WAL-tail restart. `sbench -run
// window -json BENCH_window.json` regenerates the repo's tracked
// BENCH_window.json (absolute rates are machine-dependent; the
// rotation/in-window ratio, query-latency ratio, bytes/key, and the two
// bit-identical booleans are the stable signal).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	sbitmap "repro"
	"repro/internal/server"
	"repro/internal/xrand"
)

const (
	windowKeys      = 1 << 16 // the acceptance scale: 65536 keys
	windowBatch     = 4096
	windowSpecStr   = "hll:mbits=512/windowed(width=1m,ring=5)"
	windowWidth     = time.Minute
	windowSample    = 4096 // keys timed per query-latency cell
	windowQuerySpan = 5 * time.Minute
)

type windowReport struct {
	Schema string `json:"schema"`
	Config struct {
		Keys     int    `json:"keys"`
		BatchLen int    `json:"batch_len"`
		Spec     string `json:"spec"`
		Width    string `json:"width"`
		Ring     int    `json:"ring"`
	} `json:"config"`
	Ingest struct {
		InWindowPerSec  float64 `json:"in_window_records_per_sec"` // warm, watermark steady
		RotatingPerSec  float64 `json:"rotating_records_per_sec"`  // every pass advances the watermark
		RotationsPerSec float64 `json:"ring_rotations_per_sec"`    // key-slot resets during the rotating passes
		RotationRatio   float64 `json:"rotating_vs_in_window_ratio"`
	} `json:"ingest"`
	Query struct {
		SampleKeys         int     `json:"sample_keys"`
		Window5mNanos      float64 `json:"window_5m_ns"`      // merge-on-query, 5 sub-windows
		Window1mNanos      float64 `json:"window_1m_ns"`      // single-sub-window fast path
		PlainEstimateNanos float64 `json:"plain_estimate_ns"` // unwindowed store baseline
		MergeOverPlain     float64 `json:"window_5m_vs_plain_ratio"`
	} `json:"query"`
	Store struct {
		Keys             int     `json:"keys"`
		FootprintBytes   int     `json:"footprint_bytes"`
		BytesPerKey      float64 `json:"bytes_per_key"`
		PlainBytesPerKey float64 `json:"plain_bytes_per_key"`
		RingCostMultiple float64 `json:"ring_cost_multiple"`
	} `json:"store"`
	Server struct {
		VerifiedKeys        int  `json:"verified_keys"`
		TwinBitIdentical    bool `json:"twin_bit_identical"`
		RestartBitIdentical bool `json:"restart_bit_identical"`
	} `json:"server"`
}

// windowKeyNames builds the key universe once.
func windowKeyNames() []string {
	keys := make([]string, windowKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05x", i)
	}
	return keys
}

// windowAt is the record timestamp landing in sub-window widx.
func windowAt(widx int64) time.Time {
	return time.Unix(0, widx*int64(windowWidth)+int64(windowWidth)/2)
}

// windowPass feeds one full pass over the key space into sink, every
// batch stamped into sub-window widx, item identities salted by pass.
func windowPass(keys []string, widx int64, pass uint64, sink func(ts time.Time, k []string, it []uint64)) {
	items := make([]uint64, windowBatch)
	ts := windowAt(widx)
	for off := 0; off < len(keys); off += windowBatch {
		end := min(off+windowBatch, len(keys))
		for i := off; i < end; i++ {
			// A small per-key item universe so duplicates occur.
			items[i-off] = xrand.Mix64(uint64(i)<<8 | (pass+uint64(widx))%6)
		}
		sink(ts, keys[off:end], items[:end-off])
	}
}

// runWindow measures the sliding-window subsystem and prints a table;
// jsonPath != "" additionally writes the machine-readable report.
func runWindow(jsonPath string, seed uint64) error {
	spec, err := sbitmap.ParseSpec(windowSpecStr)
	if err != nil {
		return err
	}
	spec.Seed = seed
	keys := windowKeyNames()

	report := windowReport{Schema: "sbitmap-window/v1"}
	report.Config.Keys = windowKeys
	report.Config.BatchLen = windowBatch
	report.Config.Spec = spec.String()
	report.Config.Width = spec.Window.String()
	report.Config.Ring = spec.Ring

	fmt.Printf("sliding-window store, %d keys, spec %s, batch=%d\n\n", windowKeys, spec, windowBatch)

	st, err := sbitmap.NewStore[string](spec)
	if err != nil {
		return err
	}
	ingest := func(ts time.Time, k []string, it []uint64) { st.AddBatch64At(ts, k, it) }

	// In-window ingest: one cold pass materializes rings and counters,
	// then warm passes hit the watermark sub-window with no rotation.
	const base = int64(1000)
	windowPass(keys, base, 0, ingest)
	start := time.Now()
	const warmPasses = 3
	for p := uint64(1); p <= warmPasses; p++ {
		windowPass(keys, base, p, ingest)
	}
	warmRecs := warmPasses * windowKeys
	report.Ingest.InWindowPerSec = float64(warmRecs) / time.Since(start).Seconds()

	// Rotating ingest: each pass lands in the next sub-window, so every
	// key's ring rotates exactly once per pass.
	const rotPasses = 5
	start = time.Now()
	for p := 1; p <= rotPasses; p++ {
		windowPass(keys, base+int64(p), uint64(p), ingest)
	}
	rotSecs := time.Since(start).Seconds()
	report.Ingest.RotatingPerSec = float64(rotPasses*windowKeys) / rotSecs
	report.Ingest.RotationsPerSec = float64(rotPasses*windowKeys) / rotSecs
	report.Ingest.RotationRatio = report.Ingest.RotatingPerSec / report.Ingest.InWindowPerSec

	fmt.Printf("ingest: in-window %.3e rec/s, rotating %.3e rec/s (%.2fx, %.3e ring rotations/s)\n",
		report.Ingest.InWindowPerSec, report.Ingest.RotatingPerSec,
		report.Ingest.RotationRatio, report.Ingest.RotationsPerSec)

	// A plain unwindowed twin of the base kind, fed one pass, as the
	// query-latency and footprint baseline.
	plainSpec := spec
	plainSpec.Window, plainSpec.Ring = 0, 0
	plain, err := sbitmap.NewStore[string](plainSpec)
	if err != nil {
		return err
	}
	windowPass(keys, base, 0, func(_ time.Time, k []string, it []uint64) { plain.AddBatch64(k, it) })

	timeQueries := func(f func(key string)) float64 {
		start := time.Now()
		for i := 0; i < windowSample; i++ {
			f(keys[i*(windowKeys/windowSample)])
		}
		return float64(time.Since(start).Nanoseconds()) / windowSample
	}
	report.Query.SampleKeys = windowSample
	report.Query.Window5mNanos = timeQueries(func(k string) { st.EstimateWindow(k, windowQuerySpan) })
	report.Query.Window1mNanos = timeQueries(func(k string) { st.EstimateWindow(k, windowWidth) })
	report.Query.PlainEstimateNanos = timeQueries(func(k string) { plain.Estimate(k) })
	report.Query.MergeOverPlain = report.Query.Window5mNanos / report.Query.PlainEstimateNanos

	fmt.Printf("query: window=5m %.0f ns (merge of 5), window=1m %.0f ns, plain estimate %.0f ns (5m/plain %.1fx)\n",
		report.Query.Window5mNanos, report.Query.Window1mNanos,
		report.Query.PlainEstimateNanos, report.Query.MergeOverPlain)

	report.Store.Keys = st.Len()
	report.Store.FootprintBytes = st.Footprint()
	report.Store.BytesPerKey = float64(report.Store.FootprintBytes) / float64(st.Len())
	report.Store.PlainBytesPerKey = float64(plain.Footprint()) / float64(plain.Len())
	report.Store.RingCostMultiple = report.Store.BytesPerKey / report.Store.PlainBytesPerKey
	fmt.Printf("store: %d keys, %.1f B/key resident at ring=%d (plain %.1f B/key, %.2fx)\n",
		report.Store.Keys, report.Store.BytesPerKey, spec.Ring,
		report.Store.PlainBytesPerKey, report.Store.RingCostMultiple)

	// End-to-end: loopback HTTP server fed the same timestamped trace via
	// version-2 frames must answer every ?window=5m query bit-identically
	// to a twin ring, live and again after checkpoint + WAL tail + restart.
	tmp, err := os.MkdirTemp("", "sbench-window-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg := server.Config{
		Spec:          spec,
		CheckpointDir: filepath.Join(tmp, "ckpt"),
		WALDir:        filepath.Join(tmp, "wal"),
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	hs := httptest.NewServer(srv)
	client := server.NewClient(hs.URL)
	ctx := context.Background()
	twin, err := sbitmap.NewStore[string](spec)
	if err != nil {
		return err
	}
	var ingestErr error
	feed := func(ts time.Time, k []string, it []uint64) {
		if ingestErr == nil {
			_, ingestErr = client.AddFrame(ctx, &server.Frame{Keys: k, Items64: it, TSNanos: ts.UnixNano(), HasTS: true})
		}
		twin.AddBatch64At(ts, k, it)
	}
	for p := 0; p <= 4; p++ { // sub-windows 2000..2004: a full ring
		windowPass(keys, 2000+int64(p), uint64(p), feed)
	}
	if ingestErr != nil {
		return ingestErr
	}

	verifyAll := func(c *server.Client) (int, bool, error) {
		var mismatches atomic.Int64
		var firstErr atomic.Value
		var wg sync.WaitGroup
		for w := 0; w < 16; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < windowKeys; i += 16 {
					got, ok, err := c.EstimateWindow(ctx, keys[i], windowQuerySpan)
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					want, wok, werr := twin.EstimateWindow(keys[i], windowQuerySpan)
					if werr != nil {
						firstErr.CompareAndSwap(nil, werr)
						return
					}
					if !ok || !wok || got.Estimate != want.Estimate || got.Windows != want.Windows ||
						got.WindowStartUnixNano != want.Start.UnixNano() ||
						got.WindowEndUnixNano != want.End.UnixNano() {
						mismatches.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		if err, _ := firstErr.Load().(error); err != nil {
			return 0, false, err
		}
		return windowKeys, mismatches.Load() == 0, nil
	}
	checked, identical, err := verifyAll(client)
	if err != nil {
		return err
	}
	report.Server.VerifiedKeys = checked
	report.Server.TwinBitIdentical = identical
	fmt.Printf("server: %d keys verified against twin over ?window=5m, bit-identical: %v\n", checked, identical)
	if !identical {
		return fmt.Errorf("window: loopback server diverged from the twin ring")
	}

	// Checkpoint, then one more rotating pass that only the WAL holds,
	// then restart and re-verify everything.
	if _, err := client.Checkpoint(ctx); err != nil {
		return err
	}
	windowPass(keys, 2005, 9, feed)
	if ingestErr != nil {
		return ingestErr
	}
	hs.Close()
	start = time.Now()
	srv2, err := server.New(cfg)
	if err != nil {
		return err
	}
	recovery := time.Since(start)
	hs2 := httptest.NewServer(srv2)
	defer hs2.Close()
	_, identical, err = verifyAll(server.NewClient(hs2.URL))
	if err != nil {
		return err
	}
	report.Server.RestartBitIdentical = identical
	fmt.Printf("server: checkpoint + WAL tail + restart in %v, re-verified bit-identical: %v\n",
		recovery.Round(time.Millisecond), identical)
	if !identical {
		return fmt.Errorf("window: restarted server diverged from the twin ring")
	}

	if jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("(json: %s)\n", jsonPath)
	}
	return nil
}
