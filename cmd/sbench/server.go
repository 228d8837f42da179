package main

// The server pseudo-experiment measures the counting service end to end:
// a real sketchd serving layer (internal/server over net/http) on
// loopback, driven by the client library through its four ingest paths —
// one NDJSON record per request (the naive producer), NDJSON batches,
// the compact binary frame over HTTP (decoding straight onto
// Store.AddBatch64), and the same frames over the raw TCP wire listener
// (internal/wire: length-prefixed, pipelined, zero-copy decode) — plus
// query latency over /v1/estimate. The full-pass modes push ≥1M keyed
// updates each, and the frame and tcp passes are verified bit-identical
// against a local Store fed the same records, so the report doubles as
// an end-to-end correctness check. `sbench -run server -json
// BENCH_server.json` regenerates the repo's tracked BENCH_server.json
// (absolute rates are machine-dependent; the tcp-vs-frame-vs-NDJSON
// ratios and the per-request floor of the per-item mode are the stable
// signal).

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	sbitmap "repro"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/xrand"
)

const (
	serverKeys     = 1 << 17 // 131072 keys
	serverSpreadLo = 2       // per-key distinct items, uniform in [lo, hi]
	serverSpreadHi = 10
	serverDup      = 1.4 // records per distinct item
	serverBatch    = 8192
	serverSpec     = "sbitmap:n=1e4,eps=0.1" // per-key sketch (tiny, as deployed)

	serverPerItemRecords = 20_000 // per-item mode: one HTTP request per record
	serverQueries        = 2_000

	// Durability phase: enough stripes that "dirty stripes" is a
	// fine-grained fraction of the store, enough records that the full
	// checkpoint dwarfs the incremental ones.
	serverDurStripes = 1024
	serverDurRecords = 1 << 18 // 262144
)

type serverResult struct {
	Mode          string  `json:"mode"` // "peritem", "ndjson", "frame", or "tcp"
	Records       int     `json:"records"`
	Requests      int     `json:"requests"`
	Seconds       float64 `json:"seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

type serverReport struct {
	Schema string `json:"schema"`
	Config struct {
		Keys           int    `json:"keys"`
		Records        int    `json:"records"`
		BatchLen       int    `json:"batch_len"`
		Spec           string `json:"spec"`
		PerItemRecords int    `json:"peritem_records"`
	} `json:"config"`
	Results []serverResult `json:"results"`
	Query   struct {
		Count    int     `json:"count"`
		MeanUs   float64 `json:"mean_us"`
		P50Us    float64 `json:"p50_us"`
		P99Us    float64 `json:"p99_us"`
		PerSec   float64 `json:"queries_per_sec"`
		TopK     int     `json:"topk_k"`
		TopKUs   float64 `json:"topk_us"`
		StatsUs  float64 `json:"stats_us"`
		Checked  int     `json:"verified_keys"`
		Verified bool    `json:"frame_bit_identical"`
		TCPOK    bool    `json:"tcp_bit_identical"`
	} `json:"query"`
	Store struct {
		Keys           int `json:"keys"`
		FootprintBytes int `json:"footprint_bytes"`
	} `json:"store"`
	Durability struct {
		Stripes     int             `json:"stripes"`
		Records     int             `json:"records"`
		FsyncPolicy string          `json:"fsync_policy"`
		Checkpoints []durabilityRow `json:"checkpoints"`
		WALReplayed int             `json:"wal_records_replayed"`
		RecoveryMs  float64         `json:"recovery_ms"`
		Verified    bool            `json:"recovered_bit_identical"`
	} `json:"durability"`
}

// durabilityRow is one checkpoint pass: how many stripes ingest dirtied
// since the previous pass, and what the pass cost on disk and on the
// clock. The incremental rows' checkpoint_bytes scaling with
// dirty_stripes (not with the key population) is the claim under test.
type durabilityRow struct {
	Pass            string  `json:"pass"`
	DirtyStripes    int     `json:"dirty_stripes"`
	CheckpointBytes int     `json:"checkpoint_bytes"`
	CheckpointMs    float64 `json:"checkpoint_ms"`
}

// serverWorkload pre-generates the full record sequence: per-key spreads
// like the keyed bench, shuffled flat (worst-case key locality, every
// batch touches ~batch distinct keys).
func serverWorkload(seed uint64) (keys []string, items []uint64, spreads []int) {
	r := xrand.New(seed ^ 0x5e27e5)
	spreads = make([]int, serverKeys)
	names := make([]string, serverKeys)
	total := 0
	for k := range spreads {
		spreads[k] = serverSpreadLo + r.Intn(serverSpreadHi-serverSpreadLo+1)
		names[k] = fmt.Sprintf("user-%06x", k)
		recs := int(float64(spreads[k])*serverDup + 0.5)
		total += recs
	}
	keys = make([]string, 0, total)
	items = make([]uint64, 0, total)
	for k, spread := range spreads {
		recs := int(float64(spread)*serverDup + 0.5)
		for i := 0; i < recs; i++ {
			keys = append(keys, names[k])
			items = append(items, xrand.Mix64(uint64(k)<<16|uint64(i%spread)))
		}
	}
	// Fisher–Yates over the records, keeping (key, item) pairs together.
	for i := len(keys) - 1; i > 0; i-- {
		j := int(r.Uint64() % uint64(i+1))
		keys[i], keys[j] = keys[j], keys[i]
		items[i], items[j] = items[j], items[i]
	}
	return keys, items, spreads
}

// localTwin feeds the full workload into an in-process Store, the ground
// truth the served ingest paths must match bit for bit.
func localTwin(spec sbitmap.Spec, keys []string, items []uint64) (*sbitmap.Store[string], error) {
	local, err := sbitmap.NewStore[string](spec)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(keys); i += serverBatch {
		end := min(i+serverBatch, len(keys))
		local.AddBatch64(keys[i:end], items[i:end])
	}
	return local, nil
}

// estimatesMatch compares every key's estimate in the local twin against
// the served store; any miss or mismatch means the transport corrupted
// state.
func estimatesMatch(local *sbitmap.Store[string], srv *server.Server) (checked int, identical bool) {
	identical = srv.Store().Len() == local.Len()
	local.ForEach(func(key string, c sbitmap.Counter) bool {
		got, ok := srv.Store().Estimate(key)
		if !ok || got != c.Estimate() {
			identical = false
			return false
		}
		checked++
		return true
	})
	return checked, identical
}

// startServer binds a fresh counting service to a loopback port.
func startServer(spec sbitmap.Spec) (*server.Server, *http.Server, string, error) {
	srv, err := server.New(server.Config{Spec: spec})
	if err != nil {
		return nil, nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) // returns ErrServerClosed via hs.Close
	return srv, hs, "http://" + ln.Addr().String(), nil
}

// runServer measures the counting service over loopback and prints a
// table; jsonPath != "" additionally writes the machine-readable report.
func runServer(jsonPath string, seed uint64) error {
	spec, err := sbitmap.ParseSpec(serverSpec)
	if err != nil {
		return err
	}
	spec.Seed = seed
	keys, items, _ := serverWorkload(seed)
	ctx := context.Background()

	report := serverReport{Schema: "sbitmap-server/v2"}
	report.Config.Keys = serverKeys
	report.Config.Records = len(items)
	report.Config.BatchLen = serverBatch
	report.Config.Spec = spec.String()
	report.Config.PerItemRecords = serverPerItemRecords

	fmt.Printf("counting service over loopback HTTP, %d keys, %d records, spec %s, batch=%d\n\n",
		serverKeys, len(items), spec, serverBatch)
	fmt.Printf("%-8s %10s %10s %9s %14s\n", "mode", "records", "requests", "seconds", "records/s")

	itemStrs := make([]string, serverPerItemRecords)
	for i := range itemStrs {
		itemStrs[i] = fmt.Sprintf("%x", items[i])
	}

	var frameSrv *server.Server
	var frameClient *server.Client
	var frameHTTP *http.Server
	defer func() {
		if frameHTTP != nil {
			frameHTTP.Close()
		}
	}()
	// tcp runs before frame and releases its store as soon as it is
	// verified, so neither heavy mode is taxed by GC scans of the other's
	// live 40+ MB store (retention skews the slower-looking mode by ~2x).
	for _, mode := range []string{"peritem", "ndjson", "tcp", "frame"} {
		runtime.GC()
		srv, hs, base, err := startServer(spec)
		if err != nil {
			return err
		}
		client := server.NewClient(base)
		n, reqs := 0, 0
		start := time.Now()
		switch mode {
		case "peritem":
			// One record per request: the per-message floor a naive
			// producer pays (HTTP round trip + JSON decode per record).
			for i := 0; i < serverPerItemRecords; i++ {
				if _, err := client.AddNDJSON(ctx, keys[i:i+1], itemStrs[i:i+1]); err != nil {
					return err
				}
			}
			n, reqs = serverPerItemRecords, serverPerItemRecords
		case "ndjson":
			// Batched NDJSON: items rendered as hex strings (the format is
			// text); hashing differs from the frame path, throughput is
			// the comparison.
			buf := make([]string, serverBatch)
			for i := 0; i < len(keys); i += serverBatch {
				end := min(i+serverBatch, len(keys))
				strs := buf[:end-i]
				for j := range strs {
					strs[j] = fmt.Sprintf("%x", items[i+j])
				}
				if _, err := client.AddNDJSON(ctx, keys[i:end], strs); err != nil {
					return err
				}
				reqs++
			}
			n = len(keys)
		case "frame":
			for i := 0; i < len(keys); i += serverBatch {
				end := min(i+serverBatch, len(keys))
				if _, err := client.AddFrame(ctx, &server.Frame{Keys: keys[i:end], Items64: items[i:end]}); err != nil {
					return err
				}
				reqs++
			}
			n = len(keys)
		case "tcp":
			// Raw wire transport: the same frames, but over a long-lived
			// TCP connection with pipelined sends and batched acks instead
			// of one HTTP request/response per frame.
			wln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			ws := wire.Serve(wln, srv)
			wc := wire.NewClient(wln.Addr().String())
			for i := 0; i < len(keys); i += serverBatch {
				end := min(i+serverBatch, len(keys))
				if err := wc.SendFrame(&server.Frame{Keys: keys[i:end], Items64: items[i:end]}); err != nil {
					return err
				}
				reqs++
			}
			if _, err := wc.Drain(); err != nil {
				return err
			}
			n = len(keys)
			wc.Close()
			ws.Close()
		}
		secs := time.Since(start).Seconds()
		report.Results = append(report.Results, serverResult{
			Mode: mode, Records: n, Requests: reqs, Seconds: secs,
			RecordsPerSec: float64(n) / secs,
		})
		fmt.Printf("%-8s %10d %10d %9.2f %14.3e\n", mode, n, reqs, secs, float64(n)/secs)
		switch mode {
		case "frame":
			frameSrv, frameClient, frameHTTP = srv, client, hs
		case "tcp":
			// Verify now so the store can be released before the frame
			// pass runs (see the retention note above the loop).
			local, err := localTwin(spec, keys, items)
			if err != nil {
				return err
			}
			if _, ok := estimatesMatch(local, srv); !ok {
				return fmt.Errorf("server: tcp-ingested estimates differ from a local store")
			}
			report.Query.TCPOK = true
			hs.Close()
		default:
			hs.Close()
		}
	}

	// Correctness: the frame pass must be bit-identical to a local Store
	// fed the same records — the service adds transport, not estimation.
	local, err := localTwin(spec, keys, items)
	if err != nil {
		return err
	}
	checked, identical := estimatesMatch(local, frameSrv)
	if !identical {
		return fmt.Errorf("server: frame-ingested estimates differ from a local store")
	}
	report.Query.Checked = checked
	report.Query.Verified = identical

	// Query latency over the served store (all keys live).
	lat := make([]float64, serverQueries)
	r := xrand.New(seed ^ 0x9e77)
	qStart := time.Now()
	for i := range lat {
		key := fmt.Sprintf("user-%06x", r.Intn(serverKeys))
		t0 := time.Now()
		if _, ok, err := frameClient.Estimate(ctx, key); err != nil || !ok {
			return fmt.Errorf("server: query %s: ok=%v err=%v", key, ok, err)
		}
		lat[i] = float64(time.Since(t0).Microseconds())
	}
	qSecs := time.Since(qStart).Seconds()
	sort.Float64s(lat)
	mean := 0.0
	for _, v := range lat {
		mean += v
	}
	mean /= float64(len(lat))
	report.Query.Count = serverQueries
	report.Query.MeanUs = mean
	report.Query.P50Us = lat[len(lat)/2]
	report.Query.P99Us = lat[len(lat)*99/100]
	report.Query.PerSec = float64(serverQueries) / qSecs

	const topK = 10
	t0 := time.Now()
	if _, err := frameClient.TopK(ctx, topK); err != nil {
		return err
	}
	report.Query.TopK = topK
	report.Query.TopKUs = float64(time.Since(t0).Microseconds())
	t0 = time.Now()
	stats, err := frameClient.Stats(ctx)
	if err != nil {
		return err
	}
	report.Query.StatsUs = float64(time.Since(t0).Microseconds())
	report.Store.Keys = stats.Keys
	report.Store.FootprintBytes = stats.FootprintBytes

	fmt.Printf("\nqueries: %d estimates, mean %.0f µs, p50 %.0f µs, p99 %.0f µs (%.3e/s); topk(%d) %.0f µs, stats %.0f µs\n",
		serverQueries, mean, report.Query.P50Us, report.Query.P99Us, report.Query.PerSec, topK, report.Query.TopKUs, report.Query.StatsUs)
	fmt.Printf("store: %d keys, %d bytes resident; frame and tcp ingest bit-identical to local store over %d keys\n",
		stats.Keys, stats.FootprintBytes, checked)

	// Release the heavy frame-pass store before the durability phase
	// stands up its own server.
	frameHTTP.Close()
	frameHTTP = nil
	frameSrv, frameClient, local = nil, nil, nil
	runtime.GC()
	if err := runServerDurability(&report, spec, keys, items); err != nil {
		return err
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

// runServerDurability measures the durability chain: ingest through the
// WAL (fsync always — every frame durable before its ack), a full
// checkpoint, then incremental checkpoints after touching 1, 16, and 128
// keys (their cost must track the dirty stripes, not the 100k+ key
// population), then a crash — the server abandoned mid-flight, like a
// kill -9 — and a timed recovery that must be bit-identical to a twin
// store fed the same records.
func runServerDurability(report *serverReport, spec sbitmap.Spec, keys []string, items []uint64) error {
	base, err := os.MkdirTemp("", "sbench-durability-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	cfg := server.Config{
		Spec:          spec,
		Stripes:       serverDurStripes,
		CheckpointDir: filepath.Join(base, "ckpt"),
		WALDir:        filepath.Join(base, "wal"),
		FsyncPolicy:   wal.FsyncAlways,
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	twin, err := sbitmap.NewStore[string](spec, sbitmap.WithStripes(serverDurStripes))
	if err != nil {
		return err
	}
	var f server.Frame
	defer f.Release()
	ingest := func(k []string, it []uint64) error {
		for i := 0; i < len(k); i += serverBatch {
			end := min(i+serverBatch, len(k))
			raw := server.AppendFrame64(nil, k[i:end], it[i:end])
			if err := f.DecodeBorrowed(raw); err != nil {
				return err
			}
			if _, err := srv.IngestFrame(raw, &f); err != nil {
				return err
			}
			twin.AddBatch64(k[i:end], it[i:end])
		}
		return nil
	}

	n := min(serverDurRecords, len(keys)/2)
	if err := ingest(keys[:n], items[:n]); err != nil {
		return err
	}

	report.Durability.Stripes = serverDurStripes
	report.Durability.FsyncPolicy = "always"
	checkpoint := func(pass string) error {
		info, err := srv.Checkpoint()
		if err != nil {
			return err
		}
		report.Durability.Checkpoints = append(report.Durability.Checkpoints, durabilityRow{
			Pass:            pass,
			DirtyStripes:    info.StripesWritten,
			CheckpointBytes: info.Bytes,
			CheckpointMs:    info.Seconds * 1e3,
		})
		return nil
	}
	if err := checkpoint("full"); err != nil {
		return err
	}

	// Incremental passes: touch a handful of keys, checkpoint, repeat. The
	// touched keys pick distinct counters spread over the stripe space.
	for _, dirty := range []int{1, 16, 128} {
		tk := make([]string, 0, dirty)
		ti := make([]uint64, 0, dirty)
		for j := 0; j < dirty; j++ {
			tk = append(tk, fmt.Sprintf("user-%06x", (j*977)%serverKeys))
			ti = append(ti, xrand.Mix64(0xd00d0000|uint64(dirty)<<16|uint64(j)))
		}
		if err := ingest(tk, ti); err != nil {
			return err
		}
		if err := checkpoint(fmt.Sprintf("dirty-%d", dirty)); err != nil {
			return err
		}
	}

	// A WAL tail past the newest checkpoint, then the crash: abandon the
	// server without Close (nothing flushes on a kill -9 either — fsync
	// always already made every ack durable) and time the cold start.
	tail := min(4*serverBatch, len(keys)-n)
	if err := ingest(keys[n:n+tail], items[n:n+tail]); err != nil {
		return err
	}
	report.Durability.Records = n + tail
	t0 := time.Now()
	srv2, err := server.New(cfg)
	if err != nil {
		return err
	}
	report.Durability.RecoveryMs = float64(time.Since(t0).Microseconds()) / 1e3
	report.Durability.WALReplayed = srv2.ReplayedRecords()
	_, identical := estimatesMatch(twin, srv2)
	report.Durability.Verified = identical
	srv2.Close()
	if !identical {
		return fmt.Errorf("server: recovered store differs from the twin fed the acked records")
	}

	fmt.Printf("\ndurability: WAL fsync=always, incremental checkpoints over %d stripes, %d records\n",
		serverDurStripes, report.Durability.Records)
	fmt.Printf("%-10s %14s %17s %9s\n", "pass", "dirty stripes", "checkpoint bytes", "ms")
	for _, row := range report.Durability.Checkpoints {
		fmt.Printf("%-10s %14d %17d %9.1f\n", row.Pass, row.DirtyStripes, row.CheckpointBytes, row.CheckpointMs)
	}
	fmt.Printf("recovery: manifest restore + %d WAL records replayed in %.1f ms; bit-identical to twin: %v\n",
		report.Durability.WALReplayed, report.Durability.RecoveryMs, identical)
	return nil
}
