package main

// The cluster pseudo-experiment measures cluster mode end to end: one
// trace (131,072 keys, the shape of the sketchd benchmark's tcp-ingest
// workload) goes through one sketchd and then through a real 3-node
// loopback cluster via cluster.Client — partitioned binary-frame ingest
// (each batch split by ring owner, sub-frames shipped concurrently),
// then scatter-gather queries (owner-routed estimates, k-way-merged
// top-k, summed stats). The single-node frame pass runs first so the
// report carries the partitioning overhead ratio directly; the cluster
// pass is verified bit-identical to a local twin Store over every key,
// and a peer kill must yield a typed partial response. `sbench -run
// cluster -json BENCH_cluster.json` regenerates the repo's tracked
// BENCH_cluster.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	sbitmap "repro"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/xrand"
)

const (
	clusterNodes   = 3
	clusterQueries = 2_000
)

const (
	serverKeys     = 1 << 17 // 131072 keys
	serverSpreadLo = 2       // per-key distinct items, uniform in [lo, hi]
	serverSpreadHi = 10
	serverDup      = 1.4 // records per distinct item
	serverBatch    = 8192
	serverSpec     = "sbitmap:n=1e4,eps=0.1" // per-key sketch (tiny, as deployed)
)

type serverResult struct {
	Mode          string  `json:"mode"` // "frame1" (single node) or "frame3" (cluster)
	Records       int     `json:"records"`
	Requests      int     `json:"requests"`
	Seconds       float64 `json:"seconds"`
	RecordsPerSec float64 `json:"records_per_sec"`
}

// serverWorkload pre-generates the full record sequence: per-key spreads
// uniform in [serverSpreadLo, serverSpreadHi], shuffled flat (worst-case
// key locality, every batch touches ~batch distinct keys).
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

type clusterNodeReport struct {
	Peer string `json:"peer"`
	Keys int    `json:"keys"`
}

type clusterReport struct {
	Schema string `json:"schema"`
	Config struct {
		Nodes    int    `json:"nodes"`
		Keys     int    `json:"keys"`
		Records  int    `json:"records"`
		BatchLen int    `json:"batch_len"`
		Spec     string `json:"spec"`
	} `json:"config"`
	Ingest []serverResult `json:"ingest"` // mode "frame1" (single node) vs "frame3" (cluster)
	Query  struct {
		Count    int     `json:"count"`
		MeanUs   float64 `json:"mean_us"`
		P50Us    float64 `json:"p50_us"`
		P99Us    float64 `json:"p99_us"`
		PerSec   float64 `json:"queries_per_sec"`
		TopK     int     `json:"topk_k"`
		TopKUs   float64 `json:"topk_us"`
		StatsUs  float64 `json:"stats_us"`
		Checked  int     `json:"verified_keys"`
		Verified bool    `json:"cluster_bit_identical"`
	} `json:"query"`
	Nodes    []clusterNodeReport `json:"nodes"`
	Degraded struct {
		Exercised   bool     `json:"exercised"`
		Partial     bool     `json:"partial"`
		Unreachable []string `json:"unreachable"`
	} `json:"degraded"`
}

// runCluster measures a 3-node loopback cluster and prints a table;
// jsonPath != "" additionally writes the machine-readable report.
func runCluster(jsonPath string, seed uint64) error {
	spec, err := sbitmap.ParseSpec(serverSpec)
	if err != nil {
		return err
	}
	spec.Seed = seed
	keys, items, _ := serverWorkload(seed)
	ctx := context.Background()

	report := clusterReport{Schema: "sbitmap-cluster/v1"}
	report.Config.Nodes = clusterNodes
	report.Config.Keys = serverKeys
	report.Config.Records = len(items)
	report.Config.BatchLen = serverBatch
	report.Config.Spec = spec.String()

	fmt.Printf("cluster mode over loopback HTTP: %d nodes, %d keys, %d records, spec %s, batch=%d\n\n",
		clusterNodes, serverKeys, len(items), spec, serverBatch)
	fmt.Printf("%-8s %10s %10s %9s %14s\n", "mode", "records", "requests", "seconds", "records/s")

	// Baseline: the identical workload through ONE node, so the
	// partitioning ratio is in-report, not cross-file.
	oneSrv, oneHTTP, oneBase, err := startServer(spec)
	if err != nil {
		return err
	}
	oneClient := server.NewClient(oneBase)
	start := time.Now()
	reqs := 0
	for i := 0; i < len(keys); i += serverBatch {
		end := min(i+serverBatch, len(keys))
		if _, err := oneClient.AddFrame(ctx, &server.Frame{Keys: keys[i:end], Items64: items[i:end]}); err != nil {
			return err
		}
		reqs++
	}
	secs := time.Since(start).Seconds()
	report.Ingest = append(report.Ingest, serverResult{
		Mode: "frame1", Records: len(keys), Requests: reqs, Seconds: secs,
		RecordsPerSec: float64(len(keys)) / secs,
	})
	fmt.Printf("%-8s %10d %10d %9.2f %14.3e\n", "frame1", len(keys), reqs, secs, float64(len(keys))/secs)
	oneHTTP.Close()
	_ = oneSrv

	// The cluster: 3 nodes, one ring, partitioned ingest.
	srvs := make([]*server.Server, clusterNodes)
	https := make([]*http.Server, clusterNodes)
	peers := make([]string, clusterNodes)
	defer func() {
		for _, hs := range https {
			if hs != nil {
				hs.Close()
			}
		}
	}()
	for i := range srvs {
		if srvs[i], https[i], peers[i], err = startServer(spec); err != nil {
			return err
		}
	}
	cc, err := cluster.New(peers)
	if err != nil {
		return err
	}

	start = time.Now()
	reqs = 0
	for i := 0; i < len(keys); i += serverBatch {
		end := min(i+serverBatch, len(keys))
		res, err := cc.AddFrame(ctx, &server.Frame{Keys: keys[i:end], Items64: items[i:end]})
		if err != nil {
			return err
		}
		if res.Partial {
			return fmt.Errorf("cluster: ingest degraded on a healthy cluster: %+v", res.Degraded)
		}
		reqs++ // one logical request; the client fans out per owner
	}
	secs = time.Since(start).Seconds()
	report.Ingest = append(report.Ingest, serverResult{
		Mode: "frame3", Records: len(keys), Requests: reqs, Seconds: secs,
		RecordsPerSec: float64(len(keys)) / secs,
	})
	fmt.Printf("%-8s %10d %10d %9.2f %14.3e\n", "frame3", len(keys), reqs, secs, float64(len(keys))/secs)

	// Correctness: every key's clustered estimate must be bit-identical
	// to a local twin Store fed the same records. Ownership is resolved
	// through the ring and checked against the owning node's store
	// in-process (the HTTP surface is sampled by the latency pass below).
	twin, err := sbitmap.NewStore[string](spec)
	if err != nil {
		return err
	}
	for i := 0; i < len(keys); i += serverBatch {
		end := min(i+serverBatch, len(keys))
		twin.AddBatch64(keys[i:end], items[i:end])
	}
	ring := cc.Ring()
	checked := 0
	identical := true
	twin.ForEach(func(key string, c sbitmap.Counter) bool {
		got, ok := srvs[ring.Owner(key)].Store().Estimate(key)
		if !ok || got != c.Estimate() {
			identical = false
			return false
		}
		checked++
		return true
	})
	if !identical {
		return fmt.Errorf("cluster: partitioned estimates differ from a local twin store")
	}
	report.Query.Checked = checked
	report.Query.Verified = identical
	totalKeys := 0
	for i, s := range srvs {
		n := s.Store().Len()
		totalKeys += n
		report.Nodes = append(report.Nodes, clusterNodeReport{Peer: peers[i], Keys: n})
	}
	if totalKeys != twin.Len() {
		return fmt.Errorf("cluster: nodes hold %d keys total, twin %d", totalKeys, twin.Len())
	}

	// Scatter-gather query latency over the cluster client.
	lat := make([]float64, clusterQueries)
	r := xrand.New(seed ^ 0x9e77)
	qStart := time.Now()
	for i := range lat {
		key := fmt.Sprintf("user-%06x", r.Intn(serverKeys))
		t0 := time.Now()
		if _, ok, err := cc.Estimate(ctx, key); err != nil || !ok {
			return fmt.Errorf("cluster: query %s: ok=%v err=%v", key, ok, err)
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
	report.Query.Count = clusterQueries
	report.Query.MeanUs = mean
	report.Query.P50Us = lat[len(lat)/2]
	report.Query.P99Us = lat[len(lat)*99/100]
	report.Query.PerSec = float64(clusterQueries) / qSecs

	const topK = 10
	t0 := time.Now()
	tk, err := cc.TopK(ctx, topK)
	if err != nil {
		return err
	}
	report.Query.TopK = topK
	report.Query.TopKUs = float64(time.Since(t0).Microseconds())
	if tk.Partial || len(tk.Top) != topK {
		return fmt.Errorf("cluster: topk returned %d entries, partial=%v", len(tk.Top), tk.Partial)
	}
	t0 = time.Now()
	if _, err := cc.Stats(ctx); err != nil {
		return err
	}
	report.Query.StatsUs = float64(time.Since(t0).Microseconds())

	// Degraded path: kill one node, a scatter-gather query must come back
	// partial (typed, no error) naming the dead peer.
	https[1].Close()
	https[1] = nil
	dtk, err := cc.TopK(ctx, topK)
	if err != nil {
		return fmt.Errorf("cluster: topk with a dead peer errored instead of degrading: %w", err)
	}
	report.Degraded.Exercised = true
	report.Degraded.Partial = dtk.Partial
	report.Degraded.Unreachable = dtk.Unreachable
	if !dtk.Partial || len(dtk.Unreachable) != 1 || dtk.Unreachable[0] != peers[1] {
		return fmt.Errorf("cluster: degraded topk response: partial=%v unreachable=%v", dtk.Partial, dtk.Unreachable)
	}

	frame1 := report.Ingest[0].RecordsPerSec
	frame3 := report.Ingest[1].RecordsPerSec
	fmt.Printf("\nqueries (owner-routed): %d estimates, mean %.0f µs, p50 %.0f µs, p99 %.0f µs (%.3e/s); topk(%d) %.0f µs, stats %.0f µs\n",
		clusterQueries, mean, report.Query.P50Us, report.Query.P99Us, report.Query.PerSec, topK, report.Query.TopKUs, report.Query.StatsUs)
	fmt.Printf("partition balance:")
	for _, n := range report.Nodes {
		fmt.Printf(" %d", n.Keys)
	}
	fmt.Printf(" keys/node; cluster ingest %.2fx single-node (%.3e vs %.3e rec/s)\n",
		frame3/frame1, frame3, frame1)
	fmt.Printf("verified: %d keys bit-identical to local twin; peer-kill topk partial=%v unreachable=%v\n",
		checked, dtk.Partial, dtk.Unreachable)

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
