package main

// The throughput pseudo-experiment backs the paper's Section 3 cost claim
// with measured ingest rates: items/sec for each comparison sketch,
// uint64 vs string keys, per-item vs batch path. `sbench -run throughput -json BENCH_throughput.json`
// regenerates the repo's tracked BENCH_throughput.json so the perf
// trajectory is visible across changes (absolute numbers are
// machine-dependent; the batch/per-item speedup columns are the stable
// signal).

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	sbitmap "repro"
	"repro/internal/stream"
)

const (
	thrMBits   = 8000    // memory budget per sketch (Section 7.1 configuration)
	thrN       = 1e6     // dimensioning bound
	thrBatch   = 4096    // items per AddBatch call
	thrKeys64  = 1 << 18 // uint64 item universe per pass
	thrKeysStr = 1 << 16 // string item universe per pass
	thrMinTime = 80 * time.Millisecond
)

// thrSketches is the fixed measurement order (the paper's Section 6
// comparison set).
var thrSketches = []sbitmap.Kind{
	sbitmap.KindSBitmap, sbitmap.KindHLL, sbitmap.KindLogLog,
	sbitmap.KindFM, sbitmap.KindLinearCount, sbitmap.KindMRBitmap,
}

type thrResult struct {
	Sketch      string  `json:"sketch"`
	Key         string  `json:"key"`  // "uint64" or "string"
	Path        string  `json:"path"` // "peritem" or "batch"
	ItemsPerSec float64 `json:"items_per_sec"`
}

type thrReport struct {
	Schema string `json:"schema"`
	Config struct {
		MemoryBits int     `json:"memory_bits"`
		N          float64 `json:"n"`
		BatchLen   int     `json:"batch_len"`
	} `json:"config"`
	Results []thrResult `json:"results"`
}

// runThroughput measures every (sketch, key, path) cell and prints a
// table; jsonPath != "" additionally writes the machine-readable report.
func runThroughput(jsonPath string, seed uint64) error {
	items64 := make([]uint64, thrKeys64)
	st := stream.NewDistinct(thrKeys64, seed)
	for i := range items64 {
		items64[i], _ = st.Next()
	}
	itemsStr := make([]string, thrKeysStr)
	for i := range itemsStr {
		itemsStr[i] = fmt.Sprintf("flow-%016x", items64[i])
	}

	report := thrReport{Schema: "sbitmap-throughput/v1"}
	report.Config.MemoryBits = thrMBits
	report.Config.N = thrN
	report.Config.BatchLen = thrBatch

	fmt.Printf("ingest throughput (items/sec), mbits=%d N=%.0e batch=%d\n\n",
		thrMBits, thrN, thrBatch)
	fmt.Printf("%-12s %-7s %14s %14s %8s\n", "sketch", "key", "per-item/s", "batch/s", "speedup")

	for _, kind := range thrSketches {
		spec := sbitmap.Spec{Kind: kind, N: thrN, MemoryBits: thrMBits, Seed: seed}
		for _, key := range []string{"uint64", "string"} {
			var rates [2]float64 // [peritem, batch]
			for pi, path := range []string{"peritem", "batch"} {
				c, err := spec.New()
				if err != nil {
					return fmt.Errorf("throughput %s: %w", kind, err)
				}
				var pass func()
				var per int
				switch {
				case key == "uint64" && path == "peritem":
					per = len(items64)
					pass = func() {
						for _, x := range items64 {
							c.AddUint64(x)
						}
					}
				case key == "uint64" && path == "batch":
					per = len(items64)
					pass = func() {
						for i := 0; i < len(items64); i += thrBatch {
							end := min(i+thrBatch, len(items64))
							sbitmap.AddBatch64(c, items64[i:end])
						}
					}
				case key == "string" && path == "peritem":
					per = len(itemsStr)
					pass = func() {
						for _, x := range itemsStr {
							c.AddString(x)
						}
					}
				default:
					per = len(itemsStr)
					pass = func() {
						for i := 0; i < len(itemsStr); i += thrBatch {
							end := min(i+thrBatch, len(itemsStr))
							sbitmap.AddBatchString(c, itemsStr[i:end])
						}
					}
				}
				rate := measureRate(per, pass)
				rates[pi] = rate
				report.Results = append(report.Results, thrResult{
					Sketch: string(kind), Key: key, Path: path,
					ItemsPerSec: rate,
				})
			}
			fmt.Printf("%-12s %-7s %14.3e %14.3e %7.2fx\n",
				kind, key, rates[0], rates[1], rates[1]/rates[0])
		}
	}

	if jsonPath != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("\n(json: %s)\n", jsonPath)
	}
	return nil
}

// measureRate runs pass (which ingests per items) until thrMinTime has
// elapsed, after one untimed warm-up pass that settles sketch state and
// scratch buffers, and returns items/sec.
func measureRate(per int, pass func()) float64 {
	pass()
	start := time.Now()
	items := 0
	for time.Since(start) < thrMinTime {
		pass()
		items += per
	}
	return float64(items) / time.Since(start).Seconds()
}
