package main

// The memory pseudo-experiment backs the paper's headline claim — "only
// about 30 kilobits of memory" for 1% error up to 10^6 — with measured
// process bytes: for every sketch in the zoo it reports the summary size
// (the paper's accounting), the analytic resident footprint
// (Counter.Footprint), the runtime-measured live heap bytes per sketch,
// and the construction cost. For the S-bitmap it additionally compares the
// closed-form schedule against the tabulated one it replaced, which is the
// tracked ≥100× auxiliary-bytes reduction.
// `sbench -run memory -json BENCH_memory.json` regenerates the repo's
// tracked BENCH_memory.json (absolute measured bytes are allocator- and
// platform-dependent; the analytic columns and the reduction ratio are the
// stable signal).

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	sbitmap "repro"
	"repro/internal/core"
)

const (
	memN       = 1e6  // dimensioning bound (the paper's headline config)
	memEps     = 0.01 // target RRMSE
	memReps    = 32   // live instances per measured-bytes sample
	memMinTime = 20 * time.Millisecond
)

type memResult struct {
	Sketch string `json:"sketch"`
	// SizeBits is the summary statistic (the paper's accounting).
	SizeBits int `json:"size_bits"`
	// FootprintBytes is the analytic resident footprint (Counter.Footprint).
	FootprintBytes int `json:"footprint_bytes"`
	// MeasuredBytes is live heap per instance measured via runtime.MemStats.
	MeasuredBytes float64 `json:"measured_bytes"`
	// ConstructNs is the wall time to construct one instance.
	ConstructNs float64 `json:"construct_ns"`
}

type memReport struct {
	Schema string `json:"schema"`
	Config struct {
		N   float64 `json:"n"`
		Eps float64 `json:"eps"`
	} `json:"config"`
	Results []memResult `json:"results"`
	// SBitmapAux quantifies the closed-form schedule win: auxiliary
	// (non-bitmap) resident bytes per sketch, closed form vs the tabulated
	// schedule the original implementation used.
	SBitmapAux struct {
		BitmapBytes        int     `json:"bitmap_bytes"`
		ClosedFormAuxBytes int     `json:"closed_form_aux_bytes"`
		TabulatedAuxBytes  int     `json:"tabulated_aux_bytes"`
		Reduction          float64 `json:"reduction"`
	} `json:"sbitmap_aux"`
}

type memEntry struct {
	name string
	mk   func() (sbitmap.Counter, error)
}

// memZoo lists the measured configurations: every kind at the shared
// (N, ε) budget.
func memZoo(seed uint64) []memEntry {
	var zoo []memEntry
	for _, kind := range sbitmap.Kinds() {
		spec := sbitmap.Spec{Kind: kind, N: memN, Eps: memEps, Seed: seed}
		zoo = append(zoo, memEntry{string(kind), spec.New})
	}
	return zoo
}

// runMemory measures every zoo entry and prints a table; jsonPath != ""
// additionally writes the machine-readable report.
func runMemory(jsonPath string, seed uint64) error {
	report := memReport{Schema: "sbitmap-memory/v1"}
	report.Config.N = memN
	report.Config.Eps = memEps

	fmt.Printf("per-sketch memory and construction cost, n=%.0e eps=%g\n\n", float64(memN), float64(memEps))
	fmt.Printf("%-18s %12s %15s %15s %13s\n", "sketch", "size(bits)", "footprint(B)", "measured(B)", "construct(ns)")

	for _, entry := range memZoo(seed) {
		probe, err := entry.mk()
		if err != nil {
			return fmt.Errorf("memory %s: %w", entry.name, err)
		}
		measured, err := measureLiveBytes(func() (any, error) { return entry.mk() })
		if err != nil {
			return err
		}
		res := memResult{
			Sketch:         entry.name,
			SizeBits:       probe.SizeBits(),
			FootprintBytes: probe.Footprint(),
			MeasuredBytes:  measured,
			ConstructNs:    measureConstructNs(func() error { _, err := entry.mk(); return err }),
		}
		report.Results = append(report.Results, res)
		fmt.Printf("%-18s %12d %15d %15.0f %13.0f\n",
			res.Sketch, res.SizeBits, res.FootprintBytes, res.MeasuredBytes, res.ConstructNs)
	}

	// The tracked signal: auxiliary resident bytes of one S-bitmap under
	// the closed-form schedule vs the tabulated schedule it replaced.
	cfg, err := core.NewConfigNE(memN, memEps)
	if err != nil {
		return err
	}
	closed := core.NewSketch(cfg, seed)
	tabbed := core.NewSketch(core.TabulateConfig(cfg), seed)
	bitmapBytes := (cfg.M() + 7) / 8
	aux := &report.SBitmapAux
	aux.BitmapBytes = bitmapBytes
	aux.ClosedFormAuxBytes = closed.Footprint() - bitmapBytes
	// The tabulated datapoint reconstructs the original implementation's
	// full overhead: the Config rate/estimator tables (16·m bytes, carried
	// by TabulateConfig) PLUS the per-sketch acceptance-threshold table
	// (8·m bytes) that the cached register replaced — today's Sketch never
	// builds it, so it is added analytically.
	aux.TabulatedAuxBytes = tabbed.Footprint() - bitmapBytes + 8*cfg.M()
	aux.Reduction = float64(aux.TabulatedAuxBytes) / float64(aux.ClosedFormAuxBytes)
	fmt.Printf("\nS-bitmap auxiliary state beyond the %d-byte bitmap: %d B closed-form vs %d B tabulated (%.0fx reduction)\n",
		aux.BitmapBytes, aux.ClosedFormAuxBytes, aux.TabulatedAuxBytes, aux.Reduction)

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

// measureLiveBytes returns the live heap bytes one constructed instance
// retains, averaged over memReps instances kept alive across a GC.
func measureLiveBytes(mk func() (any, error)) (float64, error) {
	keep := make([]any, memReps)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range keep {
		c, err := mk()
		if err != nil {
			return 0, err
		}
		keep[i] = c
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	runtime.KeepAlive(keep)
	if delta < 0 {
		delta = 0
	}
	return delta / memReps, nil
}

// measureConstructNs times construction until memMinTime has elapsed and
// returns ns per instance.
func measureConstructNs(mk func() error) float64 {
	start := time.Now()
	n := 0
	for time.Since(start) < memMinTime {
		if err := mk(); err != nil {
			return 0
		}
		n++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}
