package sbitmap_test

// This file is the benchmark face of the reproduction harness: one
// Benchmark per table/figure of the paper (each invocation regenerates the
// artifact at smoke fidelity and reports sketch updates/sec through the
// whole experiment pipeline), plus per-sketch update-throughput benches
// that back the paper's "similar or less computational cost" claim
// (Section 3, last paragraph).
//
// Full-fidelity regeneration is cmd/sbench's job (`sbench -run all -full`);
// benches keep b.N iterations meaningful by fixing the per-iteration work.

import (
	"fmt"
	"io"
	"testing"

	sbitmap "repro"
	"repro/internal/experiment"
)

// benchOptions keeps one bench iteration around a second of work.
func benchOptions() experiment.Options {
	return experiment.Options{Seed: 1, CellBudget: 150_000, MinReps: 10, MaxReps: 60}
}

// runExperiment is the shared body of the per-artifact benches.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiment.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B)   { runExperiment(b, "fig2") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8") }

func BenchmarkAsymptotics(b *testing.B) { runExperiment(b, "asymptotics") }
func BenchmarkTheoryExact(b *testing.B) { runExperiment(b, "theory_exact") }

func BenchmarkAblationRates(b *testing.B) { runExperiment(b, "ablation_rates") }
func BenchmarkAblationTrunc(b *testing.B) { runExperiment(b, "ablation_trunc") }
func BenchmarkAblationHash(b *testing.B)  { runExperiment(b, "ablation_hash") }
func BenchmarkAblationD(b *testing.B)     { runExperiment(b, "ablation_d") }

// --- update-throughput benches (the computational-cost comparison) ---

// benchCounters builds every sketch under the Section 7.1 configuration
// (m = 8000 bits, N = 10^6).
func benchCounters(b *testing.B) map[string]sbitmap.Counter {
	b.Helper()
	sb, err := sbitmap.NewWithMemory(8000, 1e6)
	if err != nil {
		b.Fatal(err)
	}
	build := func(spec string) sbitmap.Counter {
		c, err := sbitmap.MustSpec(spec).New()
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	return map[string]sbitmap.Counter{
		"SBitmap":     sb,
		"HyperLogLog": build("hll:mbits=8000"),
		"LogLog":      build("loglog:mbits=8000"),
		"MRBitmap":    build("mrbitmap:mbits=8000,n=1e6"),
		"LinearCount": build("linearcount:mbits=8000"),
		"FM":          build("fm:mbits=8000"),
	}
}

// BenchmarkUpdateDistinct measures Add cost on an all-distinct stream
// (every item is new — the worst case for bucket updates).
func BenchmarkUpdateDistinct(b *testing.B) {
	for name, c := range benchCounters(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.AddUint64(uint64(i))
			}
		})
	}
}

// BenchmarkUpdateDuplicates measures Add cost on an all-duplicate stream
// (the common case on real traffic: one hash, one probe, no write).
func BenchmarkUpdateDuplicates(b *testing.B) {
	for name, c := range benchCounters(b) {
		b.Run(name, func(b *testing.B) {
			for i := uint64(0); i < 100_000; i++ {
				c.AddUint64(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.AddUint64(uint64(i) % 100_000)
			}
		})
	}
}

// BenchmarkUpdateBytes measures the byte-key path with realistic key sizes
// (16-byte flow tuples).
func BenchmarkUpdateBytes(b *testing.B) {
	for name, c := range benchCounters(b) {
		b.Run(name, func(b *testing.B) {
			key := make([]byte, 16)
			b.ReportAllocs()
			b.SetBytes(16)
			for i := 0; i < b.N; i++ {
				key[0] = byte(i)
				key[1] = byte(i >> 8)
				key[2] = byte(i >> 16)
				c.Add(key)
			}
		})
	}
}

// BenchmarkEstimate measures estimate extraction (done once per reporting
// interval in production).
func BenchmarkEstimate(b *testing.B) {
	for name, c := range benchCounters(b) {
		b.Run(name, func(b *testing.B) {
			for i := uint64(0); i < 100_000; i++ {
				c.AddUint64(i)
			}
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink = c.Estimate()
			}
			_ = sink
		})
	}
}

// BenchmarkDimensioning measures the one-time configuration cost of
// solving Equation (7) and building the rate/estimator tables.
func BenchmarkDimensioning(b *testing.B) {
	for _, n := range []float64{1e4, 1e6} {
		b.Run(fmt.Sprintf("N=%.0e", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sbitmap.New(n, 0.01); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMarshal measures sketch serialization round-trips.
func BenchmarkMarshal(b *testing.B) {
	sk, err := sbitmap.NewWithMemory(8000, 1e6)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < 100_000; i++ {
		sk.AddUint64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob, err := sk.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sbitmap.Unmarshal(blob); err != nil {
			b.Fatal(err)
		}
	}
}
