package sbitmap

// Batch-vs-per-item ingestion benches: the numbers behind the README's
// Throughput section. Per-item paths go through the Counter interface —
// the dispatch production callers actually pay — and batch paths through
// BulkAdder.

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/xrand"
)

// batchBenchLen is the per-call batch length of the benches; large enough
// to amortize the per-call overhead, small enough to be a realistic network
// read quantum.
const batchBenchLen = 4096

// benchSBitmap builds the Section 7.1 configuration sketch.
func benchSBitmap(b *testing.B) Counter {
	b.Helper()
	sk, err := NewWithMemory(8000, 1e6)
	if err != nil {
		b.Fatal(err)
	}
	return sk
}

// fillBatch refills buf with consecutive ids starting at next.
func fillBatch(buf []uint64, next uint64) uint64 {
	for i := range buf {
		buf[i] = next
		next++
	}
	return next
}

// benchAdd64 runs the peritem and batch sub-benchmarks of uint64 ingest,
// each into a fresh counter from mk: consecutive ids one at a time, or
// batchBenchLen at a time through AddBatch64.
func benchAdd64(b *testing.B, mk func(*testing.B) Counter) {
	b.Run("peritem", func(b *testing.B) {
		c := mk(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AddUint64(uint64(i))
		}
	})
	b.Run("batch", func(b *testing.B) {
		c := mk(b)
		buf := make([]uint64, batchBenchLen)
		var next uint64
		AddBatch64(c, buf) // warm scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for rem := b.N; rem > 0; {
			n := min(rem, len(buf))
			next = fillBatch(buf[:n], next)
			AddBatch64(c, buf[:n])
			rem -= n
		}
	})
}

// benchAddString is benchAdd64 for string items: 2^16 flow-like keys,
// cycled, one at a time or through AddBatchString.
func benchAddString(b *testing.B, mk func(*testing.B) Counter) {
	keys := make([]string, 1<<16)
	for i := range keys {
		keys[i] = fmt.Sprintf("flow-%x-key-%08x", i%26, i)
	}
	b.Run("peritem", func(b *testing.B) {
		c := mk(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AddString(keys[i&(len(keys)-1)])
		}
	})
	b.Run("batch", func(b *testing.B) {
		c := mk(b)
		b.ReportAllocs()
		b.ResetTimer()
		for rem := b.N; rem > 0; {
			at := (b.N - rem) & (len(keys) - 1)
			n := min(rem, batchBenchLen, len(keys)-at)
			AddBatchString(c, keys[at:at+n])
			rem -= n
		}
	})
}

func BenchmarkBatchAddSBitmap(b *testing.B) { benchAdd64(b, benchSBitmap) }

// BenchmarkBatchAddSBitmapLarge is the same comparison at production
// scale (N = 10^9, ≈1 MiB of bitmap — the "millions of users"
// dimensioning): the bitmap no longer fits in L1/L2, and the batch loop's
// advantage grows because consecutive probes' cache misses overlap where
// the per-item path serializes each miss behind the next item's hash and
// dispatch.
func BenchmarkBatchAddSBitmapLarge(b *testing.B) {
	benchAdd64(b, func(b *testing.B) Counter {
		sk, err := NewWithMemory(1<<23, 1e9)
		if err != nil {
			b.Fatal(err)
		}
		return sk
	})
}

func BenchmarkBatchAddString(b *testing.B) { benchAddString(b, benchSBitmap) }

// BenchmarkBatchAddKinds is the paper's Section 3 cost claim at equal
// memory: uint64 and string ingest, per item and in batches, for the
// S-bitmap and the five sketches of its Section 6 comparison, each at
// 8,000 bits dimensioned for N = 10^6.
func BenchmarkBatchAddKinds(b *testing.B) {
	for _, kind := range []Kind{KindSBitmap, KindHLL, KindLogLog, KindFM, KindLinearCount, KindMRBitmap} {
		mk := func(b *testing.B) Counter {
			c, err := Spec{Kind: kind, N: 1e6, MemoryBits: 8000}.New()
			if err != nil {
				b.Fatal(err)
			}
			return c
		}
		b.Run(string(kind), func(b *testing.B) {
			b.Run("uint64", func(b *testing.B) { benchAdd64(b, mk) })
			b.Run("string", func(b *testing.B) { benchAddString(b, mk) })
		})
	}
}

// BenchmarkBatchAddStore measures keyed batch ingest at the sketchd
// benchmark's scale: heapKeys user-%06x keys on its S-bitmap spec, each
// record's key drawn at random, so nearly every record probes a
// different per-key sketch — a cache miss. One op is one batch call;
// ns/rec divides by the batch length. Run with -cpu 1,2 to compare the
// calling goroutine draining alone with helpers sharing the drain.
func BenchmarkBatchAddStore(b *testing.B) {
	const traceLen = 1 << 19
	keys := make([]string, heapKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%06x", i)
	}
	r := xrand.New(14)
	tk := make([]string, traceLen)
	t64 := make([]uint64, traceLen)
	tS := make([]string, traceLen)
	for i := range tk {
		tk[i] = keys[r.Intn(len(keys))]
		t64[i] = r.Uint64()
		tS[i] = strconv.FormatUint(t64[i], 36)
	}
	spec := MustSpec("sbitmap:n=1e4,eps=0.1")
	s64, err := NewStore[string](spec)
	if err != nil {
		b.Fatal(err)
	}
	sS, err := NewStore[string](spec)
	if err != nil {
		b.Fatal(err)
	}
	s64.AddBatch64(keys, make([]uint64, len(keys))) // materialize every key
	sS.AddBatchString(keys, make([]string, len(keys)))
	for _, n := range []int{256, 1024, 8192} {
		b.Run(fmt.Sprintf("uint64/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				at := i * n % traceLen
				s64.AddBatch64(tk[at:at+n], t64[at:at+n])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
		b.Run(fmt.Sprintf("string/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				at := i * n % traceLen
				sS.AddBatchString(tk[at:at+n], tS[at:at+n])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
	}
}
