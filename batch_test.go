package sbitmap

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/stream"
)

// batchSpecs dimensions one Spec per Kind for the equivalence tests
// (small enough to run fast, large enough that thousands of items change
// state).
func batchSpecs(t testing.TB) map[Kind]Spec {
	t.Helper()
	specs := make(map[Kind]Spec)
	for _, kind := range Kinds() {
		spec := Spec{Kind: kind, Seed: 7}
		switch kind {
		case KindSBitmap:
			spec.N, spec.Eps = 50_000, 0.03
		case KindExact:
			// no dimensioning
		default:
			spec.N, spec.MemoryBits = 50_000, 4096
		}
		specs[kind] = spec
	}
	return specs
}

// batchItems is a duplicate-heavy shuffled workload: first occurrences and
// duplicates interleave, so batch paths must reproduce order-dependent
// state transitions exactly.
func batchItems() []uint64 {
	var items []uint64
	stream.ForEach(stream.NewInterleaved(8_000, 20_000, stream.DupZipf, 11), func(x uint64) {
		items = append(items, x)
	})
	return items
}

// oddBatches splits items into deliberately ragged batch sizes (including
// size 1 and bigger-than-chunk sizes) to exercise chunk boundaries.
func oddBatches(items []uint64) [][]uint64 {
	sizes := []int{1, 3, 17, 255, 256, 257, 1000, 4096}
	var out [][]uint64
	for i, k := 0, 0; i < len(items); k++ {
		n := min(sizes[k%len(sizes)], len(items)-i)
		out = append(out, items[i:i+n])
		i += n
	}
	return out
}

// marshalState serializes a counter, failing the test on error.
func marshalState(t *testing.T, c Counter) []byte {
	t.Helper()
	blob, err := Marshal(c)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return blob
}

// TestAddBatch64EquivalenceAllKinds: for every Kind, the native batch path
// must leave the sketch in a bit-identical state to item-at-a-time
// AddUint64, and report the same changed count.
func TestAddBatch64EquivalenceAllKinds(t *testing.T) {
	items := batchItems()
	for kind, spec := range batchSpecs(t) {
		t.Run(string(kind), func(t *testing.T) {
			ref, err := spec.New()
			if err != nil {
				t.Fatal(err)
			}
			got, err := spec.New()
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := got.(BulkAdder); !ok {
				t.Fatalf("%T does not implement BulkAdder natively", got)
			}
			wantChanged := 0
			for _, x := range items {
				if ref.AddUint64(x) {
					wantChanged++
				}
			}
			gotChanged := 0
			for _, b := range oddBatches(items) {
				gotChanged += AddBatch64(got, b)
			}
			if gotChanged != wantChanged {
				t.Errorf("batch changed %d items, per-item %d", gotChanged, wantChanged)
			}
			if ref.Estimate() != got.Estimate() {
				t.Errorf("estimates diverge: batch %v, per-item %v", got.Estimate(), ref.Estimate())
			}
			if !bytes.Equal(marshalState(t, ref), marshalState(t, got)) {
				t.Error("serialized states differ between batch and per-item ingestion")
			}
		})
	}
}

// TestAddBatchStringEquivalenceAllKinds is the string-key variant; batch
// ingestion must also match the byte-slice Add path (the hashing contract).
func TestAddBatchStringEquivalenceAllKinds(t *testing.T) {
	var keys []string
	stream.ForEach(stream.NewInterleaved(3_000, 8_000, stream.DupUniform, 13), func(x uint64) {
		keys = append(keys, fmt.Sprintf("user-%x", x))
	})
	for kind, spec := range batchSpecs(t) {
		t.Run(string(kind), func(t *testing.T) {
			ref, err := spec.New()
			if err != nil {
				t.Fatal(err)
			}
			got, err := spec.New()
			if err != nil {
				t.Fatal(err)
			}
			wantChanged := 0
			for _, k := range keys {
				if ref.Add([]byte(k)) {
					wantChanged++
				}
			}
			gotChanged := 0
			const bs = 300 // ragged: 8000 % 300 != 0
			for i := 0; i < len(keys); i += bs {
				gotChanged += AddBatchString(got, keys[i:min(i+bs, len(keys))])
			}
			if gotChanged != wantChanged {
				t.Errorf("batch changed %d items, per-item %d", gotChanged, wantChanged)
			}
			if !bytes.Equal(marshalState(t, ref), marshalState(t, got)) {
				t.Error("serialized states differ between AddBatchString and Add")
			}
		})
	}
}

// fallbackOnly wraps a Counter, hiding its BulkAdder implementation so the
// package-level helpers must take the per-item fallback.
type fallbackOnly struct{ c Counter }

func (f fallbackOnly) Add(item []byte) bool       { return f.c.Add(item) }
func (f fallbackOnly) AddUint64(item uint64) bool { return f.c.AddUint64(item) }
func (f fallbackOnly) AddString(item string) bool { return f.c.AddString(item) }
func (f fallbackOnly) Estimate() float64          { return f.c.Estimate() }
func (f fallbackOnly) SizeBits() int              { return f.c.SizeBits() }
func (f fallbackOnly) Footprint() int             { return f.c.Footprint() }
func (f fallbackOnly) Reset()                     { f.c.Reset() }

// TestAddBatchFallback: a foreign Counter without a native batch path goes
// through the item-at-a-time fallback with identical results.
func TestAddBatchFallback(t *testing.T) {
	spec := MustSpec("hll:mbits=4096,seed=9")
	native, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := spec.New()
	if err != nil {
		t.Fatal(err)
	}
	items := batchItems()[:5000]
	nativeChanged := AddBatch64(native, items)
	fallbackChanged := AddBatch64(fallbackOnly{wrapped}, items)
	if nativeChanged != fallbackChanged {
		t.Errorf("native batch changed %d, fallback %d", nativeChanged, fallbackChanged)
	}
	if native.Estimate() != wrapped.Estimate() {
		t.Errorf("estimates diverge: native %v, fallback %v", native.Estimate(), wrapped.Estimate())
	}

	keys := []string{"a", "b", "a", "c", "b", ""}
	n1 := AddBatchString(native, keys)
	n2 := AddBatchString(fallbackOnly{wrapped}, keys)
	if n1 != n2 {
		t.Errorf("string batch: native changed %d, fallback %d", n1, n2)
	}
}

// TestBatchAllocFree: steady-state uint64 batch ingest through the fused
// single-sketch path must not allocate.
func TestBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race (sync.Pool drops entries at random)")
	}
	items := make([]uint64, 4096)
	for i := range items {
		items[i] = uint64(i) * 0x9e3779b97f4a7c15
	}

	sb, err := New(1e6, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sb.AddBatch64(items) // warm the hash scratch
	if n := testing.AllocsPerRun(50, func() { sb.AddBatch64(items) }); n != 0 {
		t.Errorf("SBitmap.AddBatch64 allocates %v per call, want 0", n)
	}
}

// TestBatchEmptyAndTiny: zero-length and single-item batches are valid.
func TestBatchEmptyAndTiny(t *testing.T) {
	sb, err := New(1000, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if n := sb.AddBatch64(nil); n != 0 {
		t.Errorf("empty batch changed %d", n)
	}
	h, err := MustSpec("hll:mbits=4096").New()
	if err != nil {
		t.Fatal(err)
	}
	if n := AddBatch64(h, []uint64{42}); n != 1 {
		t.Errorf("first single-item batch changed %d, want 1", n)
	}
}
