package uhash

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/xrand"
)

// batchHashers returns every family under test, flagging which have a
// native batch loop.
func batchHashers() map[string]Hasher {
	return map[string]Hasher{
		"mixer":        NewMixer(7),
		"carterwegman": NewCarterWegman(7),
		"tabulation":   NewTabulation(7),
	}
}

func TestSum128Uint64BatchMatchesPerItem(t *testing.T) {
	r := xrand.New(42)
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	for name, h := range batchHashers() {
		hi := make([]uint64, len(keys))
		lo := make([]uint64, len(keys))
		Sum128Uint64Batch(h, keys, hi, lo)
		for i, k := range keys {
			wh, wl := h.Sum128Uint64(k)
			if hi[i] != wh || lo[i] != wl {
				t.Fatalf("%s: batch[%d] = (%#x, %#x), per-item = (%#x, %#x)", name, i, hi[i], lo[i], wh, wl)
			}
		}
		// nil lo requests only the high words.
		hiOnly := make([]uint64, len(keys))
		Sum128Uint64Batch(h, keys, hiOnly, nil)
		for i := range keys {
			if hiOnly[i] != hi[i] {
				t.Fatalf("%s: hi-only batch[%d] = %#x, want %#x", name, i, hiOnly[i], hi[i])
			}
		}
	}
}

func TestSum128StringBatchMatchesPerItem(t *testing.T) {
	keys := make([]string, 300)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d-%s", i, string(make([]byte, i%40)))
	}
	keys = append(keys, "") // empty string must round-trip too
	for name, h := range batchHashers() {
		hi := make([]uint64, len(keys))
		lo := make([]uint64, len(keys))
		Sum128StringBatch(h, keys, hi, lo)
		for i, k := range keys {
			wh, wl := h.Sum128String(k)
			if hi[i] != wh || lo[i] != wl {
				t.Fatalf("%s: batch[%d] = (%#x, %#x), per-item = (%#x, %#x)", name, i, hi[i], lo[i], wh, wl)
			}
		}
		hiOnly := make([]uint64, len(keys))
		Sum128StringBatch(h, keys, hiOnly, nil)
		for i := range keys {
			if hiOnly[i] != hi[i] {
				t.Fatalf("%s: hi-only batch[%d] = %#x, want %#x", name, i, hiOnly[i], hi[i])
			}
		}
	}
}

func TestMixerImplementsBatchHasher(t *testing.T) {
	var h Hasher = NewMixer(1)
	if _, ok := h.(BatchHasher); !ok {
		t.Fatal("Mixer does not implement BatchHasher")
	}
}

func TestBatch64ChunksAndSums(t *testing.T) {
	h := NewMixer(3)
	keys := make([]uint64, 3*BatchSize+17) // forces several chunks + a tail
	for i := range keys {
		keys[i] = uint64(i)
	}
	var scr Scratch
	seen := 0
	calls := 0
	got := Batch64(h, &scr, keys, func(hi, lo []uint64) int {
		calls++
		if len(hi) != len(lo) || len(hi) > BatchSize {
			t.Fatalf("chunk sizes hi=%d lo=%d", len(hi), len(lo))
		}
		for i := range hi {
			wh, wl := h.Sum128Uint64(keys[seen+i])
			if hi[i] != wh || lo[i] != wl {
				t.Fatalf("chunk item %d hashed wrong", seen+i)
			}
		}
		seen += len(hi)
		return len(hi)
	})
	if got != len(keys) || seen != len(keys) {
		t.Fatalf("Batch64 returned %d, visited %d, want %d", got, seen, len(keys))
	}
	if calls != 4 {
		t.Fatalf("Batch64 made %d sink calls, want 4", calls)
	}
}

func TestBatchStringChunks(t *testing.T) {
	h := NewMixer(3)
	keys := make([]string, BatchSize+5)
	for i := range keys {
		keys[i] = fmt.Sprintf("s%d", i)
	}
	var scr Scratch
	seen := 0
	got := BatchString(h, &scr, keys, func(hi, lo []uint64) int {
		for i := range hi {
			wh, wl := h.Sum128String(keys[seen+i])
			if hi[i] != wh || lo[i] != wl {
				t.Fatalf("chunk item %d hashed wrong", seen+i)
			}
		}
		seen += len(hi)
		return len(hi)
	})
	if got != len(keys) {
		t.Fatalf("BatchString returned %d, want %d", got, len(keys))
	}
}

// TestBatchNilScratchMatchesCallers: a batch call without a Scratch
// borrows a pooled one, and hashes every chunk exactly as it does through
// a caller's, for every hasher family and both item types.
func TestBatchNilScratchMatchesCallers(t *testing.T) {
	keys := make([]uint64, 3*BatchSize+17)
	strs := make([]string, len(keys))
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15
		strs[i] = fmt.Sprintf("k%d", i)
	}
	// record returns a sink that appends every chunk's words to *out.
	record := func(out *[]uint64) func(hi, lo []uint64) int {
		return func(hi, lo []uint64) int {
			*out = append(append(*out, hi...), lo...)
			return len(hi)
		}
	}
	for name, h := range batchHashers() {
		var own, pooled []uint64
		var scr Scratch
		n1 := Batch64(h, &scr, keys, record(&own))
		n2 := Batch64(h, nil, keys, record(&pooled))
		if n1 != n2 || !slices.Equal(own, pooled) {
			t.Errorf("%s: Batch64 with a nil Scratch hashed otherwise than with the caller's", name)
		}
		own, pooled = own[:0], pooled[:0]
		n1 = BatchString(h, &scr, strs, record(&own))
		n2 = BatchString(h, nil, strs, record(&pooled))
		if n1 != n2 || !slices.Equal(own, pooled) {
			t.Errorf("%s: BatchString with a nil Scratch hashed otherwise than with the caller's", name)
		}
	}
}

func BenchmarkSum128Uint64PerItem(b *testing.B) {
	h := NewMixer(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		hi, _ := h.Sum128Uint64(uint64(i))
		sink ^= hi
	}
	_ = sink
}

func BenchmarkSum128Uint64Batch(b *testing.B) {
	h := NewMixer(1)
	keys := make([]uint64, BatchSize)
	hi := make([]uint64, BatchSize)
	lo := make([]uint64, BatchSize)
	b.ResetTimer()
	for rem := b.N; rem > 0; rem -= len(keys) {
		n := len(keys)
		if rem < n {
			n = rem
		}
		for i := 0; i < n; i++ {
			keys[i] = uint64(rem + i)
		}
		h.Sum128Uint64Batch(keys[:n], hi[:n], lo[:n])
	}
}
