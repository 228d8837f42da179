package sbitmap

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/xrand"
)

// forceHeapCounters gives a new, empty store slot tables of heap
// counters, so every key's counter is a heap counter of its base spec (in
// a heap ring, on a windowed store): the layout of kinds without a run
// view, and the reference the sketches kept in words are checked
// against.
func forceHeapCounters[K StoreKey](s *Store[K]) {
	for i := range s.stripes {
		s.stripes[i].tab = newSlotTable[K](s.src, s.win, false, s.isStr)
	}
}

// TestStoreSlabEquivalence is the inline sketches' safety rail: the same
// records through an inline S-bitmap, HyperLogLog or LogLog store and a
// heap-counter one (forceHeapCounters) must marshal to identical bytes —
// sketches kept in slots change where state lives, never what it is. The
// workload mixes scattered singleton runs with long same-key runs (the
// BulkAdder batch path) and crosses several chunk and index growths.
func TestStoreSlabEquivalence(t *testing.T) {
	keys, items := keyedWorkload(1500, 20000, 11)
	// Append a few long single-key runs so runs ≥ storeRunBatchMin take
	// the BulkAdder batch path.
	for run := 0; run < 4; run++ {
		k := keys[run*7]
		for i := 0; i < 2*storeRunBatchMin; i++ {
			keys = append(keys, k)
			items = append(items, uint64(run)<<32|uint64(i%40))
		}
	}
	strKeys := make([]string, len(keys))
	strItems := make([]string, len(items))
	for i := range keys {
		strKeys[i] = fmt.Sprintf("key-%x", keys[i])
		strItems[i] = fmt.Sprintf("item-%x", items[i])
	}
	for _, tc := range []struct{ prefix, spec string }{
		{"", "sbitmap:n=1e4,eps=0.1,seed=3"},
		{"hll/", "hll:mbits=512,seed=3"},
		{"loglog/", "loglog:mbits=512,seed=3"},
	} {
		spec := MustSpec(tc.spec)
		slabEquivalence(t, tc.prefix, spec, keys, items, strKeys, strItems)
	}
}

func slabEquivalence(t *testing.T, prefix string, spec Spec, keys, items []uint64, strKeys, strItems []string) {
	t.Run(prefix+"uint64", func(t *testing.T) {
		slab, err := NewStore[uint64](spec)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewStore[uint64](spec)
		if err != nil {
			t.Fatal(err)
		}
		forceHeapCounters(plain)
		for i := 0; i < len(keys); i += 777 { // uneven batch sizes
			end := min(i+777, len(keys))
			slab.AddBatch64(keys[i:end], items[i:end])
		}
		for i := range keys {
			plain.AddUint64(keys[i], items[i])
		}
		assertStoresIdentical(t, slab, plain)
	})

	t.Run(prefix+"string", func(t *testing.T) {
		slab, err := NewStore[string](spec)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewStore[string](spec)
		if err != nil {
			t.Fatal(err)
		}
		forceHeapCounters(plain)
		slab.AddBatchString(strKeys, strItems)
		plain.AddBatchString(strKeys, strItems)
		assertStoresIdentical(t, slab, plain)
	})
}

// boundedSpecs are the bounded-store rails' specs: one of each layout of
// words — inline S-bitmaps, inline HyperLogLogs and run rings — and
// LogLog's inline registers and run rings.
var boundedSpecs = []string{
	"sbitmap:n=1e4,eps=0.1",
	"hll:mbits=512",
	"hll:mbits=512/windowed(width=1m,ring=5)",
	"loglog:mbits=512",
	"loglog:mbits=512/windowed(width=1m,ring=5)",
}

// TestBoundedStoreKeepsWords: a store's kind alone decides its layout, so
// a WithMaxKeys store of a kind with a run view keeps its sketches in
// words like an unbounded one, and eviction holds Len within the limit
// plus the stripe count.
func TestBoundedStoreKeepsWords(t *testing.T) {
	for _, spec := range boundedSpecs {
		s, err := NewStore[uint64](MustSpec(spec), WithMaxKeys(64), WithStripes(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.stripes {
			if !s.stripes[i].tab.words() {
				t.Fatalf("%s: stripe %d keeps heap counters under WithMaxKeys", spec, i)
			}
		}
		keys, items := keyedWorkload(500, 8000, 5)
		s.AddBatch64(keys, items)
		if got := s.Len(); got > 64+4 { // limit + stripe-count transient overshoot
			t.Fatalf("%s: Len() = %d, want ≤ 68", spec, got)
		}
		checkSlotTables(t, s)
	}
}

// TestBoundedStoreMatchesHeapTwin is the bounded stores' bit-identity
// rail. Single-record adds go to a bounded store of words with an OnEvict
// hook and to an unbounded twin of heap counters (forceHeapCounters). At
// each eviction the twin's counter for the victim must marshal to the
// bytes of the copy the hook got, and the twin then drops the victim, so
// the two hold the same keys throughout. They must stay identical key by
// key after ingest, after Remove, and restored through UnmarshalStore and
// through RestoreStripe; and every copy the hook got must outlive its
// slot unchanged.
func TestBoundedStoreMatchesHeapTwin(t *testing.T) {
	const nKeys, limit, stripes = 400, 64, 4
	for _, text := range boundedSpecs {
		t.Run(text, func(t *testing.T) {
			spec := MustSpec(text)
			s, err := NewStore[string](spec, WithMaxKeys(limit), WithStripes(stripes))
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewStore[string](spec, WithStripes(stripes))
			if err != nil {
				t.Fatal(err)
			}
			forceHeapCounters(twin)
			type copied struct {
				c    Counter
				blob []byte
			}
			var gone []copied
			s.OnEvict(func(key string, c Counter) {
				blob, err := Marshal(c)
				if err != nil {
					t.Fatalf("evicted %q: %v", key, err)
				}
				want, err := storeBlob(twin, key)
				if err != nil || !bytes.Equal(blob, want) {
					t.Fatalf("evicted %q: the hook's copy differs from the twin's counter (err %v)", key, err)
				}
				twin.Remove(key)
				gone = append(gone, copied{c, blob})
			})
			r := xrand.New(3)
			epoch := time.Unix(1_700_000_000, 0)
			for i := range 6000 {
				key := fmt.Sprintf("k%d", r.Intn(nKeys))
				ts := epoch.Add(time.Duration(i/400) * time.Minute)
				s.AddUint64At(ts, key, uint64(i))
				twin.AddUint64At(ts, key, uint64(i))
			}
			if len(gone) == 0 || s.Len() > limit+stripes {
				t.Fatalf("%d evictions, Len %d: want evictions within %d keys", len(gone), s.Len(), limit+stripes)
			}
			checkSlotTables(t, s)
			assertStoresIdentical(t, s, twin)
			for i := range nKeys / 4 {
				key := fmt.Sprintf("k%d", 4*i)
				if x, y := s.Remove(key), twin.Remove(key); x != y {
					t.Fatalf("Remove(%q): %v, twin %v", key, x, y)
				}
			}
			assertStoresIdentical(t, s, twin)
			assertStoresIdentical(t, twin, s)

			snap, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			back, err := UnmarshalStore[string](snap, WithMaxKeys(limit), WithStripes(stripes))
			if err != nil {
				t.Fatal(err)
			}
			assertStoresIdentical(t, back, twin)
			blobs, _, err := s.MarshalStripes(0)
			if err != nil {
				t.Fatal(err)
			}
			twinBlobs, _, err := twin.MarshalStripes(0)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := NewStore[string](spec, WithMaxKeys(limit), WithStripes(3))
			if err != nil {
				t.Fatal(err)
			}
			restoredTwin, err := NewStore[string](spec, WithStripes(3))
			if err != nil {
				t.Fatal(err)
			}
			forceHeapCounters(restoredTwin)
			for _, b := range blobs {
				if _, err := restored.RestoreStripe(b); err != nil {
					t.Fatal(err)
				}
			}
			for _, b := range twinBlobs {
				if _, err := restoredTwin.RestoreStripe(b); err != nil {
					t.Fatal(err)
				}
			}
			checkSlotTables(t, restored)
			checkSlotTables(t, restoredTwin)
			assertStoresIdentical(t, restored, twin)
			assertStoresIdentical(t, restoredTwin, s)
			for _, g := range gone {
				if blob, err := Marshal(g.c); err != nil || !bytes.Equal(blob, g.blob) {
					t.Fatalf("an evicted copy changed after its eviction (err %v)", err)
				}
			}
		})
	}
}

// TestBoundedStoreEvictionAllocFree is the bounded stores' allocation
// rail: at steady eviction with no hook, a new key takes the victim's
// memory — its slot, and on a windowed store its run — so materializing
// it allocates nothing. With a hook, the copy the hook gets costs the
// counter record and its words, which share the store's read-only state
// (2 allocations), or a heap ring and its entries with one copied
// sub-window (4).
func TestBoundedStoreEvictionAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const limit = 1024
	for i, spec := range boundedSpecs {
		s, err := NewStore[uint64](MustSpec(spec), WithStripes(1), WithMaxKeys(limit))
		if err != nil {
			t.Fatal(err)
		}
		next := uint64(0)
		add := func() {
			s.AddUint64(next, next)
			next++
		}
		for next < 2*limit {
			add()
		}
		allocs := testing.AllocsPerRun(1000, add)
		t.Logf("%s: %.2f allocations per new key at steady eviction", spec, allocs)
		if allocs != 0 {
			t.Errorf("%s: %.2f allocations per new key at steady eviction, want 0", spec, allocs)
		}
		var kept Counter
		s.OnEvict(func(_ uint64, c Counter) { kept = c })
		hookAllocs, want := testing.AllocsPerRun(1000, add), []float64{3, 3, 4, 2, 4}[i]
		t.Logf("%s: %.2f allocations per new key with a hook", spec, hookAllocs)
		if hookAllocs > want || kept == nil {
			t.Errorf("%s: %.2f allocations per new key with a hook, want ≤ %.0f", spec, hookAllocs, want)
		}
		if s.Len() != limit {
			t.Errorf("%s: Len %d, want %d", spec, s.Len(), limit)
		}
	}
}

// TestStoreClonesMaterializedStringKeys: zero-copy ingest paths hand the
// store keys aliasing a reusable frame buffer; the store must not retain
// that memory, with inline sketches (slab=true) or heap counters, both of
// which copy keys into the key log. Mutating the caller's backing bytes
// after ingest must not corrupt the stored keys.
func TestStoreClonesMaterializedStringKeys(t *testing.T) {
	for _, slab := range []bool{true, false} {
		t.Run(fmt.Sprintf("slab=%v", slab), func(t *testing.T) {
			s, err := NewStore[string](MustSpec("sbitmap:n=1e4,eps=0.1"))
			if err != nil {
				t.Fatal(err)
			}
			if !slab {
				forceHeapCounters(s)
			}
			buf := []byte("flow-a")
			alias := unsafe.String(&buf[0], len(buf)) // what a zero-copy decoder produces
			s.AddBatchString([]string{alias}, []string{"x"})
			s.AddString(alias, "y")
			copy(buf, "QQQQQQ") // the wire listener reusing its frame buffer
			if _, ok := s.Estimate("flow-a"); !ok {
				t.Fatalf("key flow-a lost after caller reused the key's backing bytes")
			}
			if _, ok := s.Estimate("QQQQQQ"); ok {
				t.Fatalf("store retained the caller's mutable backing bytes as a key")
			}
			s.ForEach(func(k string, _ Counter) bool {
				if k != "flow-a" {
					t.Fatalf("stored key %q, want %q", k, "flow-a")
				}
				return true
			})
		})
	}
}

// TestSBitmapArenaEquivalence: sketches a slot table holds across its
// chunk doublings (4, 8, 16, 32 slots) and index growths are
// bit-identical to Spec.New's under interleaved ingest, per item and
// through the batch path — no cross-talk between
// neighboring slots or through the state they share.
func TestSBitmapArenaEquivalence(t *testing.T) {
	spec := MustSpec("sbitmap:n=1e4,eps=0.1,seed=5")
	s, err := NewStore[uint64](spec, WithStripes(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	heaped := make([]Counter, n)
	for i := range heaped {
		if heaped[i], err = spec.New(); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 300; round++ {
		for i := range heaped {
			item := uint64(round*31+i*7) % 900 // duplicates included
			if x, y := s.AddUint64(uint64(i), item), heaped[i].AddUint64(item); x != y {
				t.Fatalf("counter %d round %d: slot changed=%v heap changed=%v", i, round, x, y)
			}
		}
	}
	for i := range heaped {
		keys := make([]uint64, 2*storeRunBatchMin)
		batch := make([]uint64, len(keys))
		for j := range keys {
			keys[j], batch[j] = uint64(i), uint64(j*i)^1<<40
		}
		if x, y := s.AddBatch64(keys, batch), heaped[i].(BulkAdder).AddBatch64(batch); x != y {
			t.Fatalf("counter %d: batch changed %d (slot) vs %d (heap)", i, x, y)
		}
		sb, err := storeBlob(s, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		hb, err := Marshal(heaped[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, hb) {
			t.Fatalf("counter %d: serialized state diverged", i)
		}
	}
}

// TestSBitmapArenaAllocAmortized: materializing keys in a slot table
// allocates per chunk, never per key — a full chunk of new keys costs the
// chunk's doublings from slotChunkMin to slotChunk slots, plus at most one
// index doubling and one growth of the chunk list.
func TestSBitmapArenaAllocAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	s, err := NewStore[uint64](MustSpec("sbitmap:n=1e4,eps=0.1"), WithStripes(1))
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(0)
	addChunk := func() {
		for range slotChunk {
			s.AddUint64(next, next)
			next++
		}
	}
	addChunk()
	want := bits.Len(slotChunk/slotChunkMin) + 2
	if allocs := testing.AllocsPerRun(20, addChunk); allocs > float64(want) {
		t.Errorf("%.1f allocs per %d new keys, want ≤ %d (chunk doublings, index, chunk list)", allocs, slotChunk, want)
	}
}

// TestStoreBatchIngestAllocFree pins the steady-state contract the wire
// listener's decode+add path depends on: once a store's keys and scratch
// are warm, keyed batch ingest performs zero heap allocations — for
// scattered batches and for long runs through the BulkAdder path, whose
// hash buffers the call borrows, alike.
func TestStoreBatchIngestAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	spec := MustSpec("sbitmap:n=1e4,eps=0.1")
	nKeys := 256
	keys := make([]uint64, 0, nKeys+2*storeRunBatchMin)
	items := make([]uint64, 0, cap(keys))
	for i := 0; i < nKeys; i++ {
		keys = append(keys, uint64(i)*0x9e37+1)
		items = append(items, uint64(i))
	}
	for i := 0; i < 2*storeRunBatchMin; i++ { // one long run: BulkAdder path
		keys = append(keys, keys[0])
		items = append(items, uint64(i))
	}
	strKeys := make([]string, len(keys))
	strItems := make([]string, len(items))
	for i := range keys {
		strKeys[i] = fmt.Sprintf("key-%x", keys[i])
		strItems[i] = fmt.Sprintf("item-%x", items[i])
	}

	s64, err := NewStore[uint64](spec)
	if err != nil {
		t.Fatal(err)
	}
	s64.AddBatch64(keys, items) // materialize keys, warm scratch + pools
	if allocs := testing.AllocsPerRun(10, func() {
		s64.AddBatch64(keys, items)
	}); allocs != 0 {
		t.Errorf("warm Store.AddBatch64: %.1f allocs/op, want 0", allocs)
	}

	sStr, err := NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	sStr.AddBatchString(strKeys, strItems)
	if allocs := testing.AllocsPerRun(10, func() {
		sStr.AddBatchString(strKeys, strItems)
	}); allocs != 0 {
		t.Errorf("warm Store.AddBatchString: %.1f allocs/op, want 0", allocs)
	}
}

// heapKeys is the key population of the heap rails: the 131,072 user
// ids of the sketchd benchmark's tcp-ingest workload.
const heapKeys = 131072

// heapBytes returns the live heap build's result retains: the HeapAlloc
// delta across build, each side read after two collections (the second
// empties sync.Pool's victim cache, so pooled batch scratch does not
// count).
func heapBytes(build func() any) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// heapStore builds the rails' store, with opts — every key gets 8
// distinct items, fed as 8,192-record batches like the benchmark's wire
// frames — and returns it with its live heap per key.
func heapStore(t *testing.T, opts ...StoreOption) (*Store[string], float64) {
	return heapStoreOf(t, MustSpec("sbitmap:n=1e4,eps=0.1"), opts...)
}

// heapStoreOf is heapStore for a store of spec.
func heapStoreOf(t *testing.T, spec Spec, opts ...StoreOption) (*Store[string], float64) {
	keys := make([]string, heapKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%06x", i)
	}
	const perKey, batch = 8, 8192
	bk := make([]string, 0, batch)
	bi := make([]uint64, 0, batch)
	var st *Store[string]
	heap := heapBytes(func() any {
		s, err := NewStore[string](spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < perKey*heapKeys; r++ {
			bk = append(bk, keys[r%heapKeys])
			bi = append(bi, uint64(r))
			if len(bk) == batch {
				s.AddBatch64(bk, bi)
				bk, bi = bk[:0], bi[:0]
			}
		}
		st = s
		return s
	})
	runtime.KeepAlive(keys) // inputs freed mid-measurement would offset the store
	return st, heap / heapKeys
}

// windowedHeapStore builds the windowed heap rails' store: 65,536
// `user-%06x` keys drawn by Zipf(1.1) rank (ranks permuted over the keys,
// so hot keys scatter over stripes), 2,560 batches of 1,024 fresh items,
// batch b stamped epoch + b seconds — 43 one-minute sub-windows through
// rings of 5. It returns the store with its live heap per key.
func windowedHeapStore(t *testing.T) (*Store[string], float64) {
	const nKeys, batches, batchLen = 1 << 16, 2560, 1024
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%06x", i)
	}
	r := xrand.New(7)
	perm := r.Perm(nKeys)
	zipf := xrand.NewZipf(r, 1.1, nKeys)
	bk := make([]string, batchLen)
	bi := make([]uint64, batchLen)
	epoch := time.Unix(1_700_000_000, 0)
	var st *Store[string]
	heap := heapBytes(func() any {
		s, err := NewStore[string](MustSpec("hll:mbits=512/windowed(width=1m,ring=5)"))
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batches; b++ {
			for i := range bk {
				bk[i] = keys[perm[zipf.Next()]]
				bi[i] = uint64(b*batchLen + i)
			}
			s.AddBatch64At(epoch.Add(time.Duration(b)*time.Second), bk, bi)
		}
		st = s
		return s
	})
	// Inputs freed mid-measurement would offset the store.
	runtime.KeepAlive(keys)
	runtime.KeepAlive(perm)
	runtime.KeepAlive(zipf)
	return st, heap / float64(st.Len())
}

// TestStoreHeapPerKey is the heap rail: an S-bitmap key costs its slot
// (tag, key reference, inline key bytes, fill level, threshold and bitmap
// words), its share of the stripe's index and its bytes in the key log —
// not a chain of per-key objects.
func TestStoreHeapPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	_, heap := heapStore(t)
	t.Logf("cold-built store: %.1f B/key of live heap", heap)
	if heap > 119 {
		t.Errorf("cold-built store holds %.1f B/key of live heap, want ≤ 119", heap)
	}
}

// TestStoreFootprintMatchesLiveHeap: Footprint, the store's own
// arithmetic over its capacities, is what the heap rails measure — within
// 5% per key, for the inline S-bitmap store, unbounded and bounded (a key
// limit above the key count), and the windowed store of run rings alike —
// so the bytes-per-key figure a server reports is the memory its keys
// hold. After Reset the heap keeps no more of the store
// than the empty store's Footprint (plus 64 KiB of slack): the keys'
// memory goes back, none of it pinned by a counter view still bound to a
// slot.
func TestStoreFootprintMatchesLiveHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	plain := func(t *testing.T) (*Store[string], float64) { return heapStore(t) }
	bounded := func(t *testing.T) (*Store[string], float64) { return heapStore(t, WithMaxKeys(200000)) }
	for _, build := range []func(*testing.T) (*Store[string], float64){plain, bounded, windowedHeapStore} {
		st, heap := build(t)
		fp := float64(st.Footprint()) / float64(st.Len())
		t.Logf("%s: Footprint %.1f B/key, live heap %.1f B/key", st.Spec(), fp, heap)
		if fp < 0.95*heap || fp > 1.05*heap {
			t.Errorf("%s: Footprint reports %.1f B/key, live heap %.1f B/key: more than 5%% apart", st.Spec(), fp, heap)
		}
		var reset *Store[string]
		kept := heapBytes(func() any {
			reset, _ = build(t)
			reset.Reset()
			return reset
		})
		empty := float64(reset.Footprint())
		t.Logf("%s after Reset: %.0f B of live heap, Footprint %.0f B", st.Spec(), kept, empty)
		if kept > empty+64<<10 {
			t.Errorf("%s: after Reset the store still holds %.0f B of live heap, its Footprint %.0f B", st.Spec(), kept, empty)
		}
	}
}

// TestWindowedStoreHeapPerKey is the windowed heap rail: a key is its
// slot, with one 4 B run reference per sub-window, and holds only the
// sub-windows a query can still read, each a 56 B run of its stripe's
// pool (two header words and 64 registers packed in 5 words) — no heap
// object per key or per sub-window (389 B/key with a heap ring and a heap
// HyperLogLog per sub-window; 222 B/key with one byte per register).
// SizeBits stays the paper's 5 bits per register of every live sub-window.
func TestWindowedStoreHeapPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	st, heap := windowedHeapStore(t)
	t.Logf("%d keys: %.1f B/key of live heap", st.Len(), heap)
	if heap > 190 {
		t.Errorf("windowed store holds %.1f B/key of live heap, want ≤ 190", heap)
	}
	runs := 0
	for i := range st.stripes {
		runs += st.stripes[i].tab.rings.runs
	}
	if got, want := st.SizeBits(), 320*runs; got != want {
		t.Errorf("SizeBits %d, want 320 per live sub-window = %d", got, want)
	}
}

// TestHLLStoreHeapPerKey is the inline register heap rail: an
// hll:mbits=512 key's slot holds its 64 registers packed at 5 bits, a run
// of 5 words — its SizeBits/8 = 40 B — so a key costs that run, its slot
// header, its share of the index and its key-log bytes (117.5 B/key with
// one byte per register), and Footprint is its live heap within 5%. A
// loglog:mbits=512 key keeps the same registers, so the same holds for
// it (223 B/key as a heap counter with one byte per register).
func TestHLLStoreHeapPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	for _, spec := range []string{"hll:mbits=512", "loglog:mbits=512"} {
		s, heap := heapStoreOf(t, MustSpec(spec))
		for i := range s.stripes {
			if tab := s.stripes[i].tab; !tab.inline || tab.slots.stride-tab.hdr != 5 {
				t.Fatalf("%s: stripe %d: a key's run is %d words inline (%v), want 5", spec, i, tab.slots.stride-tab.hdr, tab.inline)
			}
		}
		if got, want := s.SizeBits(), 320*s.Len(); got != want {
			t.Errorf("%s: SizeBits %d, want 320 per key = %d", spec, got, want)
		}
		fp := float64(s.Footprint()) / heapKeys
		t.Logf("%s: %d keys: Footprint %.1f B/key, live heap %.1f B/key", spec, s.Len(), fp, heap)
		if fp < 0.95*heap || fp > 1.05*heap {
			t.Errorf("%s: Footprint reports %.1f B/key, live heap %.1f B/key: more than 5%% apart", spec, fp, heap)
		}
		if heap > 100 {
			t.Errorf("%s store holds %.1f B/key of live heap, want ≤ 100", spec, heap)
		}
	}
}

// TestStoreBatchRunsKeepNoBuffers is the rail for the batch path of the
// counters a store keeps: a batch borrows its hash buffers for the call,
// so a counter keeps none. For LogLog, whose registers a store keeps in
// words, and for each fixed-size heap kind, a store of 16,384 keys fed
// one 64-record run per key — every run through the counter's batch path
// — holds the same Footprint as its twin fed the same records one at a
// time, and the same live heap per key within 5%.
func TestStoreBatchRunsKeepNoBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	const nKeys, run, batch = 1 << 14, storeRunBatchMin, 8192
	keys := make([]uint64, nKeys*run)
	items := make([]uint64, nKeys*run)
	for i := range keys {
		keys[i] = uint64(i / run)
		items[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for _, raw := range []string{
		"loglog:mbits=512",
		"fm:mbits=512",
		"linearcount:mbits=512",
		"virtualbitmap:mbits=512,n=1e4",
		"mrbitmap:mbits=2048,n=1e4",
		"adaptive:mbits=1024",
	} {
		build := func(feed func(s *Store[uint64])) (*Store[uint64], float64) {
			var st *Store[uint64]
			heap := heapBytes(func() any {
				s, err := NewStore[uint64](MustSpec(raw))
				if err != nil {
					t.Fatal(err)
				}
				feed(s)
				st = s
				return s
			})
			return st, heap / nKeys
		}
		single, singleHeap := build(func(s *Store[uint64]) {
			for i, k := range keys {
				s.AddUint64(k, items[i])
			}
		})
		runs, runsHeap := build(func(s *Store[uint64]) {
			for lo := 0; lo < len(keys); lo += batch {
				s.AddBatch64(keys[lo:lo+batch], items[lo:lo+batch])
			}
		})
		fs, fr := single.Footprint(), runs.Footprint()
		t.Logf("%s: Footprint %.1f → %.1f B/key, live heap %.1f → %.1f B/key (singletons → runs)",
			raw, float64(fs)/nKeys, float64(fr)/nKeys, singleHeap, runsHeap)
		if fr != fs {
			t.Errorf("%s: Footprint %d B after 64-record runs, %d B after the same records singly", raw, fr, fs)
		}
		if runsHeap < 0.95*singleHeap || runsHeap > 1.05*singleHeap {
			t.Errorf("%s: live heap %.1f B/key after 64-record runs, %.1f B/key after the same records singly: more than 5%% apart",
				raw, runsHeap, singleHeap)
		}
	}
	runtime.KeepAlive(keys) // inputs freed mid-measurement would offset the stores
	runtime.KeepAlive(items)
}

// TestStoreHasherSharedPerKind is the hasher rail: a store resolves its
// spec's hasher once, and every counter it builds or decodes hashes
// through it — a heap counter, a sub-window's, or a sketch kept in words
// — so a key costs the same under any hash family. For each kind, a
// hash=tabulation store of 16,384 uint64 keys, each given 8 distinct
// items one add at a time, holds its default-hash twin's live heap per
// key within 5% (a heap counter that built its own tabulation hasher held
// about 40 KiB). It logs each kind's SizeBits/8, Footprint and live heap
// per key.
func TestStoreHasherSharedPerKind(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	const nKeys, perKey = 1 << 14, 8
	perKeyBytes := func(spec Spec) (sizeBytes, footprint, heap float64) {
		var st *Store[uint64]
		heap = heapBytes(func() any {
			s, err := NewStore[uint64](spec)
			if err != nil {
				t.Fatal(err)
			}
			for k := range uint64(nKeys) {
				for j := range uint64(perKey) {
					s.AddUint64(k, (k*perKey+j)*0x9e3779b97f4a7c15)
				}
			}
			st = s
			return s
		})
		return float64(st.SizeBits()) / 8 / nKeys, float64(st.Footprint()) / nKeys, heap / nKeys
	}
	for _, raw := range []string{
		"sbitmap:n=1e4,eps=0.1",
		"hll:mbits=512",
		"loglog:mbits=512",
		"fm:mbits=512",
		"linearcount:mbits=512",
		"virtualbitmap:mbits=512,n=1e4",
		"mrbitmap:mbits=2048,n=1e4",
		"adaptive:mbits=1024",
		"exact",
		"fm:mbits=512/windowed(width=1m,ring=5)",
	} {
		spec := MustSpec(raw)
		size, fp, heap := perKeyBytes(spec)
		spec.Hash = "tabulation"
		_, tfp, theap := perKeyBytes(spec)
		t.Logf("%s: SizeBits/8 %.1f B/key; Footprint %.1f, live heap %.1f B/key; with hash=tabulation %.1f, %.1f B/key",
			raw, size, fp, heap, tfp, theap)
		if theap < 0.95*heap || theap > 1.05*heap {
			t.Errorf("%s: live heap %.1f B/key with hash=tabulation, %.1f B/key with the default hash: more than 5%% apart",
				raw, theap, heap)
		}
	}
}

// TestStoreRestoreIntoArena: restoring a snapshot decodes every S-bitmap
// straight into a slot of the stripe's table, so the restored store is
// identical to the original key by key (every counter marshals to the same
// bytes) and no bigger in memory than its cold-built twin — through the
// whole-store snapshot and the per-stripe checkpoint alike. (Snapshots
// are compared key by key, not byte by byte: a restored table lays its
// slots out in snapshot order, not ingest order.)
func TestStoreRestoreIntoArena(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	orig, cold := heapStore(t)
	assertRestoreHeap(t, orig, cold)
}

// TestWindowedStoreRestoreHeap: a restored windowed HLL store matches the
// original key by key (watermark included, so every window estimate
// does) and builds its sub-windows under the store's shared state, so it
// holds no more than its cold-built twin — through the whole-store
// snapshot and the per-stripe checkpoint alike.
func TestWindowedStoreRestoreHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	orig, cold := windowedHeapStore(t)
	assertRestoreHeap(t, orig, cold)
}

// assertRestoreHeap restores orig through UnmarshalStore and through
// RestoreStripe, and requires each restored store to be key-by-key
// identical to orig and to hold within 5% of cold, orig's live heap per
// key.
func assertRestoreHeap(t *testing.T, orig *Store[string], cold float64) {
	t.Helper()
	snap, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blobs, _, err := orig.MarshalStripes(0)
	if err != nil {
		t.Fatal(err)
	}
	restores := map[string]func() (*Store[string], error){
		"UnmarshalStore": func() (*Store[string], error) { return UnmarshalStore[string](snap) },
		"RestoreStripe": func() (*Store[string], error) {
			s, err := NewStore[string](orig.Spec())
			if err != nil {
				return nil, err
			}
			for _, b := range blobs {
				if _, err := s.RestoreStripe(b); err != nil {
					return nil, err
				}
			}
			return s, nil
		},
	}
	for name, restore := range restores {
		t.Run(name, func(t *testing.T) {
			var got *Store[string]
			heap := heapBytes(func() any {
				s, err := restore()
				if err != nil {
					t.Fatal(err)
				}
				got = s
				return s
			}) / float64(orig.Len())
			assertStoresIdentical(t, got, orig)
			if gw, ow := got.wm.Load(), orig.wm.Load(); gw != ow {
				t.Errorf("restored watermark %d, want %d", gw, ow)
			}
			t.Logf("restored: %.1f B/key, cold-built twin %.1f B/key", heap, cold)
			if heap > 1.05*cold {
				t.Errorf("restored store holds %.1f B/key, above 1.05× its cold-built twin's %.1f", heap, cold)
			}
		})
	}
}

// TestStoreRestoreRejectsForeignCounters: a stripe snapshot holding
// counters of another kind or other parameters than the store's spec —
// S-bitmap dimensions, HLL register counts, any other kind's
// configuration, per key or per sub-window, bounded or not — is a corrupt
// snapshot to a store, not a counter to adopt: a blob of another kind is
// ErrKindMismatch. Every store still restores its own spec's counters.
func TestStoreRestoreRejectsForeignCounters(t *testing.T) {
	for _, tc := range []struct {
		dst  string
		opts []StoreOption
		srcs []string
	}{
		{"sbitmap:n=1e4,eps=0.1", nil, []string{"sbitmap:n=1e4,eps=0.05", "sbitmap:n=1e4,eps=0.1,d=30", "hll:mbits=512"}},
		{"sbitmap:n=1e4,eps=0.1", []StoreOption{WithMaxKeys(100)}, []string{"hll:mbits=512", "sbitmap:n=1e4,eps=0.05"}},
		{"hll:mbits=512", nil, []string{"hll:mbits=1024", "sbitmap:n=1e4,eps=0.1"}},
		{"hll:mbits=512/windowed(width=1m,ring=5)", nil, []string{
			"hll:mbits=1024/windowed(width=1m,ring=5)", "loglog:mbits=512/windowed(width=1m,ring=5)"}},
		{"loglog:mbits=512", nil, []string{"fm:mbits=512", "loglog:mbits=1024", "exact"}},
		{"exact", nil, []string{"loglog:mbits=512"}},
		{"linearcount:mbits=512", nil, []string{"linearcount:mbits=1024"}},
		{"fm:mbits=512", nil, []string{"fm:mbits=1024"}},
		{"virtualbitmap:n=1e4,mbits=2000", nil, []string{"virtualbitmap:n=1e5,mbits=2000"}},
		{"mrbitmap:n=1e4,mbits=4000", nil, []string{"mrbitmap:n=1e5,mbits=4000", "mrbitmap:n=1e4,mbits=8000"}},
		{"adaptive:mbits=4096", nil, []string{"adaptive:mbits=2048"}},
		{"loglog:mbits=512/windowed(width=1m,ring=5)", nil, []string{"fm:mbits=512/windowed(width=1m,ring=5)"}},
	} {
		restore := func(srcSpec string) error {
			src, err := NewStore[uint64](MustSpec(srcSpec))
			if err != nil {
				t.Fatal(err)
			}
			for i := range uint64(40) {
				src.AddUint64(i%3, i)
			}
			blobs, _, err := src.MarshalStripes(0)
			if err != nil {
				t.Fatal(err)
			}
			dst, err := NewStore[uint64](MustSpec(tc.dst), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range blobs {
				if n, _ := StripeSnapshotKeys(b); n == 0 {
					continue
				}
				if _, err := dst.RestoreStripe(b); err != nil {
					return err
				}
			}
			if dst.Len() != 3 {
				t.Fatalf("%s restored %d keys of %s, want 3", tc.dst, dst.Len(), srcSpec)
			}
			return nil
		}
		if err := restore(tc.dst); err != nil {
			t.Errorf("%s store refused its own spec's counters: %v", tc.dst, err)
		}
		for _, spec := range tc.srcs {
			if err := restore(spec); err == nil {
				t.Errorf("%s counter restored into a %s store", spec, tc.dst)
			} else if MustSpec(spec).Kind != MustSpec(tc.dst).Kind && !errors.Is(err, ErrKindMismatch) {
				t.Errorf("%s counter in a %s store: %v, want ErrKindMismatch", spec, tc.dst, err)
			}
		}
	}
}

// TestStoreSBitmapFootprintExact: an inline store accounts exactly its
// tables' capacities. An empty store is its header, its stripes, one table
// and one run view per stripe and the state every slot shares, counted
// once; a full chunk of uint64 keys adds exactly the chunk — 72 B per key:
// tag, key, fill level, threshold and five bitmap words — the index it
// grew to and the chunk list.
func TestStoreSBitmapFootprintExact(t *testing.T) {
	s, err := NewStore[uint64](MustSpec("sbitmap:n=1e4,eps=0.1"), WithStripes(1))
	if err != nil {
		t.Fatal(err)
	}
	tab := s.stripes[0].tab
	want := int(unsafe.Sizeof(*s)) + int(unsafe.Sizeof(storeStripe[uint64]{})) +
		int(unsafe.Sizeof(*tab)) + int(unsafe.Sizeof(sbRuns{})) + tab.v.footprint()
	empty := s.Footprint()
	if empty != want {
		t.Fatalf("empty store footprint %d, want header + stripe + table + run view + shared state = %d", empty, want)
	}
	for i := 0; i < slotChunk; i++ {
		s.AddUint64(uint64(i), uint64(i))
	}
	one, err := s.Spec().New()
	if err != nil {
		t.Fatal(err)
	}
	slot := 8 * (4 + (one.SizeBits()+63)/64)
	if slot != 72 {
		t.Fatalf("slot of %d B, want 72", slot)
	}
	index := 4 * 2048 // 1,024 keys at load ≤ 3/4
	chunkList := int(unsafe.Sizeof([]uint64(nil)))
	if got := s.Footprint(); got != empty+slotChunk*slot+index+chunkList {
		t.Errorf("footprint %d after %d keys, want %d + %d·%d + %d + %d", got, slotChunk, empty, slotChunk, slot, index, chunkList)
	}
	if got, want := s.SizeBits(), slotChunk*one.SizeBits(); got != want {
		t.Errorf("SizeBits %d, want %d", got, want)
	}
}
