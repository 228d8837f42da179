package sbitmap

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/xrand"
)

// dropArenas removes a new store's stripe arenas, so every key's counter
// comes from newCounter on the heap: the path bounded and windowed stores
// take.
func dropArenas[K StoreKey](s *Store[K]) {
	for i := range s.stripes {
		s.stripes[i].arena = nil
	}
}

// TestStoreSlabEquivalence is the slab allocator's safety rail: the same
// records through a slab-allocated store and a heap-allocated one
// (dropArenas) must marshal to identical bytes — arena-materialized
// counters and stripe-shared scratch change where state lives, never what
// it is. The workload mixes scattered singleton runs (arena path) with
// long same-key runs (borrowed-scratch batch path) and crosses several
// slab chunk growths.
func TestStoreSlabEquivalence(t *testing.T) {
	keys, items := keyedWorkload(1500, 20000, 11)
	// Append a few long single-key runs so runs ≥ storeRunBatchMin take
	// the scratch-borrowing batch path.
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
	spec := MustSpec("sbitmap:n=1e4,eps=0.1,seed=3")

	t.Run("uint64", func(t *testing.T) {
		slab, err := NewStore[uint64](spec)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewStore[uint64](spec)
		if err != nil {
			t.Fatal(err)
		}
		dropArenas(plain)
		for i := 0; i < len(keys); i += 777 { // uneven batch sizes
			end := min(i+777, len(keys))
			slab.AddBatch64(keys[i:end], items[i:end])
		}
		for i := range keys {
			plain.AddUint64(keys[i], items[i])
		}
		assertStoresIdentical(t, slab, plain)
	})

	t.Run("string", func(t *testing.T) {
		slab, err := NewStore[string](spec)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewStore[string](spec)
		if err != nil {
			t.Fatal(err)
		}
		dropArenas(plain)
		slab.AddBatchString(strKeys, strItems)
		plain.AddBatchString(strKeys, strItems)
		assertStoresIdentical(t, slab, plain)
	})
}

// TestStoreSlabEvictionDisablesArena: WithMaxKeys eviction may drop
// counters at any time, and arena slots are never reclaimed — so a
// bounded store must fall back to heap materialization while keeping the
// shared-scratch half of the optimization. Observable contract: the
// bound holds and counting stays correct.
func TestStoreSlabEvictionDisablesArena(t *testing.T) {
	s, err := NewStore[uint64](MustSpec("sbitmap:n=1e4,eps=0.1"), WithMaxKeys(64), WithStripes(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.stripes {
		if s.stripes[i].arena != nil {
			t.Fatalf("stripe %d has an arena despite WithMaxKeys eviction", i)
		}
	}
	keys, items := keyedWorkload(500, 8000, 5)
	s.AddBatch64(keys, items)
	if got := s.Len(); got > 64+4 { // limit + stripe-count transient overshoot
		t.Fatalf("Len() = %d, want ≤ 68", got)
	}
}

// TestStoreClonesMaterializedStringKeys: zero-copy ingest paths hand the
// store keys aliasing a reusable frame buffer; the store must not retain
// that memory. Mutating the caller's backing bytes after ingest must not
// corrupt the stored keys.
func TestStoreClonesMaterializedStringKeys(t *testing.T) {
	for _, slab := range []bool{true, false} {
		t.Run(fmt.Sprintf("slab=%v", slab), func(t *testing.T) {
			s, err := NewStore[string](MustSpec("sbitmap:n=1e4,eps=0.1"))
			if err != nil {
				t.Fatal(err)
			}
			if !slab {
				dropArenas(s)
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

// TestSBitmapArenaEquivalence: counters an arena hands out across its 4,
// 8, 16 and 32 chunk growths are bit-identical to Spec.New's under
// interleaved ingest — no cross-talk through the shared word slab or the
// Shared's batch buffers.
func TestSBitmapArenaEquivalence(t *testing.T) {
	spec := MustSpec("sbitmap:n=1e4,eps=0.1,seed=5")
	a, err := spec.newArena()
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	slabbed, heaped := make([]Counter, n), make([]Counter, n)
	for i := range slabbed {
		slabbed[i] = a.next()
		if heaped[i], err = spec.New(); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 300; round++ {
		for i := range slabbed {
			item := uint64(round*31+i*7) % 900 // duplicates included
			if x, y := slabbed[i].AddUint64(item), heaped[i].AddUint64(item); x != y {
				t.Fatalf("counter %d round %d: arena changed=%v heap changed=%v", i, round, x, y)
			}
		}
	}
	for i := range slabbed {
		batch := []uint64{1, 2, 3, uint64(i), uint64(i), 1 << 40}
		if x, y := slabbed[i].(BulkAdder).AddBatch64(batch), heaped[i].(BulkAdder).AddBatch64(batch); x != y {
			t.Fatalf("counter %d: batch changed %d (arena) vs %d (heap)", i, x, y)
		}
		sb, err := Marshal(slabbed[i])
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

// TestSBitmapArenaAllocAmortized: once an arena's chunks reach full size,
// materializing counters costs only each chunk's two slabs, records and
// words, per arenaChunkMax counters — no heap object per counter.
func TestSBitmapArenaAllocAmortized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	a, err := MustSpec("sbitmap:n=1e4,eps=0.1").newArena()
	if err != nil {
		t.Fatal(err)
	}
	for a.chunk < arenaChunkMax {
		a.next()
	}
	if allocs := testing.AllocsPerRun(20, func() {
		for range arenaChunkMax {
			a.next()
		}
	}); allocs > 2 {
		t.Errorf("%.1f allocs per %d counters, want ≤ 2 (one record slab, one word slab)", allocs, arenaChunkMax)
	}
}

// TestStoreBatchIngestAllocFree pins the steady-state contract the wire
// listener's decode+add path depends on: once a store's keys and scratch
// are warm, keyed batch ingest performs zero heap allocations — for
// scattered batches and for long runs through the borrowed-scratch
// BulkAdder path alike.
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
	for i := 0; i < 2*storeRunBatchMin; i++ { // one long run: scratch path
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

// heapStore builds the rails' store — every key gets 8 distinct items,
// fed as 8,192-record batches like the benchmark's wire frames — and
// returns it with its live heap per key.
func heapStore(t *testing.T) (*Store[string], float64) {
	keys := make([]string, heapKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%06x", i)
	}
	const perKey, batch = 8, 8192
	bk := make([]string, 0, batch)
	bi := make([]uint64, 0, batch)
	var st *Store[string]
	heap := heapBytes(func() any {
		s, err := NewStore[string](MustSpec("sbitmap:n=1e4,eps=0.1"))
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
	runtime.KeepAlive(keys)
	return st, heap / float64(st.Len())
}

// TestStoreHeapPerKey is the heap rail: a slab-allocated S-bitmap key
// costs its record, its bitmap words, and its map entry and key — not a
// chain of per-key objects.
func TestStoreHeapPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	_, heap := heapStore(t)
	t.Logf("cold-built store: %.1f B/key of live heap", heap)
	if heap > 220 {
		t.Errorf("cold-built store holds %.1f B/key of live heap, want ≤ 220", heap)
	}
}

// TestWindowedStoreHeapPerKey is the windowed heap rail: a key holds only
// the sub-windows a query can still read, each a 32 B HyperLogLog record
// plus its registers under state the Store shares — not every sub-window
// it ever touched, each a chain of four heap objects.
func TestWindowedStoreHeapPerKey(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting is unreliable under the race detector")
	}
	st, heap := windowedHeapStore(t)
	t.Logf("%d keys: %.1f B/key of live heap", st.Len(), heap)
	if heap > 460 {
		t.Errorf("windowed store holds %.1f B/key of live heap, want ≤ 460", heap)
	}
}

// TestStoreRestoreIntoArena: restoring a snapshot decodes every S-bitmap
// into the stripe arenas, so the restored store is byte-identical to the
// original (every counter marshals to the same bytes) and no bigger in
// memory than its cold-built twin — through the
// whole-store snapshot and the per-stripe checkpoint alike. (Whole-store
// snapshots are compared key by key: map order makes their byte order
// vary from one MarshalBinary to the next.)
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
// S-bitmap dimensions, HLL register counts, per key or per sub-window —
// is a corrupt snapshot to a store that builds its counters under shared
// state, not a counter to adopt.
func TestStoreRestoreRejectsForeignCounters(t *testing.T) {
	for dstSpec, srcSpecs := range map[string][]string{
		"sbitmap:n=1e4,eps=0.1": {"sbitmap:n=1e4,eps=0.05", "sbitmap:n=1e4,eps=0.1,d=30", "hll:mbits=512"},
		"hll:mbits=512":         {"hll:mbits=1024", "sbitmap:n=1e4,eps=0.1"},
		"hll:mbits=512/windowed(width=1m,ring=5)": {
			"hll:mbits=1024/windowed(width=1m,ring=5)", "loglog:mbits=512/windowed(width=1m,ring=5)"},
	} {
		dst, err := NewStore[uint64](MustSpec(dstSpec))
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range srcSpecs {
			src, err := NewStore[uint64](MustSpec(spec))
			if err != nil {
				t.Fatal(err)
			}
			src.AddUint64(1, 2)
			blobs, _, err := src.MarshalStripes(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range blobs {
				if n, _ := StripeSnapshotKeys(b); n == 0 {
					continue
				}
				if _, err := dst.RestoreStripe(b); err == nil {
					t.Errorf("%s counter restored into a %s store", spec, dstSpec)
				} else if MustSpec(spec).Kind != MustSpec(dstSpec).Kind && !errors.Is(err, ErrKindMismatch) {
					t.Errorf("%s counter in a %s store: %v, want ErrKindMismatch", spec, dstSpec, err)
				}
			}
		}
	}
}

// TestStoreSBitmapFootprintExact: an arena-built S-bitmap accounts
// exactly its slab record plus its bitmap words, and the state its arena
// shares (Config, hasher handle) is counted once per stripe, however many
// keys the stripe holds.
func TestStoreSBitmapFootprintExact(t *testing.T) {
	const stripes, nKeys = 4, 100
	s, err := NewStore[uint64](MustSpec("sbitmap:n=1e4,eps=0.1"), WithStripes(stripes))
	if err != nil {
		t.Fatal(err)
	}
	want := int(unsafe.Sizeof(*s)) + stripes*int(unsafe.Sizeof(storeStripe[uint64]{}))
	for i := range s.stripes {
		want += s.stripes[i].arena.footprint()
	}
	empty := s.Footprint()
	if empty != want {
		t.Fatalf("empty store footprint %d, want header + stripes + one shared state per stripe = %d", empty, want)
	}
	for i := 0; i < nKeys; i++ {
		s.AddUint64(uint64(i), uint64(i)) // single adds: no stripe scratch
	}
	one, err := s.Spec().New()
	if err != nil {
		t.Fatal(err)
	}
	record, words := int(unsafe.Sizeof(SBitmap{})), (one.SizeBits()+63)/64
	s.ForEach(func(k uint64, c Counter) bool {
		if got := c.Footprint(); got != record+8*words {
			t.Fatalf("key %d: footprint %d, want record %d + 8·%d words = %d", k, got, record, words, record+8*words)
		}
		return true
	})
	perKey := record + 8*words + int(unsafe.Sizeof(uint64(0))) + storeEntryOverhead
	if got := s.Footprint(); got != empty+nKeys*perKey {
		t.Errorf("footprint %d after %d keys, want %d + %d·%d", got, nKeys, empty, nKeys, perKey)
	}
}
