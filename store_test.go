package sbitmap

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/xrand"
)

// storeTestSpecs dimensions one modest per-key counter per kind; keyed
// stores are exactly the "millions of tiny sketches" workload, so the
// per-key budgets stay small.
func storeTestSpecs() []Spec {
	return []Spec{
		MustSpec("sbitmap:n=1e4,eps=0.1"),
		MustSpec("hll:mbits=1536"),
		MustSpec("loglog:mbits=1536"),
		MustSpec("fm:mbits=1024"),
		MustSpec("linearcount:mbits=4000"),
		MustSpec("virtualbitmap:n=1e4,mbits=2000"),
		MustSpec("mrbitmap:n=1e4,mbits=4000"),
		MustSpec("adaptive:mbits=4096"),
		MustSpec("exact"),
	}
}

// keyedWorkload returns a deterministic keyed record batch: nRecs records
// over nKeys keys with duplicated items, adversarially interleaved.
func keyedWorkload(nKeys, nRecs int, seed uint64) (keys []uint64, items []uint64) {
	r := xrand.New(seed)
	keys = make([]uint64, nRecs)
	items = make([]uint64, nRecs)
	for i := range keys {
		k := uint64(r.Intn(nKeys))
		keys[i] = xrand.Mix64(0xfee1 + k)
		// Small per-key item universe so duplicates actually occur.
		items[i] = xrand.Mix64(keys[i] ^ uint64(r.Intn(50)))
	}
	return keys, items
}

func TestStoreBatchEquivalenceAllKinds(t *testing.T) {
	// Acceptance criterion: keyed-batch ingestion is bit-identical to
	// per-item ingestion for every kind. Two stores ingest the same
	// records — one item at a time, one in batches of mixed sizes — and
	// must marshal to identical bytes.
	keys, items := keyedWorkload(37, 4000, 7)
	strKeys := make([]string, len(keys))
	strItems := make([]string, len(items))
	for i := range keys {
		strKeys[i] = fmt.Sprintf("key-%x", keys[i])
		strItems[i] = fmt.Sprintf("item-%x", items[i])
	}
	for _, spec := range storeTestSpecs() {
		t.Run(string(spec.Kind)+"/uint64", func(t *testing.T) {
			one, err := NewStore[uint64](spec, WithStripes(7))
			if err != nil {
				t.Fatal(err)
			}
			batch, err := NewStore[uint64](spec, WithStripes(7))
			if err != nil {
				t.Fatal(err)
			}
			oneChanged := 0
			for i := range keys {
				if one.AddUint64(keys[i], items[i]) {
					oneChanged++
				}
			}
			batchChanged := 0
			for i := 0; i < len(keys); {
				end := min(i+257, len(keys))
				batchChanged += batch.AddBatch64(keys[i:end], items[i:end])
				i = end
			}
			if oneChanged != batchChanged {
				t.Errorf("changed counts: per-item %d, batch %d", oneChanged, batchChanged)
			}
			assertStoresIdentical(t, one, batch)
		})
		t.Run(string(spec.Kind)+"/string", func(t *testing.T) {
			one, err := NewStore[string](spec)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := NewStore[string](spec)
			if err != nil {
				t.Fatal(err)
			}
			oneChanged := 0
			for i := range strKeys {
				if one.AddString(strKeys[i], strItems[i]) {
					oneChanged++
				}
			}
			batchChanged := 0
			for i := 0; i < len(strKeys); {
				end := min(i+311, len(strKeys))
				batchChanged += batch.AddBatchString(strKeys[i:end], strItems[i:end])
				i = end
			}
			if oneChanged != batchChanged {
				t.Errorf("changed counts: per-item %d, batch %d", oneChanged, batchChanged)
			}
			assertStoresIdentical(t, one, batch)
		})
	}
}

// assertStoresIdentical requires the stores to hold the same keys with
// bit-identical counter states.
func assertStoresIdentical[K StoreKey](t *testing.T, a, b *Store[K]) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("key counts differ: %d vs %d", a.Len(), b.Len())
	}
	a.ForEach(func(key K, c Counter) bool {
		blobA, err := Marshal(c)
		if err != nil {
			t.Fatalf("key %v: %v", key, err)
		}
		// Look the key up without Store methods (ForEach holds the
		// stripe lock of a, not b — b is a different store, no deadlock).
		estB, ok := b.Estimate(key)
		if !ok {
			t.Fatalf("key %v missing from second store", key)
		}
		blobB, err := storeBlob(b, key)
		if err != nil {
			t.Fatalf("key %v: %v", key, err)
		}
		if !bytes.Equal(blobA, blobB) {
			t.Fatalf("key %v: counter states differ (%d vs %d bytes)", key, len(blobA), len(blobB))
		}
		if estA := c.Estimate(); estA != estB {
			t.Fatalf("key %v: estimates differ: %v vs %v", key, estA, estB)
		}
		return true
	})
}

// storeBlob marshals key's counter in s, under its stripe lock: an inline
// sketch's counter is a view valid only while the lock is held.
func storeBlob[K StoreKey](s *Store[K], key K) ([]byte, error) {
	st := s.stripeFor(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	c, ok := st.tab.lookup(key)
	if !ok {
		return nil, fmt.Errorf("key %v not live", key)
	}
	return Marshal(c)
}

func TestStoreEstimateAccuracy(t *testing.T) {
	// Per-key estimates must track per-key ground truth.
	st, err := NewStore[uint64](MustSpec("sbitmap:n=1e5,eps=0.05"))
	if err != nil {
		t.Fatal(err)
	}
	truth := map[uint64]int{10: 100, 20: 5000, 30: 40000, 40: 1}
	for key, n := range truth {
		for i := 0; i < n; i++ {
			item := key<<32 + uint64(i%((n+1)/2+1)) // duplicates included
			st.AddUint64(key, xrand.Mix64(item))
		}
	}
	if st.Len() != len(truth) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(truth))
	}
	for key, n := range truth {
		distinct := float64(n%((n+1)/2+1) + (n+1)/2)
		_ = distinct // exact dup math is fiddly; bound loosely below
		est, ok := st.Estimate(key)
		if !ok {
			t.Fatalf("key %d missing", key)
		}
		lo, hi := 0.5*float64((n+1)/2), 1.6*float64(n)
		if est < lo || est > hi {
			t.Errorf("key %d: estimate %.0f outside [%.0f, %.0f] (n=%d)", key, est, lo, hi, n)
		}
	}
	if _, ok := st.Estimate(99); ok {
		t.Error("estimate for unseen key reported ok")
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	// Acceptance criterion: snapshot → restore → identical estimates for
	// every key, for uint64 and string keys, and the restored store keeps
	// counting identically (the spec string carries seed and hash).
	for _, spec := range []Spec{
		MustSpec("sbitmap:n=1e4,eps=0.1,seed=9"),
		MustSpec("hll:mbits=1536,hash=tabulation"),
		MustSpec("exact"),
	} {
		keys, items := keyedWorkload(23, 1500, 11)
		st, err := NewStore[uint64](spec, WithStripes(5))
		if err != nil {
			t.Fatal(err)
		}
		st.AddBatch64(keys, items)
		blob, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalStore[uint64](blob)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got.Spec() != spec {
			t.Errorf("restored spec %+v, want %+v", got.Spec(), spec)
		}
		assertStoresIdentical(t, st, got)

		// Continued ingestion must stay bit-identical: same hash config.
		more, moreItems := keyedWorkload(23, 500, 13)
		st.AddBatch64(more, moreItems)
		got.AddBatch64(more, moreItems)
		assertStoresIdentical(t, st, got)

		// Marshal also routes through the package-level Marshal, and
		// Unmarshal refuses it with direction to UnmarshalStore.
		if _, err := Marshal(st); err != nil {
			t.Errorf("Marshal(store): %v", err)
		}
		if _, err := Unmarshal(blob); err == nil {
			t.Error("Unmarshal accepted a store snapshot")
		}
	}

	// String keys round-trip byte-for-byte (incl. empty and non-UTF8).
	ss, err := NewStore[string](MustSpec("exact"))
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"", "alpha", "k\x00\xff", "日本"}
	for i, k := range wantKeys {
		ss.AddString(k, fmt.Sprintf("item%d", i))
		ss.AddString(k, "shared")
	}
	blob, err := ss.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalStore[string](blob)
	if err != nil {
		t.Fatal(err)
	}
	assertStoresIdentical(t, ss, back)
	for _, k := range wantKeys {
		if est, ok := back.Estimate(k); !ok || est != 2 {
			t.Errorf("key %q: estimate %v ok=%v, want 2", k, est, ok)
		}
	}

	// Key-type mismatch is refused.
	if _, err := UnmarshalStore[uint64](blob); err == nil {
		t.Error("UnmarshalStore[uint64] accepted string-keyed snapshot")
	}

	// A restore limit below the snapshot's key count is refused rather
	// than silently dropping keys; an adequate limit restores fine.
	if _, err := UnmarshalStore[string](blob, WithMaxKeys(2)); err == nil {
		t.Error("UnmarshalStore accepted a limit below the snapshot's key count")
	}
	limited, err := UnmarshalStore[string](blob, WithMaxKeys(len(wantKeys)))
	if err != nil {
		t.Fatalf("restore at exact limit: %v", err)
	}
	if limited.Len() != len(wantKeys) {
		t.Errorf("restored %d keys, want %d", limited.Len(), len(wantKeys))
	}
}

func TestStoreSnapshotCorruption(t *testing.T) {
	st, err := NewStore[string](MustSpec("exact"))
	if err != nil {
		t.Fatal(err)
	}
	st.AddString("k1", "a")
	st.AddString("k2", "b")
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(blob); cut += 3 {
		if _, err := UnmarshalStore[string](blob[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	grown := append(append([]byte{}, blob...), 0xEE)
	if _, err := UnmarshalStore[string](grown); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestStoreConcurrentKeyedIngest(t *testing.T) {
	// Acceptance criterion: a -race concurrent keyed-ingest stress test.
	// Mixed per-item and batch writers over a shared key space, with
	// concurrent readers (Estimate / TopK / Footprint / snapshot).
	st, err := NewStore[uint64](MustSpec("hll:mbits=512"), WithStripes(8))
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		recs    = 6000
		nKeys   = 101
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys, items := keyedWorkload(nKeys, recs, uint64(w+1))
			if w%2 == 0 {
				for i := 0; i < len(keys); {
					end := min(i+119, len(keys))
					st.AddBatch64(keys[i:end], items[i:end])
					i = end
				}
			} else {
				for i := range keys {
					st.AddUint64(keys[i], items[i])
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	stop := make(chan struct{})
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.Estimate(xrand.Mix64(0xfee1 + 5))
			st.TopK(3)
			st.Footprint()
			if _, err := st.MarshalBinary(); err != nil {
				t.Errorf("concurrent marshal: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()
	if st.Len() == 0 || st.Len() > nKeys {
		t.Errorf("Len = %d, want (0, %d]", st.Len(), nKeys)
	}
	// Every writer fed the same key population; all keys must exist.
	if st.Len() != nKeys {
		t.Logf("note: %d of %d keys materialized (workload randomness)", st.Len(), nKeys)
	}
}

func TestStoreTopKAndForEach(t *testing.T) {
	st, err := NewStore[string](MustSpec("exact"))
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int{"a": 5, "b": 50, "c": 500, "d": 1, "e": 50}
	for key, n := range sizes {
		for i := 0; i < n; i++ {
			st.AddUint64(key, uint64(i))
		}
	}
	top := st.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d entries", len(top))
	}
	if top[0].Key != "c" || top[0].Estimate != 500 {
		t.Errorf("top[0] = %+v, want c/500", top[0])
	}
	// Tie between b and e (both 50): ascending key breaks it.
	if top[1].Key != "b" || top[2].Key != "e" {
		t.Errorf("tie order = %s, %s; want b, e", top[1].Key, top[2].Key)
	}
	if got := st.TopK(100); len(got) != len(sizes) {
		t.Errorf("TopK(100) returned %d entries, want %d", len(got), len(sizes))
	}
	if got := st.TopK(0); got != nil {
		t.Errorf("TopK(0) = %v, want nil", got)
	}
	// A k beyond the key count returns every key, ranked.
	all := st.TopK(math.MaxInt)
	var order []string
	for _, e := range all {
		order = append(order, e.Key)
	}
	if want := []string{"c", "b", "e", "a", "d"}; !slices.Equal(order, want) {
		t.Errorf("TopK(math.MaxInt) ranks %v, want %v", order, want)
	}

	seen := map[string]float64{}
	st.ForEach(func(key string, c Counter) bool {
		seen[key] = c.Estimate()
		return true
	})
	if len(seen) != len(sizes) {
		t.Errorf("ForEach visited %d keys, want %d", len(seen), len(sizes))
	}
	for key, n := range sizes {
		if seen[key] != float64(n) {
			t.Errorf("key %s: %v, want %d", key, seen[key], n)
		}
	}
	visited := 0
	st.ForEach(func(string, Counter) bool { visited++; return false })
	if visited != 1 {
		t.Errorf("early-stop ForEach visited %d keys", visited)
	}
}

func TestStoreEviction(t *testing.T) {
	st, err := NewStore[uint64](MustSpec("exact"), WithStripes(1), WithMaxKeys(3))
	if err != nil {
		t.Fatal(err)
	}
	var evicted []uint64
	st.OnEvict(func(key uint64, c Counter) {
		evicted = append(evicted, key)
		if c == nil {
			t.Error("eviction hook got nil counter")
		}
	})
	for k := uint64(1); k <= 10; k++ {
		st.AddUint64(k, k)
	}
	if st.Len() != 3 {
		t.Errorf("Len = %d, want 3 (limit)", st.Len())
	}
	if len(evicted) != 7 {
		t.Errorf("%d evictions, want 7", len(evicted))
	}
	// Re-adding an evicted key counts from scratch (its history is gone).
	key := evicted[0]
	st.AddUint64(key, 123)
	if est, ok := st.Estimate(key); !ok || est != 1 {
		t.Errorf("re-materialized key estimate %v ok=%v, want 1", est, ok)
	}

	// Remove does not fire the hook.
	hooks := len(evicted)
	if !st.Remove(key) {
		t.Error("Remove of live key returned false")
	}
	if st.Remove(key) {
		t.Error("Remove of dead key returned true")
	}
	if len(evicted) != hooks {
		t.Error("Remove fired the eviction hook")
	}

	// With many stripes and a tiny limit, eviction must reach across
	// stripes (single-threaded, so no overshoot is tolerated).
	wide, err := NewStore[uint64](MustSpec("exact"), WithStripes(64), WithMaxKeys(2))
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 50; k++ {
		wide.AddUint64(k, k)
	}
	if wide.Len() != 2 {
		t.Errorf("cross-stripe eviction: Len = %d, want 2", wide.Len())
	}

	// String keys: the counter OnEvict receives is the evicted key's own —
	// it marshals like an unbounded twin's counter for that key — and it
	// outlives its slot, which a later key takes over: after later inserts
	// it marshals to the same bytes as inside the hook. Every evicted key is
	// gone, and every surviving exact counter holds its key's true count.
	for _, spec := range []string{"exact", "hll:mbits=512/windowed(width=1m,ring=5)"} {
		const keys, limit = 300, 20
		s, err := NewStore[string](MustSpec(spec), WithStripes(4), WithMaxKeys(limit))
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewStore[string](MustSpec(spec))
		if err != nil {
			t.Fatal(err)
		}
		type evictedCounter struct {
			key  string
			c    Counter
			blob []byte
		}
		var gone []evictedCounter
		s.OnEvict(func(key string, c Counter) {
			blob, err := Marshal(c)
			if err != nil {
				t.Errorf("%s: marshal evicted key %q: %v", spec, key, err)
			}
			gone = append(gone, evictedCounter{key, c, blob})
		})
		truth := make(map[string]int, keys)
		add := func(key, item string) {
			s.AddString(key, item)
			twin.AddString(key, item)
			truth[key]++
		}
		for i := range keys {
			key := fmt.Sprintf("flow-%d", i)
			for j := range i%7 + 1 {
				add(key, fmt.Sprintf("%s-item-%d", key, j))
			}
		}
		var live []string
		s.ForEach(func(key string, _ Counter) bool {
			live = append(live, key)
			return true
		})
		for _, key := range live {
			add(key, key+"-late")
		}
		if s.Len() != limit || len(gone) != keys-limit {
			t.Errorf("%s: Len %d after %d evictions, want %d after %d", spec, s.Len(), len(gone), limit, keys-limit)
		}
		for _, e := range gone {
			if want, err := storeBlob(twin, e.key); err != nil || !bytes.Equal(e.blob, want) {
				t.Errorf("%s: OnEvict got a counter other than key %q's own (err %v)", spec, e.key, err)
			}
			if blob, err := Marshal(e.c); err != nil || !bytes.Equal(blob, e.blob) {
				t.Errorf("%s: evicted key %q's counter changed after its eviction (err %v)", spec, e.key, err)
			}
			if _, ok := s.Estimate(e.key); ok {
				t.Errorf("%s: evicted key %q still live", spec, e.key)
			}
		}
		if spec == "exact" {
			s.ForEach(func(key string, c Counter) bool {
				if got := c.Estimate(); got != float64(truth[key]) {
					t.Errorf("exact: surviving key %q counts %v, want %d", key, got, truth[key])
				}
				return true
			})
		}
	}
}

func TestStoreMerge(t *testing.T) {
	spec := MustSpec("hll:mbits=1024")
	a, err := NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping and disjoint keys with overlapping item sets.
	for i := uint64(0); i < 3000; i++ {
		a.AddUint64("both", i)
		b.AddUint64("both", i+1500) // half overlap → union 4500
		a.AddUint64("onlyA", i)
		b.AddUint64("onlyB", i)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 3 {
		t.Fatalf("merged Len = %d, want 3", a.Len())
	}
	est, _ := a.Estimate("both")
	if math.Abs(est/4500-1) > 0.25 {
		t.Errorf("union estimate %.0f, want ≈4500", est)
	}
	estB, _ := a.Estimate("onlyB")
	if math.Abs(estB/3000-1) > 0.25 {
		t.Errorf("adopted-key estimate %.0f, want ≈3000", estB)
	}

	// Self-merge is a no-op.
	before, _ := a.Estimate("both")
	if err := a.Merge(a); err != nil {
		t.Fatal(err)
	}
	if after, _ := a.Estimate("both"); after != before {
		t.Errorf("self-merge changed estimate %v -> %v", before, after)
	}

	// Spec mismatch refused.
	c, _ := NewStore[string](MustSpec("hll:mbits=2048"))
	if err := a.Merge(c); err == nil {
		t.Error("merge across specs accepted")
	}

	// Non-mergeable kind refused with ErrNotMergeable — and refused
	// BEFORE any mutation: no adopted keys, no half-merged state.
	sa, _ := NewStore[string](MustSpec("sbitmap:n=1e4,eps=0.1"))
	sb, _ := NewStore[string](MustSpec("sbitmap:n=1e4,eps=0.1"))
	sa.AddUint64("k", 1)
	sb.AddUint64("k", 2)
	sb.AddUint64("only-b", 3)
	if err := sa.Merge(sb); !errors.Is(err, ErrNotMergeable) {
		t.Errorf("sbitmap store merge error = %v, want ErrNotMergeable", err)
	}
	if sa.Len() != 1 {
		t.Errorf("refused merge mutated the store: Len = %d, want 1", sa.Len())
	}
	if _, ok := sa.Estimate("only-b"); ok {
		t.Error("refused merge adopted a key")
	}
}

func TestStoreFootprintAndSizeBits(t *testing.T) {
	st, err := NewStore[string](MustSpec("hll:mbits=1024"))
	if err != nil {
		t.Fatal(err)
	}
	empty := st.Footprint()
	if empty <= 0 {
		t.Fatalf("empty footprint %d", empty)
	}
	for i := 0; i < 100; i++ {
		st.AddUint64(fmt.Sprintf("key-%03d", i), uint64(i))
	}
	full := st.Footprint()
	if full <= empty {
		t.Errorf("footprint did not grow: %d -> %d", empty, full)
	}
	perKey := (full - empty) / 100
	// Each key holds a 1024-bit HLL (≥128 B) plus key and map overhead.
	if perKey < 128 || perKey > 4096 {
		t.Errorf("per-key footprint %d B implausible", perKey)
	}
	one, err := st.Spec().New()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.SizeBits(), 100*one.SizeBits(); got != want {
		t.Errorf("SizeBits = %d, want %d", got, want)
	}
	st.Reset()
	if st.Len() != 0 {
		t.Errorf("Len after Reset = %d", st.Len())
	}
	if st.Footprint() > empty+1024 {
		t.Errorf("footprint after Reset = %d, empty was %d", st.Footprint(), empty)
	}
}

func TestStoreConstructionErrors(t *testing.T) {
	if _, err := NewStore[uint64](MustSpec("sbitmap:n=1e4,eps=0.1"), WithStripes(0)); err == nil {
		t.Error("0 stripes accepted")
	}
	if _, err := NewStore[uint64](MustSpec("sbitmap:n=1e4,eps=0.1"), WithMaxKeys(-1)); err == nil {
		t.Error("negative key limit accepted")
	}
	if _, err := NewStore[uint64](Spec{Kind: KindSBitmap}); err == nil {
		t.Error("underdetermined spec accepted")
	}
	st, err := NewStore[uint64](MustSpec("exact"))
	if err != nil {
		t.Fatal(err)
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on length mismatch", name)
			}
		}()
		fn()
	}
	mustPanic("AddBatch64", func() { st.AddBatch64([]uint64{1}, nil) })
	mustPanic("AddBatchString", func() { st.AddBatchString([]uint64{1}, []string{"a", "b"}) })
}

func TestStoreNamedKeyTypes(t *testing.T) {
	// ~string / ~uint64 named types work end to end, snapshots included.
	type FlowID uint64
	st, err := NewStore[FlowID](MustSpec("exact"))
	if err != nil {
		t.Fatal(err)
	}
	st.AddUint64(FlowID(7), 1)
	st.AddUint64(FlowID(7), 2)
	st.AddUint64(FlowID(9), 1)
	if est, ok := st.Estimate(FlowID(7)); !ok || est != 2 {
		t.Fatalf("estimate %v ok=%v", est, ok)
	}
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalStore[FlowID](blob)
	if err != nil {
		t.Fatal(err)
	}
	if est, ok := back.Estimate(FlowID(9)); !ok || est != 1 {
		t.Fatalf("restored estimate %v ok=%v", est, ok)
	}
}

func TestStoreSnapshotUnderConcurrentWriters(t *testing.T) {
	// Satellite acceptance: MarshalBinary taken WHILE mixed per-item and
	// batch writers (and readers) are running must always produce a
	// decodable snapshot whose per-key counters are internally consistent
	// — every blob restores, and every restored estimate is one a
	// quiescent counter could report. Run under -race to also prove the
	// stripe-locked encode never reads sketch state torn by a writer.
	st, err := NewStore[uint64](MustSpec("hll:mbits=256"), WithStripes(8))
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		recs    = 4000
		nKeys   = 97
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys, items := keyedWorkload(nKeys, recs, uint64(w+1))
			for i := 0; i < len(keys); {
				select {
				case <-stop:
					return
				default:
				}
				if w%2 == 0 {
					end := min(i+137, len(keys))
					st.AddBatch64(keys[i:end], items[i:end])
					i = end
				} else {
					st.AddUint64(keys[i], items[i])
					i++
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.Estimate(xrand.Mix64(3))
			st.Len()
		}
	}()

	// Snapshot continuously under load; every snapshot must decode fully.
	deadline := time.Now().Add(500 * time.Millisecond)
	snaps := 0
	for time.Now().Before(deadline) {
		blob, err := st.MarshalBinary()
		if err != nil {
			t.Fatalf("snapshot %d under load: %v", snaps, err)
		}
		back, err := UnmarshalStore[uint64](blob)
		if err != nil {
			t.Fatalf("snapshot %d does not decode: %v", snaps, err)
		}
		bad := 0
		back.ForEach(func(key uint64, c Counter) bool {
			if est := c.Estimate(); est < 0 || math.IsNaN(est) || math.IsInf(est, 0) {
				bad++
			}
			return true
		})
		if bad > 0 {
			t.Fatalf("snapshot %d: %d restored counters with nonsensical estimates", snaps, bad)
		}
		snaps++
	}
	close(stop)
	wg.Wait()
	rg.Wait()
	if snaps == 0 {
		t.Fatal("took no snapshots")
	}

	// Quiescent now: a final snapshot must round-trip to equal estimates.
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalStore[uint64](blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != st.Len() {
		t.Fatalf("restored %d keys, live store has %d", back.Len(), st.Len())
	}
	st.ForEach(func(key uint64, c Counter) bool {
		got, ok := back.Estimate(key)
		if !ok || got != c.Estimate() {
			t.Errorf("key %d: restored %v ok=%v, live %v", key, got, ok, c.Estimate())
			return false
		}
		return true
	})
}

// TestEvictedCountersOwnTheirState: a bounded hll or S-bitmap store keeps
// its sketches in slot words, and the counter it hands to OnEvict is a
// heap copy made by slotTable.detach. The copies share the store's
// read-only state, and no batch-hash buffers exist to race on: each batch
// borrows its own for the call. Two evicted copies fed through their
// batch paths on two goroutines, while a third batch-ingests runs of 256
// records into the store's live key, must each end as a Spec.New counter
// fed the same items does, and so must the live key; the race detector
// reports any write to the shared state.
func TestEvictedCountersOwnTheirState(t *testing.T) {
	for _, raw := range []string{"hll:mbits=512", "sbitmap:n=1e4,eps=0.1"} {
		spec := MustSpec(raw)
		s, err := NewStore[uint64](spec, WithStripes(1), WithMaxKeys(1))
		if err != nil {
			t.Fatal(err)
		}
		var evicted []Counter
		s.OnEvict(func(_ uint64, c Counter) { evicted = append(evicted, c) })
		for k := range uint64(3) {
			s.AddUint64(k, k)
		}
		if len(evicted) != 2 {
			t.Fatalf("%s: %d evictions, want 2", raw, len(evicted))
		}
		items := func(w int) []uint64 {
			items := make([]uint64, 4096)
			for i := range items {
				items[i] = uint64(w)<<32 | uint64(i)*0x9e3779b97f4a7c15
			}
			return items
		}
		const live, run = 2, 4 * storeRunBatchMin
		liveKeys := make([]uint64, run)
		for i := range liveKeys {
			liveKeys[i] = live
		}
		var wg sync.WaitGroup
		for w, c := range evicted {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 20 {
					c.(BulkAdder).AddBatch64(items(w))
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			all := items(live)
			for r := range 20 {
				s.AddBatch64(liveKeys, all[r%16*run:][:run])
			}
		}()
		wg.Wait()
		check := func(what string, key uint64, items []uint64, got []byte) {
			t.Helper()
			want, err := spec.New()
			if err != nil {
				t.Fatal(err)
			}
			want.AddUint64(key) // the key's item before the evictions
			want.(BulkAdder).AddBatch64(items)
			if blob, _ := Marshal(want); !bytes.Equal(got, blob) {
				t.Errorf("%s: %s differs from a Spec.New counter fed the same items", raw, what)
			}
		}
		for w, c := range evicted {
			got, err := Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("evicted counter %d fed concurrently", w), uint64(w), items(w), got)
		}
		got, err := storeBlob(s, live)
		if err != nil {
			t.Fatal(err)
		}
		check("the live key batch-fed beside the evicted copies", live, items(live), got)
	}
}

// TestCounterSourceHeapSBitmaps: a sketch kept in a slot's words leaves
// its store — for an OnEvict hook, or for another store's Merge — as the
// heap copy slotTable.detach makes, sharing the store's read-only state.
// A copy marshals and estimates exactly as a Spec.New counter after the
// same items, per item and batched, under the default, Carter-Wegman and
// tabulation hashing; feeding it changes no other copy; and it accounts
// its record and run, which with the store's shared state are Spec.New's
// counter.
func TestCounterSourceHeapSBitmaps(t *testing.T) {
	for _, text := range []string{
		"sbitmap:n=1e4,eps=0.1",
		"sbitmap:n=1e4,eps=0.1,hash=carterwegman",
		"sbitmap:n=1e4,eps=0.1,hash=tabulation,d=30,seed=7",
	} {
		spec := MustSpec(text)
		s, err := NewStore[uint64](spec, WithStripes(1))
		if err != nil {
			t.Fatal(err)
		}
		s.AddUint64(1, 1)
		s.AddUint64(2, 2)
		tab := s.stripes[0].tab
		got, other := tab.detach(0), tab.detach(1)
		want, err := spec.New()
		if err != nil {
			t.Fatal(err)
		}
		want.AddUint64(1)
		if fg, fs, fw := got.Footprint(), s.src.sb.Footprint(), want.Footprint(); fg+fs != fw {
			t.Errorf("%s: footprint %d B + shared %d B, Spec.New's %d B", text, fg, fs, fw)
		}
		ob, _ := Marshal(other)
		items := make([]uint64, 3000)
		for i := range items {
			items[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		for _, c := range []Counter{got, want} {
			for _, it := range items[:1000] {
				c.AddUint64(it)
			}
			c.(BulkAdder).AddBatch64(items[1000:])
		}
		gb, _ := Marshal(got)
		wb, _ := Marshal(want)
		if !bytes.Equal(gb, wb) || got.Estimate() != want.Estimate() {
			t.Errorf("%s: detached copy diverged from Spec.New's counter", text)
		}
		if after, _ := Marshal(other); !bytes.Equal(after, ob) {
			t.Errorf("%s: feeding one detached copy changed another", text)
		}
		if sb, _ := storeBlob(s, 1); bytes.Equal(sb, gb) {
			t.Errorf("%s: feeding a detached copy changed the store's sketch", text)
		}
	}
}
