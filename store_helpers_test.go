package sbitmap

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/mallocs"
	"repro/internal/xrand"
)

// The rails below run keyed batches large enough to be offered to the
// batch helpers (storeHelpMin), at GOMAXPROCS ≥ 2 so a helper exists to
// take them. The batch-equivalence rails in store_test.go use batches
// too small to reach a helper.

// helperBatches are the rails' batch lengths, each at least 8,192
// records; their sum is the workload length.
var helperBatches = []int{8192, 10007, 8192, 8192, 9001, 8192}

// helperRecords returns the workload length, the sum of helperBatches.
func helperRecords() int {
	total := 0
	for _, n := range helperBatches {
		total += n
	}
	return total
}

// helperWorkload returns nRecs records over nKeys keys: scattered
// records with, now and then, a burst of one key long enough to take the
// BulkAdder run path, so stripe segments hold both short runs and runs
// gathered into the batch's item buffer. A quarter of the records go to
// 16 hot keys with a large item universe, whose sketches fill far enough
// that their state depends on record order; the other keys repeat items
// from a small universe, so some offers change nothing.
func helperWorkload(nKeys, nRecs int, seed uint64) (keys, items []uint64) {
	r := xrand.New(seed)
	for len(keys) < nRecs {
		k, universe := uint64(r.Intn(nKeys)), 200
		if r.Intn(4) == 0 {
			k, universe = uint64(r.Intn(16)), 1<<20
		}
		k = xrand.Mix64(0xbee + k)
		burst := 1
		if r.Intn(64) == 0 {
			burst = storeRunBatchMin + r.Intn(storeRunBatchMin)
		}
		for range min(burst, nRecs-len(keys)) {
			keys = append(keys, k)
			items = append(items, xrand.Mix64(k^uint64(r.Intn(universe))))
		}
	}
	return keys, items
}

// helperStrings renders a workload as string keys and items.
func helperStrings(keys, items []uint64) (strKeys, strItems []string) {
	strKeys = make([]string, len(keys))
	strItems = make([]string, len(items))
	for i := range keys {
		strKeys[i] = fmt.Sprintf("key-%x", keys[i])
		strItems[i] = fmt.Sprintf("item-%x", items[i])
	}
	return strKeys, strItems
}

// feedHelperBatches feeds the workload to batch in helperBatches-sized
// calls — AddBatch64 (strs nil) or AddBatchString, their At forms when
// at — and, when one is non-nil, the same records to one item by item.
// Batch b carries timestamp b×40s, so a windowed store rotates. It
// returns both sides' changed counts.
func feedHelperBatches[K StoreKey](one, batch *Store[K], keys []K, items []uint64, strs []string, at bool) (oneChanged, batchChanged int) {
	base := time.Unix(1_700_000_000, 0)
	lo := 0
	for b, n := range helperBatches {
		hi := lo + n
		ts := base.Add(time.Duration(b) * 40 * time.Second)
		for i := lo; one != nil && i < hi; i++ {
			var ch bool
			switch {
			case strs == nil && at:
				ch = one.AddUint64At(ts, keys[i], items[i])
			case strs == nil:
				ch = one.AddUint64(keys[i], items[i])
			case at:
				ch = one.AddStringAt(ts, keys[i], strs[i])
			default:
				ch = one.AddString(keys[i], strs[i])
			}
			if ch {
				oneChanged++
			}
		}
		switch {
		case strs == nil && at:
			batchChanged += batch.AddBatch64At(ts, keys[lo:hi], items[lo:hi])
		case strs == nil:
			batchChanged += batch.AddBatch64(keys[lo:hi], items[lo:hi])
		case at:
			batchChanged += batch.AddBatchStringAt(ts, keys[lo:hi], strs[lo:hi])
		default:
			batchChanged += batch.AddBatchString(keys[lo:hi], strs[lo:hi])
		}
		lo = hi
	}
	return oneChanged, batchChanged
}

// checkHelperTwin builds a per-item twin and a batch store from spec,
// feeds both, and requires equal changed counts, bit-identical
// counters, and a batch that reached every stripe.
func checkHelperTwin[K StoreKey](t *testing.T, spec Spec, keys []K, items []uint64, strs []string, at bool) {
	t.Helper()
	one, err := NewStore[K](spec)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewStore[K](spec)
	if err != nil {
		t.Fatal(err)
	}
	oneChanged, batchChanged := feedHelperBatches(one, batch, keys, items, strs, at)
	if oneChanged != batchChanged {
		t.Errorf("changed counts: per-item %d, batch %d", oneChanged, batchChanged)
	}
	for i := range batch.stripes {
		if batch.stripes[i].tab.keys == 0 {
			t.Fatalf("stripe %d holds no key: the workload must touch every stripe", i)
		}
	}
	assertStoresIdentical(t, one, batch)
}

// TestStoreBatchHelpersEquivalence is the helper path's twin rail: for
// every kind, a windowed HyperLogLog, both item types and both time
// forms, helper-shared batches must leave every counter bit-identical to
// per-item ingestion and report the same changed count.
func TestStoreBatchHelpersEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	keys, items := helperWorkload(1000, helperRecords(), 14)
	strKeys, strItems := helperStrings(keys, items)
	specs := append(storeTestSpecs(), MustSpec("hll:mbits=512/windowed(width=1m,ring=5)"))
	for _, spec := range specs {
		for _, at := range []bool{false, true} {
			name := spec.String()
			if at {
				name += "/at"
			}
			t.Run(name+"/uint64", func(t *testing.T) {
				checkHelperTwin(t, spec, keys, items, nil, at)
			})
			t.Run(name+"/string", func(t *testing.T) {
				checkHelperTwin(t, spec, strKeys, nil, strItems, at)
			})
		}
	}
}

// TestStoreBatchHelpersMaxKeys runs helper-shared batches on a store at
// its key limit, where materializing a key evicts one, TryLocking other
// stripes while helpers hold theirs. Victims come in map order, so no
// twin can match key for key; what must hold is conservation: on the
// exact kind every change is one new item of one counter, live or
// evicted, so the changed total equals the live plus evicted
// cardinalities.
func TestStoreBatchHelpersMaxKeys(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	keys, items := helperWorkload(1000, helperRecords(), 15)
	const limit = 600
	st, err := NewStore[uint64](MustSpec("exact"), WithMaxKeys(limit))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex // evictions run on the caller and on helpers
	evicted, evictions := 0.0, 0
	st.OnEvict(func(_ uint64, c Counter) {
		mu.Lock()
		evicted += c.Estimate()
		evictions++
		mu.Unlock()
	})
	_, changed := feedHelperBatches(nil, st, keys, items, nil, false)
	live := 0.0
	st.ForEach(func(_ uint64, c Counter) bool {
		live += c.Estimate()
		return true
	})
	if evictions == 0 {
		t.Fatal("no eviction: the limit must sit below the key count")
	}
	if float64(changed) != live+evicted {
		t.Errorf("changed %d, live %.0f + evicted %.0f items", changed, live, evicted)
	}
	if st.Len() > limit+len(st.stripes) {
		t.Errorf("Len %d beyond limit %d + %d stripes", st.Len(), limit, len(st.stripes))
	}
}

// TestStoreBatchHelpersConcurrent runs four goroutines' helper-shared
// batches at once beside Estimate and MarshalStripes readers — under
// -race, the check on the claim cursor, the per-stripe gather regions
// and the hand-off to helpers. Each batcher owns its keys, so however
// the batches interleave, the store must match a per-item twin.
func TestStoreBatchHelpersConcurrent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const batchers = 4
	spec := MustSpec("sbitmap:n=1e4,eps=0.1")
	one, err := NewStore[uint64](spec)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore[uint64](spec)
	if err != nil {
		t.Fatal(err)
	}
	var work [batchers][2][]uint64
	for w := range work {
		keys, items := helperWorkload(500, helperRecords(), uint64(20+w))
		for i := range keys {
			keys[i] ^= uint64(w) << 60 // disjoint key spaces
		}
		work[w] = [2][]uint64{keys, items}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		keys := work[0][0]
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st.Estimate(keys[i%len(keys)])
		}
	}()
	go func() {
		defer readers.Done()
		var since uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, cut, err := st.MarshalStripes(since)
			if err != nil {
				t.Errorf("concurrent MarshalStripes: %v", err)
				return
			}
			since = cut
		}
	}()
	var writers sync.WaitGroup
	changed := make([]int, batchers)
	for w := range batchers {
		writers.Add(1)
		go func() {
			defer writers.Done()
			_, changed[w] = feedHelperBatches(nil, st, work[w][0], work[w][1], nil, false)
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	oneChanged, batchChanged := 0, 0
	for w := range batchers {
		for i, k := range work[w][0] {
			if one.AddUint64(k, work[w][1][i]) {
				oneChanged++
			}
		}
		batchChanged += changed[w]
	}
	if oneChanged != batchChanged {
		t.Errorf("changed counts: per-item %d, batch %d", oneChanged, batchChanged)
	}
	assertStoresIdentical(t, one, st)
}

// TestStoreBatchHelpersAllocFree extends TestStoreBatchIngestAllocFree
// to helper-shared batches: warm 8,192-record AddBatch64 calls at
// GOMAXPROCS 2 allocate nothing.
func TestStoreBatchHelpersAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	keys, items := helperWorkload(1000, helperBatches[0], 16)
	st, err := NewStore[uint64](MustSpec("sbitmap:n=1e4,eps=0.1"))
	if err != nil {
		t.Fatal(err)
	}
	batch := func() { st.AddBatch64(keys, items) }
	if n := mallocs.At(2, 300, 50, batch, batch); n != 0 {
		t.Errorf("warm 8,192-record AddBatch64 at GOMAXPROCS 2: %d allocs over 50 calls, want 0", n)
	}
}
