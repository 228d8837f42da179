package sbitmap

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/xrand"
)

// TestHLLMarshalGolden pins HyperLogLog snapshot bytes: splitting the
// sketch into a record and shared state moved where state lives, not what
// a snapshot holds — standalone, per key inside a Store, and per
// sub-window inside a ring that has released nothing.
func TestHLLMarshalGolden(t *testing.T) {
	c, _ := MustSpec("hll:mbits=4096,seed=3").New()
	for i := uint64(0); i < 20000; i++ {
		c.AddUint64(i * 0x9e3779b97f4a7c15)
	}
	blob, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got, want := hex.EncodeToString(sum[:]), "d46bbece94c3ff066648ce6ed1f394efbdb88680f224c606be70911b1e9de1c1"; got != want {
		t.Errorf("standalone HLL snapshot sha256 %s, want %s", got, want)
	}

	keys, items := keyedWorkload(300, 30000, 3)
	for _, tc := range []struct{ spec, want string }{
		{"hll:mbits=512,seed=5", "e4612f7afb95995cb54ceddfff19997020cd0f517167b0373102d2936e365afe"},
		{"hll:mbits=512,seed=5/windowed(width=1m,ring=5)", "c43fc492f76b5c96774a10b98fb1c6f4f4b6b039effecf695f647d01c3bd7c4d"},
	} {
		s, err := NewStore[uint64](MustSpec(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(keys); i += 1000 {
			// Five sub-windows, one ring's worth: no slot expires.
			s.AddBatch64At(time.Unix(int64(i/6000)*60, 0), keys[i:i+1000], items[i:i+1000])
		}
		if got := keyBlobsDigest(t, s); got != tc.want {
			t.Errorf("%s: per-key snapshot sha256 %s, want %s", tc.spec, got, tc.want)
		}
	}
}

// TestLogLogMarshalGolden pins LogLog snapshot bytes as
// TestHLLMarshalGolden pins HyperLogLog's: standalone, per key inside a
// Store, and per sub-window inside a ring that has released nothing. A
// change of where LogLog keeps its registers must leave them unchanged.
func TestLogLogMarshalGolden(t *testing.T) {
	c, _ := MustSpec("loglog:mbits=4096,seed=3").New()
	for i := uint64(0); i < 20000; i++ {
		c.AddUint64(i * 0x9e3779b97f4a7c15)
	}
	blob, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	if got, want := hex.EncodeToString(sum[:]), "0bdaff4f02bad6c4ac2d9456ffa71bb49e53281f9384d459645dd22a8b41b538"; got != want {
		t.Errorf("standalone LogLog snapshot sha256 %s, want %s", got, want)
	}

	keys, items := keyedWorkload(300, 30000, 3)
	for _, tc := range []struct{ spec, want string }{
		{"loglog:mbits=512,seed=5", "b44ea4fa6c4466b5693f1293860ad19626902e0f3aeb1a5a09ac404005795292"},
		{"loglog:mbits=512,seed=5/windowed(width=1m,ring=5)", "ccfe9339be5fed4bb089c55151237c6ee80b94eae2d5f3325c9372f1acec31b3"},
	} {
		s, err := NewStore[uint64](MustSpec(tc.spec))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(keys); i += 1000 {
			// Five sub-windows, one ring's worth: no slot expires.
			s.AddBatch64At(time.Unix(int64(i/6000)*60, 0), keys[i:i+1000], items[i:i+1000])
		}
		if got := keyBlobsDigest(t, s); got != tc.want {
			t.Errorf("%s: per-key snapshot sha256 %s, want %s", tc.spec, got, tc.want)
		}
	}
}

// keyBlobsDigest hashes every key's counter snapshot in key order.
func keyBlobsDigest(t *testing.T, s *Store[uint64]) string {
	t.Helper()
	blobs := make(map[uint64][]byte)
	s.ForEach(func(k uint64, c Counter) bool {
		b, err := Marshal(c)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		blobs[k] = b
		return true
	})
	order := make([]uint64, 0, len(blobs))
	for k := range blobs {
		order = append(order, k)
	}
	slices.Sort(order)
	h := sha256.New()
	for _, k := range order {
		fmt.Fprintf(h, "%d:", k)
		h.Write(blobs[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestHLLStoreConcurrentLongRuns: a Store's HyperLogLogs share one state,
// so writers on different stripes must never hash their long runs through
// buffers they share — plain, and inside sub-window rings. Run under
// -race. HLL registers do not depend on record order, so the result must
// equal a sequential twin's.
func TestHLLStoreConcurrentLongRuns(t *testing.T) {
	const writers, batches, runKeys = 4, 30, 6
	const run = 2 * storeRunBatchMin
	batch := func(w, b int) ([]uint64, []uint64) {
		keys := make([]uint64, 0, runKeys*run)
		items := make([]uint64, 0, runKeys*run)
		for k := 0; k < runKeys; k++ {
			key := uint64((w + b + k) % 20) // writers share keys and stripes
			for i := 0; i < run; i++ {
				keys = append(keys, key)
				items = append(items, uint64(w)<<40|uint64(b)<<20|uint64(k*run+i))
			}
		}
		return keys, items
	}
	at := func(b int) time.Time { return time.Unix(int64(b%5)*60, 0) } // one ring's worth
	for _, tc := range []struct {
		name string
		spec string
		opts []StoreOption
	}{
		{"slab=false", "hll:mbits=512,seed=9", []StoreOption{WithStripes(8)}},
		{"windowed", "hll:mbits=512,seed=9/windowed(width=1m,ring=5)", []StoreOption{WithStripes(8)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStore[uint64](MustSpec(tc.spec), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := NewStore[uint64](MustSpec(tc.spec), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						keys, items := batch(w, b)
						s.AddBatch64At(at(b), keys, items)
					}
				}()
			}
			wg.Wait()
			for w := 0; w < writers; w++ {
				for b := 0; b < batches; b++ {
					keys, items := batch(w, b)
					twin.AddBatch64At(at(b), keys, items)
				}
			}
			assertStoresIdentical(t, s, twin)
		})
	}
}

// TestWindowRecyclingMatchesReference is the recycling rail's reference
// model: a windowed HLL store fed a seeded trace — mostly forward in time,
// with out-of-order records inside the horizon and late records behind
// it, over many ring cycles — must answer every window span exactly as
// one plain counter per (key, sub-window) merged over the covering
// sub-windows does, late records folded into the watermark sub-window as
// resolveWidx folds them. And a key that rotates keeps no slot at or
// behind the horizon.
func TestWindowRecyclingMatchesReference(t *testing.T) {
	const (
		width = time.Second
		ring  = 4
		nKeys = 24
	)
	spec := MustSpec("hll:mbits=1024,seed=13/windowed(width=1s,ring=4)")
	s, err := NewStore[string](spec, WithStripes(3))
	if err != nil {
		t.Fatal(err)
	}
	base := spec.base()
	ref := make(map[string]map[int64]Counter) // key → sub-window → counter
	wm := int64(wmNone)
	check := func(step int) {
		t.Helper()
		for key, windows := range ref {
			for n := 1; n <= ring; n++ {
				got, ok, err := s.EstimateWindow(key, time.Duration(n)*width)
				if err != nil || !ok {
					t.Fatalf("step %d key %s: ok=%v err=%v", step, key, ok, err)
				}
				want, err := base.New()
				if err != nil {
					t.Fatal(err)
				}
				live := 0
				for w, c := range windows {
					if w > wm-int64(n) && w <= wm {
						live++
						if err := Merge(want, c); err != nil {
							t.Fatal(err)
						}
					}
				}
				if got.Estimate != want.Estimate() || got.Windows != live {
					t.Fatalf("step %d key %s span %d: %v over %d sub-windows, reference %v over %d",
						step, key, n, got.Estimate, got.Windows, want.Estimate(), live)
				}
			}
		}
	}
	r := xrand.New(41)
	clock := int64(100)
	for step := 0; step < 600; step++ {
		if r.Intn(8) == 0 {
			clock++ // ~75 sub-windows: over 18 ring cycles
		}
		widx := clock
		switch r.Intn(10) {
		case 0:
			widx -= 1 + int64(r.Intn(ring-1)) // out of order, inside the horizon
		case 1:
			widx -= ring + int64(r.Intn(3)) // late: behind the horizon
		}
		wm = max(wm, widx)
		land := widx
		if land <= wm-ring {
			land = wm
		}
		keys := make([]string, 1+r.Intn(6))
		items := make([]string, len(keys))
		var rotated []string
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%d", r.Intn(nKeys))
			items[i] = fmt.Sprintf("item-%d", r.Intn(400))
			windows := ref[keys[i]]
			if windows == nil {
				windows = make(map[int64]Counter)
				ref[keys[i]] = windows
			}
			if windows[land] == nil {
				if windows[land], err = base.New(); err != nil {
					t.Fatal(err)
				}
				rotated = append(rotated, keys[i])
			}
			windows[land].AddString(items[i])
		}
		if ts := at(widx, width); step%2 == 0 {
			s.AddBatchStringAt(ts, keys, items)
		} else {
			for i := range keys {
				s.AddStringAt(ts, keys[i], items[i])
			}
		}
		for _, key := range rotated {
			tab := s.stripes[s.stripeIndex(s.hashKey(key))].tab
			i, _ := tab.slotOf(key)
			rg := tab.ringAt(i)
			for j := range rg.size() {
				if widx, live := rg.entry(j); live && widx <= wm-ring {
					t.Fatalf("step %d: key %s rotated but holds sub-window %d at or behind the horizon %d",
						step, key, widx, wm-ring)
				}
			}
		}
		if step%50 == 49 {
			check(step)
		}
	}
	check(600)
}

// TestWindowedStoreAllocFree pins the windowed Store's steady state: a
// warm HLL store rotates every key of a batch into a new sub-window —
// releasing the run that fell behind the horizon to its stripe's pool and
// taking a run for the new one — and merges a five-sub-window query into
// the stripe's scratch run, both without allocating.
func TestWindowedStoreAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const width = time.Minute
	spec := MustSpec("hll:mbits=512/windowed(width=1m,ring=5)")

	t.Run("rotation", func(t *testing.T) {
		s, err := NewStore[string](spec)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 512)
		items := make([]uint64, len(keys))
		for i := range keys {
			keys[i] = fmt.Sprintf("user-%06x", i)
		}
		// Every batch jumps two sub-windows, so each key releases one
		// expired run and takes one per batch.
		widx := int64(1000)
		feed := func() {
			for i := range items {
				items[i] = uint64(widx)<<32 | uint64(i)
			}
			s.AddBatch64At(at(widx, width), keys, items)
			widx += 2
		}
		for range 8 {
			feed() // materialize keys, size the run pools and scratch
		}
		if allocs := testing.AllocsPerRun(20, feed); allocs != 0 {
			t.Errorf("rotating batch: %.1f allocs/op, want 0", allocs)
		}
	})

	t.Run("window query", func(t *testing.T) {
		s, err := NewStore[string](spec, WithStripes(1))
		if err != nil {
			t.Fatal(err)
		}
		// "hot" holds five live sub-windows; "cold" fell behind the horizon,
		// so its next record releases its sub-windows to the run pool.
		for w := int64(0); w < 3; w++ {
			s.AddStringAt(at(w, width), "cold", "x")
		}
		for w := int64(10); w < 15; w++ {
			for i := 0; i < 50; i++ {
				s.AddStringAt(at(w, width), "hot", fmt.Sprintf("h-%d-%d", w, i))
			}
		}
		s.AddStringAt(at(14, width), "cold", "y")
		var we WindowEstimate
		if allocs := testing.AllocsPerRun(100, func() {
			we, _, _ = s.EstimateWindow("hot", 5*width)
		}); allocs != 0 {
			t.Errorf("EstimateWindow over five sub-windows: %.1f allocs/op, want 0", allocs)
		}
		if we.Windows != 5 {
			t.Errorf("query merged %d sub-windows, want 5", we.Windows)
		}
	})

	// Estimate, EstimateBatch and TopK answer over the whole retention,
	// merging "hot"'s three live sub-windows into the table's scratch run,
	// after "cold"'s rotation gave its two expired runs back to the pool.
	t.Run("point estimates", func(t *testing.T) {
		build := func(spec Spec) *Store[string] {
			s, err := NewStore[string](spec, WithStripes(1))
			if err != nil {
				t.Fatal(err)
			}
			for w := int64(0); w < 2; w++ {
				s.AddStringAt(at(w, width), "cold", "x")
			}
			for w := int64(8); w < 11; w++ {
				for i := 0; i < 50; i++ {
					s.AddStringAt(at(w, width), "hot", fmt.Sprintf("h-%d-%d", w, i))
				}
			}
			s.AddStringAt(at(10, width), "cold", "y")
			return s
		}
		s := build(spec)
		if n := s.stripes[0].tab.rings.runs; n != 4 {
			t.Fatalf("the run pool holds %d runs, want 4: hot's three and cold's newest", n)
		}
		c, _ := s.stripes[0].tab.lookup("hot")
		want := c.Estimate() // merges into the scratch run
		keys, out, ok := []string{"hot"}, make([]float64, 1), make([]bool, 1)
		var est float64
		if allocs := testing.AllocsPerRun(100, func() { est, _ = s.Estimate("hot") }); allocs != 0 {
			t.Errorf("Estimate over three sub-windows: %.1f allocs/op, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.EstimateBatch(keys, out, ok) }); allocs != 0 {
			t.Errorf("EstimateBatch over three sub-windows: %.1f allocs/op, want 0", allocs)
		}
		if est != want || out[0] != want {
			t.Errorf("Estimate %v, EstimateBatch %v; want the ring's own %v", est, out[0], want)
		}
		// TopK's own heap and sort cost the same as on the base kind,
		// whose keys merge nothing.
		plain := build(MustSpec("hll:mbits=512"))
		base := testing.AllocsPerRun(100, func() { plain.TopK(1) })
		if allocs := testing.AllocsPerRun(100, func() { s.TopK(1) }); allocs != base {
			t.Errorf("TopK(1): %.1f allocs/op, want %.1f as on the unwindowed kind", allocs, base)
		}
	})
}

// TestWindowedRunRingsMatchHeapRings is the run rings' safety rail: the
// windowed heap rail's trace — Zipf(1.1)-ranked string keys in one-second
// batches through one-minute sub-windows and rings of 5 — plus
// out-of-order batches inside the horizon, late batches behind it and
// batches fed record by record, through a store of run rings and a twin
// of heap rings (forceHeapCounters), leaves the two bit-identical key by
// key, window span by span and in their watermarks: after ingest, after
// Remove of a third of the keys, after Merge of a second pair crossed
// between the layouts (which the S-bitmap refuses on both), and through
// both restore paths.
func TestWindowedRunRingsMatchHeapRings(t *testing.T) {
	for _, spec := range []string{
		"hll:mbits=512/windowed(width=1m,ring=5)",
		"sbitmap:n=1e4,eps=0.1/windowed(width=1m,ring=5)",
	} {
		t.Run(spec, func(t *testing.T) { runRingsMatchHeapRings(t, MustSpec(spec)) })
	}
}

func runRingsMatchHeapRings(t *testing.T, spec Spec) {
	const nKeys, batches, batchLen = 1 << 13, 640, 512
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("user-%06x", i)
	}
	r := xrand.New(11)
	perm := r.Perm(nKeys)
	zipf := xrand.NewZipf(r, 1.1, nKeys)
	epoch := time.Unix(1_700_000_000, 0)
	feed := func(shift int, stores ...*Store[string]) {
		bk := make([]string, batchLen)
		bi := make([]uint64, batchLen)
		for b := range batches {
			for i := range bk {
				bk[i] = keys[perm[zipf.Next()]]
				bi[i] = uint64(shift)<<32 | uint64(b*batchLen+i)
			}
			ts := epoch.Add(time.Duration(b+shift) * time.Second)
			switch b % 13 {
			case 5:
				ts = ts.Add(-2 * time.Minute) // out of order, inside the horizon
			case 11:
				ts = ts.Add(-7 * time.Minute) // late: behind the horizon
			}
			for _, s := range stores {
				if b%17 == 3 {
					for i := range bk {
						s.AddUint64At(ts, bk[i], bi[i])
					}
				} else {
					s.AddBatch64At(ts, bk, bi)
				}
			}
		}
	}
	pair := func() (*Store[string], *Store[string]) {
		s, err := NewStore[string](spec)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewStore[string](spec)
		if err != nil {
			t.Fatal(err)
		}
		forceHeapCounters(twin)
		return s, twin
	}
	same := func(stage string, a, b *Store[string]) {
		t.Helper()
		checkSlotTables(t, a)
		checkSlotTables(t, b)
		assertStoresIdentical(t, a, b)
		if aw, bw := a.wm.Load(), b.wm.Load(); aw != bw {
			t.Fatalf("%s: watermarks %d and %d", stage, aw, bw)
		}
		var live []string
		a.ForEach(func(k string, _ Counter) bool {
			live = append(live, k)
			return true
		})
		for _, k := range live {
			for n := 1; n <= spec.Ring; n++ {
				span := time.Duration(n) * spec.Window
				wa, _, errA := a.EstimateWindow(k, span)
				wb, _, errB := b.EstimateWindow(k, span)
				if errA != nil || errB != nil || wa != wb {
					t.Fatalf("%s: key %s span %s: %+v (%v), heap rings %+v (%v)", stage, k, span, wa, errA, wb, errB)
				}
			}
		}
	}

	s, twin := pair()
	feed(0, s, twin)
	if s.LateRecords() == 0 || s.LateRecords() != twin.LateRecords() {
		t.Fatalf("late records %d and %d: the trace must fold some", s.LateRecords(), twin.LateRecords())
	}
	same("ingest", s, twin)

	for i := 0; i < nKeys; i += 3 {
		if x, y := s.Remove(keys[i]), twin.Remove(keys[i]); x != y {
			t.Fatalf("Remove(%s): %v, heap rings %v", keys[i], x, y)
		}
	}
	same("remove", s, twin)

	other, otherTwin := pair()
	feed(90, other, otherTwin)
	err1, err2 := s.Merge(otherTwin), twin.Merge(other)
	if spec.Kind == KindSBitmap {
		if !errors.Is(err1, ErrNotMergeable) || !errors.Is(err2, ErrNotMergeable) {
			t.Fatalf("Merge: %v, heap rings %v; want ErrNotMergeable", err1, err2)
		}
	} else if err1 != nil || err2 != nil {
		t.Fatalf("Merge: %v, heap rings %v", err1, err2)
	}
	same("merge", s, twin)

	snap, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := UnmarshalStore[string](snap)
	if err != nil {
		t.Fatal(err)
	}
	same("UnmarshalStore", restored, twin)
	blobs, _, err := s.MarshalStripes(0)
	if err != nil {
		t.Fatal(err)
	}
	restored, _ = pair()
	for _, b := range blobs {
		if _, err := restored.RestoreStripe(b); err != nil {
			t.Fatal(err)
		}
	}
	same("RestoreStripe", restored, twin)
}
