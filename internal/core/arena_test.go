package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/uhash"
)

// slab carves n sketches' runs out of one word array, all under one
// Shared — the layout a keyed store's slot table uses.
func slab(sh *Shared, n int) []*Sketch {
	recs := make([]Sketch, n)
	words := make([]uint64, n*sh.RunWords())
	out := make([]*Sketch, n)
	for i := range recs {
		sh.Init(&recs[i], words[i*sh.RunWords():(i+1)*sh.RunWords()])
		out[i] = &recs[i]
	}
	return out
}

// TestArenaSketchEquivalence: a slab-allocated sketch must be
// bit-identical to a heap-constructed one under the same config, seed,
// and input — with neighbors in the same slab ingesting interleaved (no
// cross-talk through the shared word slab or the shared state).
func TestArenaSketchEquivalence(t *testing.T) {
	cfg, err := NewConfigNE(1e4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	const nSketches = 40
	slabbed := slab(NewShared(cfg, 7), nSketches)
	heaped := make([]*Sketch, nSketches)
	for i := range heaped {
		heaped[i] = NewSketch(cfg, 7)
	}
	// Interleaved ingest: round-robin over all sketches so slab neighbors
	// mutate concurrently-in-time (any shared-state bug would cross-talk).
	for round := 0; round < 300; round++ {
		for i := range slabbed {
			item := uint64(round*31+i*7) % 900 // duplicates included
			a := slabbed[i].AddUint64(item)
			b := heaped[i].AddUint64(item)
			if a != b {
				t.Fatalf("sketch %d round %d: slab changed=%v heap changed=%v", i, round, a, b)
			}
		}
	}
	for i := range slabbed {
		// Tail batches through the slab sketch's batch path vs the heap
		// sketch's.
		batch := []uint64{1, 2, 3, uint64(i), uint64(i), 1 << 40}
		if a, b := slabbed[i].AddBatch64(batch), heaped[i].AddBatch64(batch); a != b {
			t.Fatalf("sketch %d: batch changed %d (slab) vs %d (heap)", i, a, b)
		}
		batch = []uint64{uint64(i) << 20, 5, 1 << 41}
		if a, b := slabbed[i].AddBatch64(batch), heaped[i].AddBatch64(batch); a != b {
			t.Fatalf("sketch %d: batch changed %d (slab) vs %d (heap)", i, a, b)
		}
		if slabbed[i].Estimate() != heaped[i].Estimate() {
			t.Fatalf("sketch %d: estimates diverged", i)
		}
		sb, err := slabbed[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		hb, err := heaped[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sb, hb) {
			t.Fatalf("sketch %d: serialized state diverged", i)
		}
	}
}

// TestSharedConcurrentBatches: a Shared is read-only, so sketches under
// one Shared may be batch-fed on goroutines of their own. Eight sketches
// of one slab, each fed uint64 and string batches on its own goroutine,
// each marshal like a NewSketch twin fed the same items; the race
// detector reports any write to the Shared.
func TestSharedConcurrentBatches(t *testing.T) {
	cfg, err := NewConfigNE(1e4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sketches := slab(NewShared(cfg, 7), 8)
	feed := func(s *Sketch, w int) {
		items := make([]uint64, 3*uhash.BatchSize+5)
		strs := make([]string, len(items))
		for i := range items {
			items[i] = uint64(w)<<32 | uint64(i)*0x9e3779b97f4a7c15
			strs[i] = fmt.Sprintf("w%d-%d", w, i)
		}
		s.AddBatch64(items)
		s.AddBatchString(strs)
	}
	var wg sync.WaitGroup
	for w, s := range sketches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				feed(s, w)
			}
		}()
	}
	wg.Wait()
	for w, s := range sketches {
		twin := NewSketch(cfg, 7)
		feed(twin, w)
		got, _ := s.MarshalBinary()
		want, _ := twin.MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Errorf("sketch %d: batch-fed concurrently under one Shared, it differs from its NewSketch twin", w)
		}
	}
}

// TestViewWritesThrough: views bound to one run one at a time act as one
// sketch — each sees what the last wrote, with nothing copied back — and
// match a NewSketch sketch fed the same items.
func TestViewWritesThrough(t *testing.T) {
	cfg, err := NewConfigNE(1e4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShared(cfg, 5)
	run := make([]uint64, sh.RunWords())
	var a, b Sketch
	sh.Init(&a, run)
	ref := NewSketch(cfg, 5)
	for i := uint64(0); i < 3000; i++ {
		v := &a
		if i%2 == 1 {
			v = &b
		}
		sh.View(v, run)
		if got, want := v.AddUint64(i%1700), ref.AddUint64(i%1700); got != want {
			t.Fatalf("item %d: view changed=%v, reference changed=%v", i, got, want)
		}
	}
	sh.View(&b, run)
	if b.L() != ref.L() || b.Estimate() != ref.Estimate() {
		t.Fatalf("view L=%d estimate %g, reference L=%d estimate %g", b.L(), b.Estimate(), ref.L(), ref.Estimate())
	}
	got, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("view's run does not marshal to the reference's bytes")
	}
}

// TestArenaOptions: resolution and hash-family options must reach the
// slabbed sketches exactly as they reach NewSketch.
func TestArenaOptions(t *testing.T) {
	cfg, err := NewConfigNE(1e4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	a := slab(NewShared(cfg, 0, WithResolution(30), WithHasher(uhash.NewTabulation(9))), 1)[0]
	b := NewSketch(cfg, 0, WithResolution(30), WithHasher(uhash.NewTabulation(9)))
	for i := uint64(0); i < 5000; i++ {
		if ca, cb := a.AddUint64(i%1200), b.AddUint64(i%1200); ca != cb {
			t.Fatalf("item %d: slab changed=%v heap changed=%v", i, ca, cb)
		}
	}
	if a.Estimate() != b.Estimate() {
		t.Fatalf("estimates diverged: %g vs %g", a.Estimate(), b.Estimate())
	}
}

// TestArenaAllocAmortized: materializing a sketch in place, or binding a
// view to one, allocates nothing, so a slot table pays only for its slots
// (the root package's TestSBitmapArenaAllocAmortized checks that the
// Store's does), and an in-place sketch's footprint is its handle plus its
// run, the Shared being counted once by whoever holds it.
func TestArenaAllocAmortized(t *testing.T) {
	cfg, err := NewConfigNE(1e4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShared(cfg, 1)
	var rec Sketch
	run := make([]uint64, sh.RunWords())
	if allocs := testing.AllocsPerRun(100, func() { sh.Init(&rec, run) }); allocs != 0 {
		t.Errorf("Shared.Init: %.2f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sh.View(&rec, run) }); allocs != 0 {
		t.Errorf("Shared.View: %.2f allocs/op, want 0", allocs)
	}
	// Shared pointer and run slice header, then the run: L, threshold and
	// the bitmap words.
	const record = 48
	if got, want := rec.Footprint(), record+8*sh.Words(); got != want {
		t.Errorf("in-place sketch footprint %d, want handle + run = %d", got, want)
	}
	own := NewSketch(cfg, 1)
	if got, want := own.Footprint(), record+8*sh.Words()+sh.Footprint(); got != want {
		t.Errorf("NewSketch footprint %d, want record + words + shared = %d", got, want)
	}
}

// TestUnmarshalInto: restoring into a slab record matches UnmarshalSketch,
// rejects foreign parameters without touching the record, and keeps the
// length and popcount checks.
func TestUnmarshalInto(t *testing.T) {
	cfg, err := NewConfigNE(1e4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSketch(cfg, 3)
	for i := uint64(0); i < 700; i++ {
		src.AddUint64(i)
	}
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShared(cfg, 3)
	var rec Sketch
	words := make([]uint64, sh.RunWords())
	if err := sh.UnmarshalInto(&rec, words, blob); err != nil {
		t.Fatalf("UnmarshalInto: %v", err)
	}
	got, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatal("restored record does not re-marshal to the same bytes")
	}
	if rec.AddUint64(1<<50) != src.AddUint64(1<<50) || rec.Estimate() != src.Estimate() {
		t.Fatal("restored record diverged from the original on continued ingest")
	}

	other, err := NewConfigNE(1e4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	foreign := NewShared(other, 3)
	var untouched Sketch
	fw := make([]uint64, foreign.RunWords())
	if err := foreign.UnmarshalInto(&untouched, fw, blob); err == nil {
		t.Fatal("foreign parameters accepted")
	}
	if untouched.sh != nil {
		t.Fatal("foreign parameters: record was written")
	}
	if err := NewShared(cfg, 3, WithResolution(30)).UnmarshalInto(&untouched, words, blob); err == nil {
		t.Fatal("foreign resolution accepted")
	}

	bad := bytes.Clone(blob)
	bad[28]++ // recorded L one above the bitmap's popcount
	if err := sh.UnmarshalInto(&rec, words, bad); err == nil {
		t.Fatal("popcount mismatch accepted")
	}
	if err := sh.UnmarshalInto(&rec, words, blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated body accepted")
	}
}

// TestUnmarshalSketchRejectsBadHeader: a header whose m the body cannot
// hold, or whose resolution is outside [1, 64], is an error before any
// bitmap is sized from it — never a panic or a huge allocation.
func TestUnmarshalSketchRejectsBadHeader(t *testing.T) {
	cfg, err := NewConfigNE(1e4, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := NewSketch(cfg, 1).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	huge := bytes.Clone(blob)
	huge[4+5] = 0x10 // m raised past 2^44 bits, body unchanged
	zeroD := bytes.Clone(blob)
	zeroD[36] = 0
	for name, data := range map[string][]byte{"m beyond body": huge, "d = 0": zeroD} {
		if _, err := UnmarshalSketch(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
