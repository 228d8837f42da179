package hyperloglog

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/uhash"
	"repro/internal/xrand"
)

func TestAccuracyMatchesTheory(t *testing.T) {
	// RRMSE ≈ 1.04/√m in the harmonic-mean regime.
	const kBits, n, reps = 8, 100000, 150 // m = 256
	var sum stats.ErrorSummary
	for rep := 0; rep < reps; rep++ {
		s := New(kBits, uint64(rep)+3)
		base := uint64(rep) << 36
		for i := 0; i < n; i++ {
			s.AddUint64(base + uint64(i))
		}
		sum.AddEstimate(s.Estimate(), n)
	}
	theory := 1.04 / math.Sqrt(1<<kBits)
	if got := sum.RRMSE(); got > 1.4*theory || got < theory/2 {
		t.Errorf("RRMSE = %.4f, theory %.4f", got, theory)
	}
	if bias := sum.Bias(); math.Abs(bias) > 0.03 {
		t.Errorf("bias = %.4f, want ≈ 0", bias)
	}
}

func TestSmallRangeCorrection(t *testing.T) {
	// With n ≪ m the estimator must fall back to linear counting over
	// registers, giving near-exact answers — HLL's fix for LogLog's
	// small-n failure.
	const kBits = 10 // m = 1024
	var sum stats.ErrorSummary
	for rep := 0; rep < 100; rep++ {
		s := New(kBits, uint64(rep)+17)
		base := uint64(rep) << 36
		for i := 0; i < 50; i++ {
			s.AddUint64(base + uint64(i))
		}
		sum.AddEstimate(s.Estimate(), 50)
	}
	if got := sum.RRMSE(); got > 0.2 {
		t.Errorf("small-n RRMSE = %.4f; small-range correction broken?", got)
	}
}

func TestEstimateContinuityAcrossCorrection(t *testing.T) {
	// Walk n across the 2.5m correction boundary and verify no wild jump
	// in a single sketch's estimate sequence.
	s := New(8, 5) // m=256, boundary at 640
	prev := 0.0
	for i := uint64(0); i < 2000; i++ {
		s.AddUint64(i)
		est := s.Estimate()
		if i > 100 && est < prev*0.5 {
			t.Fatalf("estimate collapsed at n=%d: %g -> %g", i+1, prev, est)
		}
		prev = est
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	s := New(6, 2)
	s.AddUint64(999)
	before := s.Estimate()
	for i := 0; i < 500; i++ {
		if s.AddUint64(999) {
			t.Fatal("duplicate grew a register")
		}
	}
	if s.Estimate() != before {
		t.Error("duplicates changed the estimate")
	}
}

func TestMergeEqualsUnionStream(t *testing.T) {
	a, b, all := New(7, 9), New(7, 9), New(7, 9)
	r := xrand.New(8)
	for i := 0; i < 20000; i++ {
		x := r.Uint64()
		if i%3 == 0 {
			a.AddUint64(x)
		} else {
			b.AddUint64(x)
		}
		all.AddUint64(x)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != all.Estimate() {
		t.Errorf("merged %g != union %g", a.Estimate(), all.Estimate())
	}
	if err := a.Merge(New(6, 9)); err == nil {
		t.Error("merge of mismatched m did not error")
	}
}

func TestMemoryBitsForPaperTable2(t *testing.T) {
	// Table 2's HLLog column (unit: 100 bits): (1.04/ε)² registers of α
	// bits; e.g. N = 10³, ε = 1% gives 1.04²·10⁴·4 bits = 432.6.
	printed := []struct {
		n, eps, want float64
	}{
		{1e3, 0.01, 432.6}, {1e4, 0.01, 432.6}, {1e5, 0.01, 540.8},
		{1e6, 0.01, 540.8}, {1e7, 0.01, 540.8},
		{1e3, 0.03, 48.1}, {1e6, 0.03, 60.1},
		{1e3, 0.09, 5.3}, {1e6, 0.09, 6.7},
	}
	for _, c := range printed {
		bits, err := MemoryBitsFor(c.n, c.eps)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(bits) / 100
		if math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("MemoryBitsFor(%g, %g) = %.1f hundred-bits, paper %.1f", c.n, c.eps, got, c.want)
		}
	}
}

func TestRegisterWidthSwitching(t *testing.T) {
	// α = 4 for 2^8 ≤ N < 2^16, α = 5 for 2^16 ≤ N < 2^32.
	if w := registerWidthFor(1000); w != 4 {
		t.Errorf("width(1000) = %d, want 4", w)
	}
	if w := registerWidthFor(1e5); w != 5 {
		t.Errorf("width(1e5) = %d, want 5", w)
	}
	if w := registerWidthFor(1e9); w != 5 {
		t.Errorf("width(1e9) = %d, want 5", w)
	}
	if w := registerWidthFor(100); w != 3 {
		t.Errorf("width(100) = %d, want 3 (clamp)", w)
	}
}

func TestMemoryBitsForErrors(t *testing.T) {
	if _, err := MemoryBitsFor(1e4, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := MemoryBitsFor(1e4, 1); err == nil {
		t.Error("eps=1 accepted")
	}
}

func TestAlphaConstants(t *testing.T) {
	// The original paper's tabulated constants for small m plus the
	// closed form for large m.
	cases := []struct {
		m    int
		want float64
	}{
		{16, 0.673}, {32, 0.697}, {64, 0.709},
		{128, 0.7213 / (1 + 1.079/128)},
		{4096, 0.7213 / (1 + 1.079/4096)},
	}
	for _, c := range cases {
		if got := alpha(c.m); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("alpha(%d) = %v, want %v", c.m, got, c.want)
		}
	}
	// Exercise the small-m constructors end to end.
	for _, k := range []uint{4, 5, 6} {
		s := New(k, 1)
		for i := uint64(0); i < 100000; i++ {
			s.AddUint64(i)
		}
		if rel := math.Abs(s.Estimate()/100000 - 1); rel > 5*s.StdErrTheory() {
			t.Errorf("kBits=%d: estimate %.0f for n=100000 (rel %.3f)", k, s.Estimate(), rel)
		}
	}
}

func TestKBitsForBudget(t *testing.T) {
	cases := []struct {
		mbits int
		want  uint
	}{
		{40000, 12}, {3200, 9}, {800, 7}, {1, 4},
	}
	for _, c := range cases {
		if got := KBitsForBudget(c.mbits); got != c.want {
			t.Errorf("KBitsForBudget(%d) = %d, want %d", c.mbits, got, c.want)
		}
	}
}

func TestSizeResetPanics(t *testing.T) {
	s := New(8, 1)
	if s.M() != 256 || s.SizeBits() != 256*RegisterBits {
		t.Errorf("M=%d SizeBits=%d", s.M(), s.SizeBits())
	}
	if math.Abs(s.StdErrTheory()-1.04/16) > 1e-12 {
		t.Errorf("StdErrTheory = %g", s.StdErrTheory())
	}
	for i := uint64(0); i < 1000; i++ {
		s.AddUint64(i)
	}
	s.Reset()
	if s.Estimate() != 0 {
		t.Errorf("estimate after reset = %g, want 0 (all registers empty → LC of m/m)", s.Estimate())
	}
	for _, k := range []uint{3, 25} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("kBits=%d: expected panic", k)
				}
			}()
			New(k, 1)
		}()
	}
}

// TestSharedRecords: sketches initialized under one Shared — the layout a
// keyed store uses — are bit-identical to New sketches, batch identically
// to them, account only their record and packed registers (a New sketch
// accounts the same record and run plus its Shared), and restore in place
// without building a hasher.
func TestSharedRecords(t *testing.T) {
	sh := NewShared(6, uhash.NewMixer(4))
	recs := make([]Sketch, 8)
	for i := range recs {
		sh.Init(&recs[i], make([]uint64, sh.RunWords()))
		own := New(6, 4)
		items := []uint64{uint64(i), 1, 2, 3, uint64(i) << 30}
		if a, b := recs[i].AddBatch64(items), own.AddBatch64(items); a != b {
			t.Fatalf("sketch %d: batch changed %d (shared) vs %d (own)", i, a, b)
		}
		ab, _ := recs[i].MarshalBinary()
		ob, _ := own.MarshalBinary()
		if !bytes.Equal(ab, ob) {
			t.Fatalf("sketch %d: serialized state diverged", i)
		}
		var rec Sketch
		sh.View(&rec, own.run)
		if got, want := own.Footprint(), rec.Footprint()+sh.Footprint(); got != want {
			t.Errorf("own sketch footprint %d, want record+registers+shared = %d", got, want)
		}
	}
	const record = 32 // shared pointer, run slice header
	if got := recs[0].Footprint(); got != record+40 {
		t.Errorf("shared-state sketch footprint %d, want %d: 64 registers in 5 words", got, record+40)
	}

	blob, _ := recs[3].MarshalBinary()
	var back Sketch
	if err := sh.UnmarshalInto(&back, make([]uint64, sh.RunWords()), blob); err != nil {
		t.Fatal(err)
	}
	if back.Estimate() != recs[3].Estimate() || back.sh != sh {
		t.Fatal("UnmarshalInto did not restore the registers under sh")
	}
	var untouched Sketch
	if err := NewShared(7, uhash.NewMixer(4)).UnmarshalInto(&untouched, make([]uint64, 16), blob); err == nil || untouched.sh != nil {
		t.Fatalf("foreign register count: err=%v, record written=%v", err, untouched.sh != nil)
	}
}

// TestSharedConcurrentBatches: a Shared is read-only, so sketches under
// one Shared may be batch-fed on goroutines of their own. Eight sketches
// initialized under one Shared, each fed uint64 and string batches on its
// own goroutine, each marshal like a New twin fed the same items; the
// race detector reports any write to the Shared.
func TestSharedConcurrentBatches(t *testing.T) {
	sh := NewShared(8, uhash.NewMixer(4))
	sketches := make([]Sketch, 8)
	for i := range sketches {
		sh.Init(&sketches[i], make([]uint64, sh.RunWords()))
	}
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
	for w := range sketches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 20 {
				feed(&sketches[w], w)
			}
		}()
	}
	wg.Wait()
	for w := range sketches {
		twin := New(8, 4)
		feed(twin, w)
		got, _ := sketches[w].MarshalBinary()
		want, _ := twin.MarshalBinary()
		if !bytes.Equal(got, want) {
			t.Errorf("sketch %d: batch-fed concurrently under one Shared, it differs from its New twin", w)
		}
	}
}

func BenchmarkAddUint64(b *testing.B) {
	s := New(12, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AddUint64(uint64(i))
	}
}
