package adaptive

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/uhash"
)

func TestSamplerExactWhileUnderCapacity(t *testing.T) {
	// Until the capacity is first exceeded, depth stays 0 and the
	// estimate is exact.
	s := NewSamplerWithHasher(128, uhash.NewMixer(1))
	for i := uint64(0); i < 100; i++ {
		s.AddUint64(i)
	}
	if s.Depth() != 0 {
		t.Errorf("depth = %d before overflow, want 0", s.Depth())
	}
	if got := s.Estimate(); got != 100 {
		t.Errorf("estimate = %g, want exactly 100", got)
	}
}

func TestSamplerAccuracy(t *testing.T) {
	// Flajolet 1990: RRMSE ≈ 1.20/√capacity once sampling kicks in.
	const capacity, n, reps = 256, 50000, 150
	var sum stats.ErrorSummary
	for rep := 0; rep < reps; rep++ {
		s := NewSamplerWithHasher(capacity, uhash.NewMixer(uint64(rep)+3))
		base := uint64(rep) << 36
		for i := 0; i < n; i++ {
			s.AddUint64(base + uint64(i))
		}
		sum.AddEstimate(s.Estimate(), n)
	}
	theory := 1.20 / math.Sqrt(capacity)
	if got := sum.RRMSE(); got > 1.5*theory {
		t.Errorf("RRMSE %.4f, theory ≈ %.4f", got, theory)
	}
	if bias := sum.Bias(); math.Abs(bias) > 0.03 {
		t.Errorf("bias %.4f, want ≈ 0", bias)
	}
}

func TestSamplerInvariants(t *testing.T) {
	s := NewSamplerWithHasher(64, uhash.NewMixer(5))
	for i := uint64(0); i < 100000; i++ {
		s.AddUint64(i)
		if s.SampleSize() > 64 {
			t.Fatalf("sample size %d exceeds capacity", s.SampleSize())
		}
	}
	if s.Depth() == 0 {
		t.Error("depth never increased over 100k items")
	}
}

func TestSamplerDuplicatesIgnored(t *testing.T) {
	s := NewSamplerWithHasher(32, uhash.NewMixer(7))
	s.AddUint64(42)
	size := s.SampleSize()
	for i := 0; i < 1000; i++ {
		if s.AddUint64(42) {
			t.Fatal("duplicate changed the sample")
		}
	}
	if s.SampleSize() != size {
		t.Error("duplicates changed the sample size")
	}
}

func TestSamplerResetSizePanic(t *testing.T) {
	s := NewSamplerWithHasher(16, uhash.NewMixer(1))
	if s.SizeBits() != 16*64 {
		t.Errorf("SizeBits = %d, want 1024", s.SizeBits())
	}
	for i := uint64(0); i < 1000; i++ {
		s.AddUint64(i)
	}
	s.Reset()
	if s.Depth() != 0 || s.SampleSize() != 0 || s.Estimate() != 0 {
		t.Error("reset did not clear sampler")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for capacity < 2")
		}
	}()
	NewSamplerWithHasher(1, uhash.NewMixer(1))
}

func TestCapacityForBits(t *testing.T) {
	if c := CapacityForBits(6400); c != 100 {
		t.Errorf("CapacityForBits(6400) = %d, want 100", c)
	}
	if c := CapacityForBits(1); c != 2 {
		t.Errorf("CapacityForBits(1) = %d, want floor 2", c)
	}
}

func TestDistinctSamplerExactSmall(t *testing.T) {
	s := NewDistinctSampler(64, 3)
	for i := 0; i < 40; i++ {
		s.AddString(fmt.Sprintf("item-%d", i))
	}
	if got := s.Estimate(); got != 40 {
		t.Errorf("estimate = %g, want 40", got)
	}
	if s.SampleSize() != 40 {
		t.Errorf("sample size = %d, want 40", s.SampleSize())
	}
}

func TestDistinctSamplerCounts(t *testing.T) {
	s := NewDistinctSampler(64, 3)
	for i := 0; i < 10; i++ {
		for k := 0; k <= i; k++ {
			s.AddString(fmt.Sprintf("w%d", i))
		}
	}
	// Total stream length = 1+2+...+10 = 55, all retained (under capacity).
	total := uint64(0)
	for _, it := range s.Sample() {
		total += it.Count
	}
	if total != 55 {
		t.Errorf("sampled counts sum to %d, want 55", total)
	}
	for _, it := range s.Sample() {
		var i int
		fmt.Sscanf(it.Key, "w%d", &i)
		if it.Count != uint64(i+1) {
			t.Errorf("%s: count %d, want %d", it.Key, it.Count, i+1)
		}
	}
}

func TestDistinctSamplerAccuracy(t *testing.T) {
	const capacity, n, reps = 256, 30000, 100
	var sum stats.ErrorSummary
	for rep := 0; rep < reps; rep++ {
		s := NewDistinctSampler(capacity, uint64(rep)+9)
		for i := 0; i < n; i++ {
			s.AddString(fmt.Sprintf("r%d-i%d", rep, i))
		}
		sum.AddEstimate(s.Estimate(), n)
	}
	theory := 1.20 / math.Sqrt(capacity)
	if got := sum.RRMSE(); got > 1.5*theory {
		t.Errorf("RRMSE %.4f, theory ≈ %.4f", got, theory)
	}
}

func TestDistinctSamplerCapacityAndReset(t *testing.T) {
	s := NewDistinctSampler(16, 1)
	for i := 0; i < 10000; i++ {
		s.AddString(fmt.Sprintf("x%d", i))
		if s.SampleSize() > 16 {
			t.Fatalf("sample size %d exceeds capacity", s.SampleSize())
		}
	}
	if s.SizeBits() != 16*128 {
		t.Errorf("SizeBits = %d, want 2048", s.SizeBits())
	}
	s.Reset()
	if s.SampleSize() != 0 || s.Depth() != 0 {
		t.Error("reset did not clear")
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for capacity < 2")
		}
	}()
	NewDistinctSampler(0, 1)
}

func BenchmarkSamplerAdd(b *testing.B) {
	s := NewSamplerWithHasher(1024, uhash.NewMixer(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AddUint64(uint64(i))
	}
}
