package linearcount

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestEmptyAndSmall(t *testing.T) {
	s := New(1000, 1)
	if s.Estimate() != 0 {
		t.Errorf("empty estimate = %g, want 0", s.Estimate())
	}
	if s.Saturated() {
		t.Error("empty sketch saturated")
	}
	s.AddUint64(42)
	// One distinct item: exactly one bucket set, estimate m·ln(m/(m-1)) ≈ 1.
	if got := s.Estimate(); math.Abs(got-1) > 0.01 {
		t.Errorf("single-item estimate = %g, want ≈1", got)
	}
	if s.Ones() != 1 {
		t.Errorf("Ones = %d, want 1", s.Ones())
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	s := New(500, 2)
	for i := 0; i < 100; i++ {
		s.AddUint64(7)
		s.AddString("")
		_ = s.Add([]byte("x"))
	}
	if s.Ones() > 3 {
		t.Errorf("duplicates set %d buckets, want ≤ 3", s.Ones())
	}
}

func TestAccuracyAtModerateLoad(t *testing.T) {
	// At load n/m = 1 linear counting should achieve roughly the Whang
	// standard error; verify RRMSE across replicates is within 2× theory.
	const m, n, reps = 4096, 4096, 200
	var sum stats.ErrorSummary
	for rep := 0; rep < reps; rep++ {
		s := New(m, uint64(rep)+11)
		base := uint64(rep) << 40
		for i := 0; i < n; i++ {
			s.AddUint64(base + uint64(i))
		}
		sum.AddEstimate(s.Estimate(), n)
	}
	rho := float64(n) / float64(m)
	theory := math.Sqrt((math.Exp(rho) - rho - 1) / (rho * rho * float64(m)))
	if got := sum.RRMSE(); got > 2*theory || got < theory/3 {
		t.Errorf("RRMSE = %.4f, theory ≈ %.4f", got, theory)
	}
	if bias := sum.Bias(); math.Abs(bias) > 3*theory/math.Sqrt(reps)+0.005 {
		t.Errorf("bias = %.4f, want ≈ 0", bias)
	}
}

func TestSaturation(t *testing.T) {
	s := New(64, 3)
	for i := uint64(0); i < 100000; i++ {
		s.AddUint64(i)
	}
	if !s.Saturated() {
		t.Fatalf("sketch not saturated after 100k items into 64 bits (ones=%d)", s.Ones())
	}
	want := 64 * math.Log(64)
	if got := s.Estimate(); got != want {
		t.Errorf("saturated estimate = %g, want cap %g", got, want)
	}
}

func TestMergeEqualsUnionStream(t *testing.T) {
	// Merging two sketches over disjoint streams must equal one sketch
	// over the concatenated stream (same hasher).
	a := New(2048, 9)
	b := New(2048, 9)
	all := New(2048, 9)
	r := xrand.New(4)
	for i := 0; i < 1000; i++ {
		x := r.Uint64()
		a.AddUint64(x)
		all.AddUint64(x)
	}
	for i := 0; i < 1000; i++ {
		x := r.Uint64()
		b.AddUint64(x)
		all.AddUint64(x)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate() != all.Estimate() {
		t.Errorf("merge estimate %g != union stream estimate %g", a.Estimate(), all.Estimate())
	}
	if err := a.Merge(New(64, 9)); err == nil {
		t.Error("merge of different sizes did not error")
	}
}

func TestResetAndSize(t *testing.T) {
	s := New(256, 1)
	for i := uint64(0); i < 100; i++ {
		s.AddUint64(i)
	}
	s.Reset()
	if s.Ones() != 0 || s.Estimate() != 0 {
		t.Error("reset did not clear sketch")
	}
	if s.SizeBits() != 256 {
		t.Errorf("SizeBits = %d, want 256", s.SizeBits())
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for m < 1")
		}
	}()
	New(0, 1)
}

func BenchmarkAddUint64(b *testing.B) {
	s := New(1<<16, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AddUint64(uint64(i))
	}
}
