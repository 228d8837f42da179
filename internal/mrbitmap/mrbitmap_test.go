package mrbitmap

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestDimensionProperties(t *testing.T) {
	cfg, err := Dimension(7200, 1.5e6)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.B < 16 || cfg.C < 2 || cfg.Last < 16 {
		t.Fatalf("degenerate layout %+v", cfg)
	}
	// Design point: the last component at n = N runs at load rhoSat —
	// deliberately past setmax — so the boundary failure of Tables 3-4
	// is reproduced.
	reach := 1.5e6 * math.Pow(2, -float64(cfg.C-1))
	load := reach / float64(cfg.Last)
	if load < 1.5 || load > 2.5 {
		t.Errorf("layout %+v: last-component design load %.2f, want ≈ %g", cfg, load, rhoSat)
	}
	// Budget: total bits must not exceed the request.
	total := (cfg.C-1)*cfg.B + cfg.Last
	if total > 7200 {
		t.Errorf("layout %+v uses %d bits > 7200", cfg, total)
	}
	// A tiny cardinality bound yields a single plain bitmap.
	single, err := Dimension(1000, 100)
	if err != nil {
		t.Fatal(err)
	}
	if single.C != 1 || single.Last != 1000 {
		t.Errorf("small-N layout %+v, want single 1000-bit component", single)
	}
	// Errors for impossible requests.
	if _, err := Dimension(10, 1e6); err == nil {
		t.Error("tiny budget accepted")
	}
	if _, err := Dimension(64, 1e18); err == nil {
		t.Error("unreachable N accepted")
	}
	if _, err := Dimension(7200, 0); err == nil {
		t.Error("N=0 accepted")
	}
}

func TestSmallCardinalityAccuracy(t *testing.T) {
	// mr-bitmap's strength (Tables 3-4): very small errors at small n,
	// because small streams land almost entirely in fine components that
	// act like an unsampled linear count.
	cfg, err := Dimension(2700, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{100, 1000} {
		var sum stats.ErrorSummary
		for rep := 0; rep < 300; rep++ {
			s := New(cfg, uint64(rep)+7)
			base := uint64(rep) << 34
			for i := 0; i < n; i++ {
				s.AddUint64(base + uint64(i))
			}
			sum.AddEstimate(s.Estimate(), float64(n))
		}
		if got := sum.RRMSE(); got > 0.06 {
			t.Errorf("n=%d: RRMSE %.4f, want small (< 0.06) per Table 3", n, got)
		}
	}
}

func TestMidRangeUnbiased(t *testing.T) {
	cfg, err := Dimension(6720, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	var sum stats.ErrorSummary
	for rep := 0; rep < 200; rep++ {
		s := New(cfg, uint64(rep)+13)
		base := uint64(rep) << 34
		for i := 0; i < n; i++ {
			s.AddUint64(base + uint64(i))
		}
		sum.AddEstimate(s.Estimate(), n)
	}
	if bias := sum.Bias(); math.Abs(bias) > 0.02 {
		t.Errorf("mid-range bias %.4f, want ≈ 0", bias)
	}
	if got := sum.RRMSE(); got > 0.08 {
		t.Errorf("mid-range RRMSE %.4f, want < 0.08", got)
	}
}

func TestBoundaryBlowUp(t *testing.T) {
	// The paper's Tables 3-4 show mr-bitmap failing catastrophically at
	// n ≥ 0.75·N (L2 ≈ 100×10⁻² = 100%); the reimplementation must
	// reproduce this qualitative boundary failure.
	cfg, err := Dimension(2700, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	var sum stats.ErrorSummary
	saturated := 0
	for rep := 0; rep < 100; rep++ {
		s := New(cfg, uint64(rep)+19)
		base := uint64(rep) << 34
		for i := 0; i < n; i++ {
			s.AddUint64(base + uint64(i))
		}
		if s.Saturated() {
			saturated++
		}
		sum.AddEstimate(s.Estimate(), n)
	}
	if got := sum.RRMSE(); got < 0.3 {
		t.Errorf("boundary RRMSE %.4f; expected blow-up (> 0.3) as in Table 3", got)
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	cfg := Config{B: 64, C: 4}
	s := New(cfg, 3)
	s.AddUint64(555)
	before := s.Estimate()
	for i := 0; i < 1000; i++ {
		if s.AddUint64(555) {
			t.Fatal("duplicate changed a bucket")
		}
	}
	if s.Estimate() != before {
		t.Error("duplicates changed the estimate")
	}
}

func TestComponentsAndSize(t *testing.T) {
	cfg := Config{B: 100, C: 5}
	s := New(cfg, 1)
	if len(s.comps) != 5 {
		t.Errorf("%d components, want 5", len(s.comps))
	}
	// 4 normal × 100 + last 200 = 600.
	if s.SizeBits() != 600 {
		t.Errorf("SizeBits = %d, want 600", s.SizeBits())
	}
}

func TestReset(t *testing.T) {
	cfg := Config{B: 64, C: 3}
	s := New(cfg, 2)
	for i := uint64(0); i < 500; i++ {
		s.AddUint64(i)
	}
	s.Reset()
	if s.Estimate() != 0 {
		t.Errorf("estimate after reset = %g, want 0", s.Estimate())
	}
	if s.Saturated() {
		t.Error("saturated after reset")
	}
}

func TestNewPanics(t *testing.T) {
	for _, cfg := range []Config{{B: 0, C: 3}, {B: 10, C: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: expected panic", cfg)
				}
			}()
			New(cfg, 1)
		}()
	}
}

func BenchmarkAddUint64(b *testing.B) {
	cfg, err := Dimension(7200, 1.5e6)
	if err != nil {
		b.Fatal(err)
	}
	s := New(cfg, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.AddUint64(uint64(i))
	}
}
