package sbitmap

import (
	"math"
	"testing"

	"repro/internal/stream"
)

func TestNewDimensioning(t *testing.T) {
	sk, err := New(1e6, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if sk.Epsilon() > 0.01*1.0001 {
		t.Errorf("Epsilon = %v, want ≤ 0.01", sk.Epsilon())
	}
	if sk.N() != 1e6 {
		t.Errorf("N = %v", sk.N())
	}
	// The paper's headline: ~30 kilobits for (1e6, 1%).
	if sk.SizeBits() < 25000 || sk.SizeBits() > 35000 {
		t.Errorf("SizeBits = %d, expected ≈ 30k (paper §5.1)", sk.SizeBits())
	}
	m, err := Memory(1e6, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if m != sk.SizeBits() {
		t.Errorf("Memory() = %d, sketch uses %d", m, sk.SizeBits())
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(0, 0.01); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := New(1e6, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewWithMemory(4, 1e6); err == nil {
		t.Error("tiny memory accepted")
	}
	if _, err := Memory(1e6, 2); err == nil {
		t.Error("eps=2 accepted")
	}
	if _, err := Unmarshal([]byte("garbage")); err == nil {
		t.Error("garbage unmarshal accepted")
	}
	if _, err := (Spec{Kind: KindMRBitmap, MemoryBits: 8, N: 1e9}).New(); err == nil {
		t.Error("impossible mr-bitmap accepted")
	}
}

func TestEndToEndAccuracy(t *testing.T) {
	sk, err := New(1e5, 0.02, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	const n = 30000
	s := stream.NewInterleaved(n, 3*n, stream.DupZipf, 9)
	stream.ForEach(s, func(x uint64) { sk.AddUint64(x) })
	if rel := math.Abs(sk.Estimate()/n - 1); rel > 5*0.02 {
		t.Errorf("estimate %v for n=%d (rel err %.3f)", sk.Estimate(), n, rel)
	}
	if sk.FillLevel() == 0 {
		t.Error("FillLevel = 0 after 30k items")
	}
	if sk.Saturated() {
		t.Error("saturated far below N")
	}
	sk.Reset()
	if sk.Estimate() != 0 {
		t.Error("reset did not clear")
	}
}

func TestSeedDeterminism(t *testing.T) {
	a, _ := New(1e4, 0.03, WithSeed(5))
	b, _ := New(1e4, 0.03, WithSeed(5))
	c, _ := New(1e4, 0.03, WithSeed(6))
	diff := false
	for i := uint64(0); i < 2000; i++ {
		a.AddUint64(i)
		b.AddUint64(i)
		c.AddUint64(i)
	}
	if a.Estimate() != b.Estimate() {
		t.Error("same seed produced different estimates")
	}
	if a.FillLevel() != c.FillLevel() {
		diff = true
	}
	_ = diff // different seeds usually differ, but need not; no assertion
}

func TestHashFamilyOptions(t *testing.T) {
	for name, opt := range map[string]Option{
		"carterwegman": WithCarterWegman(),
		"tabulation":   WithTabulation(),
	} {
		sk, err := New(1e4, 0.05, opt, WithSeed(3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := uint64(0); i < 5000; i++ {
			sk.AddUint64(i)
		}
		if rel := math.Abs(sk.Estimate()/5000 - 1); rel > 0.25 {
			t.Errorf("%s: estimate %v for n=5000", name, sk.Estimate())
		}
	}
}

func TestSamplingResolutionOption(t *testing.T) {
	sk, err := New(1e4, 0.05, WithSamplingResolution(30))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		sk.AddUint64(i)
	}
	if rel := math.Abs(sk.Estimate()/5000 - 1); rel > 0.25 {
		t.Errorf("d=30: estimate %v for n=5000", sk.Estimate())
	}
}

func TestMarshalRoundTripFacade(t *testing.T) {
	sk, _ := New(1e4, 0.03, WithSeed(11))
	for i := uint64(0); i < 3000; i++ {
		sk.AddUint64(i)
	}
	blob, err := sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(blob, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if back.Estimate() != sk.Estimate() {
		t.Errorf("restored estimate %v, want %v", back.Estimate(), sk.Estimate())
	}
	// Continue counting on both; they must stay identical.
	for i := uint64(3000); i < 4000; i++ {
		sk.AddUint64(i)
		back.AddUint64(i)
	}
	if back.Estimate() != sk.Estimate() {
		t.Error("restored sketch diverged while counting")
	}
}

func TestBaselinesSatisfyCounter(t *testing.T) {
	build := func(spec string) Counter {
		c, err := MustSpec(spec).New()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	counters := map[string]Counter{
		"lc":       build("linearcount:mbits=4000"),
		"vb":       build("virtualbitmap:mbits=4000,n=1e5"),
		"mr":       build("mrbitmap:mbits=4000,n=1e5"),
		"fm":       build("fm:mbits=4000"),
		"loglog":   build("loglog:mbits=4000"),
		"hll":      build("hll:mbits=4000"),
		"adaptive": build("adaptive:mbits=4000"),
		"exact":    build("exact"),
	}
	for name, c := range counters {
		const n = 5000
		for i := uint64(0); i < n; i++ {
			c.AddUint64(i)
			c.AddUint64(i) // duplicate; must not matter
		}
		est := c.Estimate()
		tol := 0.35
		if name == "exact" {
			tol = 0
		}
		if math.Abs(est/n-1) > tol+1e-12 {
			t.Errorf("%s: estimate %.0f for n=%d", name, est, n)
		}
		if c.SizeBits() <= 0 {
			t.Errorf("%s: SizeBits = %d", name, c.SizeBits())
		}
		c.Reset()
		// FM's empty-state estimate is m/φ and LogLog's is α·m by
		// construction (neither has a small-range correction); every
		// other sketch must read 0 when empty.
		if name != "fm" && name != "loglog" && c.Estimate() != 0 {
			t.Errorf("%s: estimate %.0f after reset", name, c.Estimate())
		}
	}
}

func TestBaselinesHonorHashOptions(t *testing.T) {
	// Spec.New must accept hash-family options without breaking.
	c, err := Spec{Kind: KindHLL, MemoryBits: 4000, Hash: "carterwegman", Seed: 7}.New()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10000; i++ {
		c.AddUint64(i)
	}
	if math.Abs(c.Estimate()/10000-1) > 0.3 {
		t.Errorf("HLL+CW estimate %.0f for n=10000", c.Estimate())
	}
}

func TestScaleInvarianceHeadline(t *testing.T) {
	// The library's headline claim, verified through the public API:
	// same configuration, cardinalities 100 and 100000, same error scale.
	const eps = 0.05
	for _, n := range []int{100, 100_000} {
		var se, count float64
		for rep := 0; rep < 80; rep++ {
			sk, err := New(2e5, eps, WithSeed(uint64(rep)+1))
			if err != nil {
				t.Fatal(err)
			}
			s := stream.NewDistinct(n, uint64(rep)*77+3)
			stream.ForEach(s, func(x uint64) { sk.AddUint64(x) })
			d := sk.Estimate()/float64(n) - 1
			se += d * d
			count++
		}
		rrmse := math.Sqrt(se / count)
		if rrmse > 2*eps || rrmse < eps/3 {
			t.Errorf("n=%d: RRMSE %.4f, want ≈ %.2f", n, rrmse, eps)
		}
	}
}
