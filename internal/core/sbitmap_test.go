package core

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
	"repro/internal/uhash"
	"repro/internal/xrand"
)

func mustConfig(t testing.TB, m int, n float64) *Config {
	t.Helper()
	cfg, err := NewConfigMN(m, n)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestSketchEmpty(t *testing.T) {
	s := NewSketch(mustConfig(t, 500, 1e4), 1)
	if s.L() != 0 || s.B() != 0 || s.Estimate() != 0 {
		t.Errorf("empty sketch: L=%d B=%d est=%g", s.L(), s.B(), s.Estimate())
	}
	if s.Saturated() {
		t.Error("empty sketch reports saturated")
	}
	if s.SizeBits() != 500 {
		t.Errorf("SizeBits = %d, want 500", s.SizeBits())
	}
}

func TestDuplicateInvariance(t *testing.T) {
	// The defining property of the monotone-rate design (Section 3's
	// sufficiency argument): replicates arriving AFTER an item's first
	// appearance never change the sketch state. (The state does depend on
	// the order of first appearances — only the estimate's distribution is
	// order-free — so both sketches see the same first-occurrence order.)
	cfg := mustConfig(t, 400, 1e4)
	distinct := NewSketch(cfg, 7)
	dup := NewSketch(cfg, 7)
	r := xrand.New(55)
	items := make([]uint64, 500)
	for i := range items {
		items[i] = r.Uint64()
		distinct.AddUint64(items[i])
		dup.AddUint64(items[i])
	}
	// Replay the whole stream several times in random order; nothing may
	// change.
	for round := 0; round < 5; round++ {
		perm := r.Perm(len(items))
		for _, idx := range perm {
			if dup.AddUint64(items[idx]) {
				t.Fatalf("round %d: replayed duplicate changed the sketch", round)
			}
		}
	}
	if distinct.L() != dup.L() {
		t.Errorf("duplication changed L: %d vs %d", distinct.L(), dup.L())
	}
	if distinct.Estimate() != dup.Estimate() {
		t.Errorf("duplication changed estimate: %g vs %g", distinct.Estimate(), dup.Estimate())
	}
}

func TestDuplicateInvarianceProperty(t *testing.T) {
	cfg := mustConfig(t, 128, 2000)
	f := func(seed uint64, nItems uint8) bool {
		n := int(nItems)%64 + 1
		a := NewSketch(cfg, seed)
		b := NewSketch(cfg, seed)
		r := xrand.New(seed)
		items := make([]uint64, n)
		for i := range items {
			items[i] = r.Uint64()
			a.AddUint64(items[i])
		}
		// b sees each item i+1 times, shuffled.
		var replay []uint64
		for i, it := range items {
			for k := 0; k <= i%3; k++ {
				replay = append(replay, it)
			}
		}
		r.Shuffle(len(replay), func(i, j int) { replay[i], replay[j] = replay[j], replay[i] })
		// Ensure every item appears at least once in replay.
		for _, it := range items {
			b.AddUint64(it)
			_ = it
		}
		for _, it := range replay {
			b.AddUint64(it)
		}
		return a.L() == b.L() && a.Estimate() == b.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestAddReturnValueTracksL(t *testing.T) {
	s := NewSketch(mustConfig(t, 300, 5000), 3)
	r := xrand.New(9)
	changes := 0
	for i := 0; i < 2000; i++ {
		if s.AddUint64(r.Uint64()) {
			changes++
		}
		if changes != s.L() {
			t.Fatalf("after %d adds: %d reported changes but L=%d", i+1, changes, s.L())
		}
	}
}

func TestAddStringMatchesBytes(t *testing.T) {
	cfg := mustConfig(t, 200, 1000)
	a := NewSketch(cfg, 5)
	b := NewSketch(cfg, 5)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", ""}
	for _, w := range words {
		a.AddString(w)
		b.Add([]byte(w))
	}
	if a.L() != b.L() || a.Estimate() != b.Estimate() {
		t.Errorf("string path diverged: L %d vs %d", a.L(), b.L())
	}
}

func TestAddUint64MatchesBytes(t *testing.T) {
	cfg := mustConfig(t, 200, 1000)
	a := NewSketch(cfg, 5)
	b := NewSketch(cfg, 5)
	for i := uint64(0); i < 300; i++ {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], i)
		a.AddUint64(i)
		b.Add(buf[:])
	}
	if a.L() != b.L() {
		t.Errorf("uint64 path diverged from byte path: L %d vs %d", a.L(), b.L())
	}
}

func TestEstimateMonotoneInL(t *testing.T) {
	s := NewSketch(mustConfig(t, 300, 5000), 11)
	prevL, prevEst := 0, 0.0
	for i := uint64(0); i < 4000; i++ {
		s.AddUint64(i)
		if s.L() < prevL {
			t.Fatal("L decreased")
		}
		if s.L() > prevL && s.Estimate() < prevEst {
			t.Fatalf("estimate decreased while L grew: %g -> %g", prevEst, s.Estimate())
		}
		prevL, prevEst = s.L(), s.Estimate()
	}
}

func TestSaturationCapsEstimate(t *testing.T) {
	cfg := mustConfig(t, 100, 500)
	s := NewSketch(cfg, 13)
	for i := uint64(0); i < 100000; i++ {
		s.AddUint64(i)
	}
	if !s.Saturated() {
		t.Fatalf("sketch not saturated after 200×N items (L=%d, kMax=%d)", s.L(), s.KMaxForTest())
	}
	if s.Estimate() > cfg.N()*1.0001 {
		t.Errorf("estimate %g exceeds N=%g despite truncation", s.Estimate(), cfg.N())
	}
	if s.B() != cfg.KMax() {
		t.Errorf("B = %d, want kMax = %d", s.B(), cfg.KMax())
	}
}

// KMaxForTest exposes the truncation point for test diagnostics.
func (s *Sketch) KMaxForTest() int { return s.sh.cfg.kMax }

func TestMonteCarloUnbiasedAndScaleInvariant(t *testing.T) {
	// End-to-end statistical check of Theorem 3 with real hashing: across
	// n spanning 3 decades, empirical RRMSE must sit near ε and the mean
	// near n. 400 replicates bound the RRMSE estimate's own noise at
	// ~ε/sqrt(2·400) ≈ 3.5% relative, so a 15% band is comfortable.
	cfg := mustConfig(t, 800, 1<<17)
	eps := cfg.Epsilon()
	const reps = 400
	for _, n := range []int{100, 1000, 10000, 100000} {
		var sum stats.ErrorSummary
		for rep := 0; rep < reps; rep++ {
			s := NewSketch(cfg, uint64(1000*n+rep))
			base := uint64(n) * uint64(rep+1) * 2654435761
			for i := 0; i < n; i++ {
				s.AddUint64(base + uint64(i))
			}
			sum.AddEstimate(s.Estimate(), float64(n))
		}
		if got := sum.RRMSE(); math.Abs(got-eps)/eps > 0.15 {
			t.Errorf("n=%d: empirical RRMSE %.4f vs theory %.4f", n, got, eps)
		}
		if bias := sum.Bias(); math.Abs(bias) > 3*eps/math.Sqrt(reps)+0.01*eps {
			t.Errorf("n=%d: bias %.5f too large", n, bias)
		}
	}
}

func TestHasherAblationAgreement(t *testing.T) {
	// The estimate distribution must be insensitive to the hash family
	// (supporting the paper's universal-hash modeling assumption). Run a
	// moderate Monte-Carlo per family and compare RRMSE.
	cfg := mustConfig(t, 600, 1e5)
	const n, reps = 20000, 120
	families := map[string]func(seed uint64) uhash.Hasher{
		"mixer":        func(s uint64) uhash.Hasher { return uhash.NewMixer(s) },
		"carterwegman": func(s uint64) uhash.Hasher { return uhash.NewCarterWegman(s) },
		"tabulation":   func(s uint64) uhash.Hasher { return uhash.NewTabulation(s) },
	}
	eps := cfg.Epsilon()
	for name, mk := range families {
		var sum stats.ErrorSummary
		for rep := 0; rep < reps; rep++ {
			s := NewSketch(cfg, 0, WithHasher(mk(uint64(rep)+77)))
			base := uint64(rep) << 32
			for i := 0; i < n; i++ {
				s.AddUint64(base + uint64(i))
			}
			sum.AddEstimate(s.Estimate(), n)
		}
		if got := sum.RRMSE(); math.Abs(got-eps)/eps > 0.3 {
			t.Errorf("%s: RRMSE %.4f vs theory %.4f", name, got, eps)
		}
	}
}

func TestResolutionD30MatchesD64(t *testing.T) {
	// d=30 (the paper's implementation) must behave like full resolution
	// at these rate scales.
	cfg := mustConfig(t, 600, 1e5)
	const n, reps = 20000, 120
	eps := cfg.Epsilon()
	for _, d := range []uint{30, 64} {
		var sum stats.ErrorSummary
		for rep := 0; rep < reps; rep++ {
			s := NewSketch(cfg, uint64(rep)+123, WithResolution(d))
			base := uint64(rep) << 33
			for i := 0; i < n; i++ {
				s.AddUint64(base + uint64(i))
			}
			sum.AddEstimate(s.Estimate(), n)
		}
		if got := sum.RRMSE(); math.Abs(got-eps)/eps > 0.3 {
			t.Errorf("d=%d: RRMSE %.4f vs theory %.4f", d, got, eps)
		}
	}
}

func TestRateThreshold(t *testing.T) {
	if rateThreshold(1, 64) != math.MaxUint64 {
		t.Error("p=1 must accept everything")
	}
	if rateThreshold(0, 64) != 0 {
		t.Error("p=0 must accept nothing")
	}
	// p=0.5 at d=1: one of two values accepted → threshold 2^63.
	if got := rateThreshold(0.5, 1); got != 1<<63 {
		t.Errorf("rateThreshold(0.5, 1) = %#x, want 1<<63", got)
	}
	// Ceiling semantics: any p in (0, 2^-d] accepts exactly one value.
	if got := rateThreshold(1e-12, 4); got != 1<<60 {
		t.Errorf("rateThreshold(tiny, 4) = %#x, want 1<<60", got)
	}
	// Near-1 p at d=64 must not overflow to 0.
	if got := rateThreshold(1-1e-18, 64); got != math.MaxUint64 {
		t.Errorf("rateThreshold(1-1e-18, 64) = %#x", got)
	}
}

func TestResolutionPanics(t *testing.T) {
	cfg := mustConfig(t, 100, 1000)
	for _, d := range []uint{0, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("d=%d: expected panic", d)
				}
			}()
			NewSketch(cfg, 1, WithResolution(d))
		}()
	}
}

func TestReset(t *testing.T) {
	s := NewSketch(mustConfig(t, 200, 2000), 1)
	for i := uint64(0); i < 500; i++ {
		s.AddUint64(i)
	}
	if s.L() == 0 {
		t.Fatal("no bits set before reset")
	}
	s.Reset()
	if s.L() != 0 || s.Estimate() != 0 {
		t.Errorf("after reset: L=%d est=%g", s.L(), s.Estimate())
	}
	// The sketch must be reusable and deterministic after reset.
	s.AddUint64(42)
	l1 := s.L()
	s.Reset()
	s.AddUint64(42)
	if s.L() != l1 {
		t.Error("reset sketch not deterministic")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	cfg := mustConfig(t, 400, 1e4)
	s := NewSketch(cfg, 21)
	for i := uint64(0); i < 3000; i++ {
		s.AddUint64(i)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSketch(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.L() != s.L() {
		t.Errorf("L after round trip: %d, want %d", got.L(), s.L())
	}
	if got.Estimate() != s.Estimate() {
		t.Errorf("estimate after round trip: %g, want %g", got.Estimate(), s.Estimate())
	}
	if got.Config().M() != cfg.M() || math.Abs(got.Config().C()-cfg.C()) > 1e-9 {
		t.Error("config not reconstructed")
	}
	// Continuing with the same hasher must match the original exactly.
	cont, err := UnmarshalSketch(data, WithHasher(uhash.NewMixer(21)))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(3000); i < 4000; i++ {
		s.AddUint64(i)
		cont.AddUint64(i)
	}
	if cont.L() != s.L() || cont.Estimate() != s.Estimate() {
		t.Error("continued sketch diverged from original")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	s := NewSketch(mustConfig(t, 200, 2000), 1)
	for i := uint64(0); i < 100; i++ {
		s.AddUint64(i)
	}
	data, _ := s.MarshalBinary()
	cases := map[string]func([]byte) []byte{
		"truncated":  func(d []byte) []byte { return d[:10] },
		"bad magic":  func(d []byte) []byte { d[0] ^= 0xff; return d },
		"bad length": func(d []byte) []byte { return d[:len(d)-4] },
		"bad L":      func(d []byte) []byte { d[28] ^= 0x01; return d },
		"bad C": func(d []byte) []byte {
			d[20] = 0
			d[21] = 0
			d[22] = 0
			d[23] = 0
			d[24] = 0
			d[25] = 0
			d[26] = 0
			d[27] = 0
			return d
		},
	}
	for name, corrupt := range cases {
		bad := corrupt(append([]byte(nil), data...))
		if _, err := UnmarshalSketch(bad); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestSmallCardinalityExactness(t *testing.T) {
	// For n = 1..10 with p_1 close to 1, estimates must be within a few
	// buckets' worth; in particular a single item must give an estimate
	// near 1, not 0 (Table 3's n=10 row shows errors ≈ ε there).
	cfg := mustConfig(t, 2700, 1e4) // Table 3 configuration, ε ≈ 2.6%
	var sum stats.ErrorSummary
	for rep := 0; rep < 300; rep++ {
		s := NewSketch(cfg, uint64(rep))
		s.AddUint64(uint64(rep) * 7919)
		sum.AddEstimate(s.Estimate(), 1)
	}
	if got := sum.RRMSE(); got > 3*cfg.Epsilon() {
		t.Errorf("n=1: RRMSE %.4f, want near ε = %.4f", got, cfg.Epsilon())
	}
}

func BenchmarkSketchAddUint64(b *testing.B) {
	cfg, err := NewConfigMN(8000, 1e6)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSketch(cfg, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddUint64(uint64(i))
	}
}

func BenchmarkSketchAddDuplicates(b *testing.B) {
	cfg, err := NewConfigMN(8000, 1e6)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSketch(cfg, 1)
	for i := uint64(0); i < 1e5; i++ {
		s.AddUint64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddUint64(uint64(i) % 1e5) // all duplicates
	}
}

func BenchmarkEstimate(b *testing.B) {
	cfg, err := NewConfigMN(8000, 1e6)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSketch(cfg, 1)
	for i := uint64(0); i < 1e5; i++ {
		s.AddUint64(i)
	}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = s.Estimate()
	}
	_ = sink
}
