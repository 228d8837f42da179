package sbitmap

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hyperloglog"
	"repro/internal/uhash"
)

func TestSpecStringRoundTrip(t *testing.T) {
	specs := []Spec{
		{Kind: KindSBitmap, N: 1e6, Eps: 0.01},
		{Kind: KindSBitmap, N: 1e6, MemoryBits: 8000},
		{Kind: KindSBitmap, MemoryBits: 30000, Eps: 0.0103},
		{Kind: KindSBitmap, N: 1e5, Eps: 0.02, Seed: 42, Resolution: 30},
		{Kind: KindSBitmap, N: 250000, Eps: 0.05, Hash: "carterwegman"},
		{Kind: KindHLL, MemoryBits: 4096},
		{Kind: KindHLL, N: 1e6, Eps: 0.01},
		{Kind: KindLogLog, MemoryBits: 5120, Seed: 7},
		{Kind: KindFM, MemoryBits: 4096, Hash: "tabulation"},
		{Kind: KindLinearCount, MemoryBits: 4000},
		{Kind: KindVirtualBitmap, N: 1e5, MemoryBits: 4000},
		{Kind: KindMRBitmap, N: 1e5, MemoryBits: 4000},
		{Kind: KindAdaptive, MemoryBits: 8192},
		{Kind: KindExact},
	}
	for _, want := range specs {
		s := want.String()
		got, err := ParseSpec(s)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("round trip %q: got %+v, want %+v", s, got, want)
		}
		// And the canonical form is a fixed point.
		if got.String() != s {
			t.Errorf("String not canonical: %q reparses to %q", s, got.String())
		}
	}
}

func TestParseSpecForms(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"sbitmap:n=1e6,eps=0.01", Spec{Kind: KindSBitmap, N: 1e6, Eps: 0.01}},
		{"sb:n=1e6,eps=0.01", Spec{Kind: KindSBitmap, N: 1e6, Eps: 0.01}},
		{"hyperloglog:mbits=4e3", Spec{Kind: KindHLL, MemoryBits: 4000}},
		{"HLL:mbits=4096", Spec{Kind: KindHLL, MemoryBits: 4096}},
		{"mr:n=1e5,mbits=4000", Spec{Kind: KindMRBitmap, N: 1e5, MemoryBits: 4000}},
		{"lc : mbits=4000", Spec{Kind: KindLinearCount, MemoryBits: 4000}},
		{"exact", Spec{Kind: KindExact}},
		{"sbitmap:n=1e4,eps=0.05,seed=9,hash=tabulation,d=30",
			Spec{Kind: KindSBitmap, N: 1e4, Eps: 0.05, Seed: 9, Hash: "tabulation", Resolution: 30}},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"",
		"nope:mbits=100",
		"sbitmap:n=-3,eps=0.01",
		"sbitmap:n=1e6,eps=0",
		"hll:mbits=0",
		"hll:mbits=4096.5",
		"hll:mbits=4096,unknown=1",
		"hll:mbits",
		"sbitmap:hash=md5",
		"sbitmap:d=65",
		"sbitmap:d=0",
		"sbitmap:seed=-1",
		"sbitmap:eps=1e999", // infinite after ParseFloat
		// Duplicate parameters must not silently let the last one win.
		"hll:mbits=64,mbits=128",
		"sbitmap:n=1e6,eps=0.01,n=1e7",
		"sbitmap:n=1e6,N=1e7,eps=0.01", // case-insensitive duplicate
		"hll:mbits=64, mbits =128",     // whitespace around the duplicate
		"sbitmap:seed=1,seed=1",        // even an identical repeat
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
	if _, err := ParseSpec("hll:mbits=64,mbits=128"); err == nil || !strings.Contains(err.Error(), "duplicate spec parameter") {
		t.Errorf("duplicate error = %v", err)
	}
}

func TestParseSpecDuplicateKeyRoundTrip(t *testing.T) {
	// The canonical String form emits each parameter once, so every valid
	// Spec still round-trips after the duplicate-key rejection.
	specs := []Spec{
		{Kind: KindHLL, MemoryBits: 128},
		{Kind: KindSBitmap, N: 1e6, Eps: 0.01, Seed: 3, Hash: "tabulation", Resolution: 30},
		{Kind: KindMRBitmap, N: 1e5, MemoryBits: 4000, Seed: 11},
	}
	for _, want := range specs {
		s := want.String()
		got, err := ParseSpec(s)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", s, err)
			continue
		}
		if got != want {
			t.Errorf("round trip %q: got %+v, want %+v", s, got, want)
		}
	}
}

func TestSpecNewEveryKind(t *testing.T) {
	// Every Kind constructs through ParseSpec(...).New() and counts with
	// sane accuracy — the acceptance criterion of the API redesign.
	specs := map[Kind]string{
		KindSBitmap:       "sbitmap:n=1e5,eps=0.02",
		KindHLL:           "hll:n=1e5,eps=0.02",
		KindLogLog:        "loglog:n=1e5,eps=0.02",
		KindFM:            "fm:n=1e5,eps=0.02",
		KindLinearCount:   "linearcount:n=1e5,eps=0.02",
		KindVirtualBitmap: "virtualbitmap:n=1e5,eps=0.02",
		KindMRBitmap:      "mrbitmap:n=1e5,eps=0.02",
		KindAdaptive:      "adaptive:n=1e5,eps=0.02",
		KindExact:         "exact",
	}
	for _, kind := range Kinds() {
		s, ok := specs[kind]
		if !ok {
			t.Fatalf("no spec for kind %s — extend this test", kind)
		}
		spec, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		c, err := spec.New()
		if err != nil {
			t.Fatalf("%s: New: %v", kind, err)
		}
		const n = 20000
		for i := uint64(0); i < n; i++ {
			c.AddUint64(i)
			c.AddUint64(i) // duplicates must not matter
		}
		if rel := math.Abs(c.Estimate()/n - 1); rel > 0.35 {
			t.Errorf("%s: estimate %.0f for n=%d", kind, c.Estimate(), n)
		}
		if kind != KindExact && c.SizeBits() <= 0 {
			t.Errorf("%s: SizeBits = %d", kind, c.SizeBits())
		}
	}
}

func TestSpecNewMatchesClassicConstructors(t *testing.T) {
	// The declarative and imperative paths must build identical sketches.
	classic, err := New(1e5, 0.02, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := Spec{Kind: KindSBitmap, N: 1e5, Eps: 0.02, Seed: 5}.New()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30000; i++ {
		classic.AddUint64(i)
		viaSpec.AddUint64(i)
	}
	if classic.Estimate() != viaSpec.Estimate() {
		t.Errorf("spec-built estimate %v != classic %v", viaSpec.Estimate(), classic.Estimate())
	}
	if classic.SizeBits() != viaSpec.SizeBits() {
		t.Errorf("spec-built SizeBits %d != classic %d", viaSpec.SizeBits(), classic.SizeBits())
	}

	hllClassic := &HyperLogLog{registers{sk: *hyperloglog.NewWithHasher(hyperloglog.KBitsForBudget(4096), uhash.NewMixer(5))}}
	hllSpec, err := Spec{Kind: KindHLL, MemoryBits: 4096, Seed: 5}.New()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30000; i++ {
		hllClassic.AddUint64(i)
		hllSpec.AddUint64(i)
	}
	if hllClassic.Estimate() != hllSpec.Estimate() {
		t.Errorf("spec-built HLL estimate %v != classic %v", hllSpec.Estimate(), hllClassic.Estimate())
	}
}

func TestSpecNewErrors(t *testing.T) {
	bad := []Spec{
		{},                          // no kind
		{Kind: "nope"},              // unknown kind
		{Kind: KindSBitmap},         // underdetermined
		{Kind: KindSBitmap, N: 1e6}, // underdetermined
		{Kind: KindSBitmap, N: 1e6, Eps: 0.01, MemoryBits: 8000}, // overdetermined
		{Kind: KindHLL}, // no budget
		{Kind: KindVirtualBitmap, MemoryBits: 4000},       // vb needs n
		{Kind: KindMRBitmap, MemoryBits: 4000},            // mr needs n
		{Kind: KindMRBitmap, N: 1e9, MemoryBits: 64},      // infeasible
		{Kind: KindHLL, MemoryBits: 4096, Resolution: 30}, // d on non-sbitmap
		{Kind: KindHLL, MemoryBits: 4096, Hash: "md5"},    // unknown hash
	}
	for _, spec := range bad {
		if _, err := spec.New(); err == nil {
			t.Errorf("Spec %+v accepted", spec)
		}
	}
}

func TestSpecSBitmapMemEpsDimensioning(t *testing.T) {
	// (mbits, eps) is the third sbdim pairing: N follows from Equation 6.
	c, err := Spec{Kind: KindSBitmap, MemoryBits: 30000, Eps: 0.0103}.New()
	if err != nil {
		t.Fatal(err)
	}
	sb := c.(*SBitmap)
	if sb.SizeBits() != 30000 {
		t.Errorf("SizeBits = %d, want 30000", sb.SizeBits())
	}
	if sb.N() < 0.7e6 || sb.N() > 1.5e6 {
		t.Errorf("derived N = %g, want ≈ 1e6", sb.N())
	}
}

func TestParseKindAliases(t *testing.T) {
	for alias, want := range map[string]Kind{
		"hll": KindHLL, "hyperloglog": KindHLL, "mr": KindMRBitmap,
		"lc": KindLinearCount, "vb": KindVirtualBitmap, "pcsa": KindFM,
		"SBITMAP": KindSBitmap,
	} {
		got, err := ParseKind(alias)
		if err != nil {
			t.Errorf("ParseKind(%q): %v", alias, err)
		} else if got != want {
			t.Errorf("ParseKind(%q) = %s, want %s", alias, got, want)
		}
	}
	if _, err := ParseKind("bloom"); err == nil || !strings.Contains(err.Error(), "unknown sketch kind") {
		t.Errorf("ParseKind(bloom) err = %v", err)
	}
}
