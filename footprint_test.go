package sbitmap

import (
	"strings"
	"testing"
)

// TestFootprintEveryKind: every constructible kind reports a positive
// footprint that at least covers its summary statistic, and the bitmap
// kinds stay within a small constant of it (no hidden O(m) side state).
func TestFootprintEveryKind(t *testing.T) {
	for _, kind := range Kinds() {
		spec := Spec{Kind: kind, N: 1e6, Eps: 0.01}
		c, err := spec.New()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		fp := c.Footprint()
		if fp <= 0 {
			t.Errorf("%s: footprint %d, want > 0", kind, fp)
		}
		// Exact and adaptive account per-item state, not a fixed summary;
		// the rest must physically hold at least their SizeBits.
		if kind == KindExact || kind == KindAdaptive {
			continue
		}
		if fp < c.SizeBits()/8 {
			t.Errorf("%s: footprint %d B below summary size %d bits", kind, fp, c.SizeBits())
		}
	}
}

// TestSBitmapFootprintNearBitmap is the paper's headline memory claim made
// of the process: an S-bitmap for 1% error up to 10^6 needs about 30
// kilobits, and the process footprint must be that bitmap plus a small
// constant — not the ~24 bytes-per-bit of auxiliary tables the tabulated
// implementation carried.
func TestSBitmapFootprintNearBitmap(t *testing.T) {
	sk, err := New(1e6, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	bitmapBytes := sk.SizeBits() / 8
	aux := sk.Footprint() - bitmapBytes
	if aux < 0 {
		t.Fatalf("footprint %d below bitmap bytes %d", sk.Footprint(), bitmapBytes)
	}
	if aux > 512 {
		t.Errorf("auxiliary state = %d bytes, want a small constant (≤ 512); footprint %d, bitmap %d",
			aux, sk.Footprint(), bitmapBytes)
	}
}

// TestFootprintStableUnderIngest: for fixed-size sketches the footprint
// must not grow with the stream, batched or per item: a batch borrows its
// hash buffers for the call, so counting more items cannot cost more
// memory.
func TestFootprintStableUnderIngest(t *testing.T) {
	for _, raw := range []string{"sbitmap:n=1e5,eps=0.02", "hll:mbits=8192", "linearcount:mbits=8192"} {
		spec := MustSpec(raw)
		c, err := spec.New()
		if err != nil {
			t.Fatal(err)
		}
		settled := c.Footprint()
		warm := make([]uint64, 256)
		for i := range warm {
			warm[i] = uint64(i)
		}
		AddBatch64(c, warm)
		for i := 0; i < 50_000; i++ {
			c.AddUint64(uint64(i) * 0x9e3779b97f4a7c15)
		}
		if got := c.Footprint(); got != settled {
			kind := raw[:strings.IndexByte(raw, ':')]
			t.Errorf("%s: footprint moved %d → %d during ingest of a fixed-size sketch", kind, settled, got)
		}
	}
}
