package sbitmap

import (
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"
)

// addSome feeds n distinct 64-bit items offset by base.
func addSome(c Counter, base, n uint64) {
	for i := uint64(0); i < n; i++ {
		c.AddUint64(base + i)
	}
}

func TestMarshalRoundTripEveryKind(t *testing.T) {
	specs := []string{
		"sbitmap:n=1e5,eps=0.02",
		"sbitmap:n=1e5,eps=0.02,d=30",
		"hll:mbits=4096",
		"loglog:mbits=4096",
		"fm:mbits=4096",
		"linearcount:mbits=4000",
		"virtualbitmap:n=1e5,mbits=4000",
		"mrbitmap:n=1e5,mbits=4000",
		"adaptive:mbits=8192",
		"exact",
	}
	for _, s := range specs {
		spec := MustSpec(s)
		c, err := spec.New()
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		addSome(c, 0, 5000)

		blob, err := Marshal(c)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", s, err)
		}
		back, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", s, err)
		}
		if back.Estimate() != c.Estimate() {
			t.Errorf("%s: restored estimate %v, want %v", s, back.Estimate(), c.Estimate())
		}
		if back.SizeBits() != c.SizeBits() {
			t.Errorf("%s: restored SizeBits %d, want %d", s, back.SizeBits(), c.SizeBits())
		}

		// Continue counting on both; default seeds were used throughout,
		// so the restored sketch must stay in lockstep.
		addSome(c, 5000, 2000)
		addSome(back, 5000, 2000)
		if back.Estimate() != c.Estimate() {
			t.Errorf("%s: restored sketch diverged while counting", s)
		}

		// A second marshal of the restored counter is byte-identical — the
		// serialization is canonical.
		blob2, err := Marshal(back)
		if err != nil {
			t.Fatalf("%s: re-Marshal: %v", s, err)
		}
		blob1, err := Marshal(c)
		if err != nil {
			t.Fatalf("%s: re-Marshal original: %v", s, err)
		}
		if string(blob1) != string(blob2) {
			t.Errorf("%s: serialization not canonical after round trip", s)
		}
	}
}

func TestMarshalRoundTripCustomHashAndSeed(t *testing.T) {
	c, err := MustSpec("hll:mbits=4096,seed=9,hash=carterwegman").New()
	if err != nil {
		t.Fatal(err)
	}
	addSome(c, 0, 8000)
	blob, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(blob, WithSeed(9), WithCarterWegman())
	if err != nil {
		t.Fatal(err)
	}
	if back.Estimate() != c.Estimate() {
		t.Fatalf("restored estimate %v, want %v", back.Estimate(), c.Estimate())
	}
	addSome(c, 8000, 3000)
	addSome(back, 8000, 3000)
	if back.Estimate() != c.Estimate() {
		t.Error("restored sketch diverged under custom hash options")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("x"), []byte("garbage-that-is-long-enough")} {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("Unmarshal(%q) accepted", data)
		}
	}
	// A valid envelope of one kind must not unmarshal in place as another.
	c, _ := MustSpec("hll:mbits=4096").New()
	blob, _ := Marshal(c)
	var ll LogLog
	if err := ll.UnmarshalBinary(blob); err == nil {
		t.Error("LogLog.UnmarshalBinary accepted an hll snapshot")
	}
}

func TestUnmarshalCorruptSnapshotsFailCleanly(t *testing.T) {
	// Corrupt headers must error, never panic or mis-restore: an exact
	// snapshot whose count would overflow the length check (16·count
	// wraps to 0), and an adaptive snapshot with an impossible depth.
	exactPayload := make([]byte, 8)
	for i, b := range []byte{0, 0, 0, 0, 0, 0, 0, 0x10} { // count = 1<<60
		exactPayload[i] = b
	}
	if _, err := Unmarshal(appendEnvelope(KindExact, exactPayload)); err == nil {
		t.Error("overflowing exact count accepted")
	}
	adaptivePayload := make([]byte, 16)
	adaptivePayload[0] = 8                                  // capacity 8
	copy(adaptivePayload[4:8], []byte{0, 0xca, 0x9a, 0x3b}) // depth ≈ 1e9
	if _, err := Unmarshal(appendEnvelope(KindAdaptive, adaptivePayload)); err == nil {
		t.Error("adaptive depth beyond 64 accepted")
	}
}

// TestUnmarshalAdaptiveClaimedCapacity: an adaptive snapshot's capacity is
// a claim of its input, not a size to allocate. A 22-byte envelope that
// claims capacity 2^22 and retains no hashes decodes in under 1 MB of
// allocation (a set sized by the claim took 151 MB), and the sampler it
// yields counts.
func TestUnmarshalAdaptiveClaimedCapacity(t *testing.T) {
	payload := make([]byte, 16) // depth 0, no retained hashes
	binary.LittleEndian.PutUint32(payload, 1<<22)
	blob := appendEnvelope(KindAdaptive, payload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Unmarshal(blob)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("decoding a %d-byte adaptive snapshot allocated %d B, want under 1 MB", len(blob), got)
	}
	if !c.AddUint64(7) || c.Estimate() != 1 {
		t.Errorf("decoded sampler: estimate %v after one item, want 1", c.Estimate())
	}
}

func TestUnmarshalLegacySBitmapFormat(t *testing.T) {
	// Pre-envelope snapshots (bare internal/core format) must keep
	// loading: deployed checkpoints survive the API redesign.
	sk, _ := New(1e4, 0.03, WithSeed(11))
	for i := uint64(0); i < 3000; i++ {
		sk.AddUint64(i)
	}
	legacy, err := sk.sk.MarshalBinary() // the old MarshalBinary emitted this
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(legacy, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if back.Estimate() != sk.Estimate() {
		t.Errorf("legacy restore estimate %v, want %v", back.Estimate(), sk.Estimate())
	}
}

func TestUnmarshalBinaryInPlace(t *testing.T) {
	c, _ := MustSpec("hll:mbits=4096").New()
	addSome(c, 0, 5000)
	blob, _ := Marshal(c)
	var h HyperLogLog
	if err := h.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if h.Estimate() != c.Estimate() {
		t.Errorf("in-place restore estimate %v, want %v", h.Estimate(), c.Estimate())
	}

	sb, _ := New(1e4, 0.03)
	for i := uint64(0); i < 2000; i++ {
		sb.AddUint64(i)
	}
	blob, _ = sb.MarshalBinary()
	var sb2 SBitmap
	if err := sb2.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if sb2.Estimate() != sb.Estimate() {
		t.Errorf("in-place S-bitmap restore estimate %v, want %v", sb2.Estimate(), sb.Estimate())
	}
}

func TestMergeableCounters(t *testing.T) {
	mergeable := []string{"hll:mbits=4096", "loglog:mbits=4096", "fm:mbits=4096",
		"linearcount:mbits=16000", "mrbitmap:n=1e5,mbits=8000"}
	for _, s := range mergeable {
		a, err := MustSpec(s).New()
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		b, _ := MustSpec(s).New()
		addSome(a, 0, 6000)
		addSome(b, 3000, 6000) // union is 9000 distinct
		if err := Merge(a, b); err != nil {
			t.Fatalf("%s: Merge: %v", s, err)
		}
		if rel := math.Abs(a.Estimate()/9000 - 1); rel > 0.35 {
			t.Errorf("%s: merged estimate %.0f, want ≈ 9000", s, a.Estimate())
		}
	}

	// Not union-capable: S-bitmap, virtual bitmap, adaptive, exact.
	for _, s := range []string{"sbitmap:n=1e4,eps=0.05", "virtualbitmap:n=1e4,mbits=4000",
		"adaptive:mbits=4096", "exact"} {
		a, _ := MustSpec(s).New()
		b, _ := MustSpec(s).New()
		if err := Merge(a, b); !errors.Is(err, ErrNotMergeable) {
			t.Errorf("%s: Merge err = %v, want ErrNotMergeable", s, err)
		}
	}

	// Cross-kind merges fail typed too.
	hll, _ := MustSpec("hll:mbits=4096").New()
	ll, _ := MustSpec("loglog:mbits=4096").New()
	if err := Merge(hll, ll); !errors.Is(err, ErrNotMergeable) {
		t.Errorf("cross-kind merge err = %v, want ErrNotMergeable", err)
	}
}
