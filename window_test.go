package sbitmap

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// at builds the record timestamp that lands in sub-window widx of the
// given width (its midpoint, so off-by-one boundary bugs show).
func at(widx int64, width time.Duration) time.Time {
	return time.Unix(0, widx*int64(width)+int64(width)/2)
}

func TestWindowedSpecRoundTrip(t *testing.T) {
	specs := []Spec{
		{Kind: KindHLL, MemoryBits: 2048, Window: time.Minute, Ring: 5},
		{Kind: KindHLL, MemoryBits: 2048, Window: 30 * time.Second, Ring: 1},
		{Kind: KindSBitmap, N: 1e6, Eps: 0.01, Window: time.Minute, Ring: 60},
		{Kind: KindLogLog, MemoryBits: 1536, Seed: 7, Window: 90 * time.Second, Ring: 12},
		{Kind: KindExact, Window: time.Hour, Ring: 24},
		{Kind: KindMRBitmap, N: 1e5, MemoryBits: 4000, Window: 1500 * time.Millisecond, Ring: 3},
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
		if got.String() != s {
			t.Errorf("String not canonical: %q reparses to %q", s, got.String())
		}
		if !got.Windowed() {
			t.Errorf("%q: Windowed() = false", s)
		}
		if want := want.Window * time.Duration(want.Ring); got.Retention() != want {
			t.Errorf("%q: Retention() = %v, want %v", s, got.Retention(), want)
		}
	}
	// Omitted ring defaults to DefaultWindowRing at parse time.
	got, err := ParseSpec("hll:mbits=2048/windowed(width=1m)")
	if err != nil {
		t.Fatal(err)
	}
	if got.Ring != DefaultWindowRing {
		t.Errorf("default ring = %d, want %d", got.Ring, DefaultWindowRing)
	}
	if ParseSpecMust := MustSpec(got.String()); ParseSpecMust != got {
		t.Errorf("defaulted spec does not round-trip: %+v vs %+v", ParseSpecMust, got)
	}
}

func TestWindowedSpecErrors(t *testing.T) {
	bad := []string{
		"hll:mbits=2048/windowed",                            // no parenthesized body
		"hll:mbits=2048/windowed()",                          // empty: width missing
		"hll:mbits=2048/windowed(ring=5)",                    // width missing
		"hll:mbits=2048/windowed(width=0s)",                  // width not positive
		"hll:mbits=2048/windowed(width=-1m)",                 // width negative
		"hll:mbits=2048/windowed(width=nope)",                // width not a duration
		"hll:mbits=2048/windowed(width=1m,width=2m)",         // duplicate width
		"hll:mbits=2048/windowed(width=1m,ring=2,ring=2)",    // duplicate ring
		"hll:mbits=2048/windowed(width=1m,ring=0)",           // ring below 1
		"hll:mbits=2048/windowed(width=1m,ring=-3)",          // ring negative
		"hll:mbits=2048/windowed(width=1m,ring=65537)",       // ring above cap
		"hll:mbits=2048/windowed(width=1m,ring=1.5)",         // ring not integer
		"hll:mbits=2048/windowed(width=1m,depth=3)",          // unknown parameter
		"hll:mbits=2048/windowed(width=1m",                   // unterminated
		"hll:mbits=2048/windowed(width)",                     // not key=value
		"hll:mbits=2048/tumbling(width=1m)",                  // unknown modifier
		"hll:mbits=2048/windowed(width=2562047h,ring=65535)", // retention overflows
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestWindowedSpecConstruction(t *testing.T) {
	spec := MustSpec("hll:mbits=2048/windowed(width=1s,ring=3)")
	// A windowed spec is a Store-only shape: a single Counter has no keys
	// to hang rings off.
	if _, err := spec.New(); err == nil {
		t.Error("Spec.New accepted a windowed spec")
	}
	if _, err := NewStore[string](spec); err != nil {
		t.Errorf("NewStore refused a windowed spec: %v", err)
	}
	// Ring without Window is an invalid hand-built Spec.
	if _, err := NewStore[string](Spec{Kind: KindHLL, MemoryBits: 2048, Ring: 4}); err == nil {
		t.Error("NewStore accepted Ring without Window")
	}
	if _, err := (Spec{Kind: KindHLL, MemoryBits: 2048, Ring: 4}).New(); err == nil {
		t.Error("Spec.New accepted Ring without Window")
	}
	if _, err := NewStore[string](Spec{Kind: KindHLL, MemoryBits: 2048, Window: -time.Second}); err == nil {
		t.Error("NewStore accepted a negative Window")
	}
}

func TestEstimateWindowMergeOnQuery(t *testing.T) {
	// Merge-on-query must agree with a hand-built union of the covering
	// sub-windows: same seed, same items, merged through the same Merge
	// helper.
	const width = time.Second
	spec := MustSpec("hll:mbits=2048,seed=9/windowed(width=1s,ring=4)")
	s, err := NewStore[string](spec, WithStripes(3))
	if err != nil {
		t.Fatal(err)
	}
	base := spec
	base.Window, base.Ring = 0, 0
	perWindow := make(map[int64]Counter)
	for widx := int64(0); widx < 4; widx++ {
		c, err := base.New()
		if err != nil {
			t.Fatal(err)
		}
		perWindow[widx] = c
		for i := 0; i < 300; i++ {
			item := fmt.Sprintf("item-%d-%d", widx, i%200) // duplicates inside a window
			s.AddStringAt(at(widx, width), "k", item)
			c.AddString(item)
		}
	}
	for span := time.Second; span <= 4*time.Second; span += time.Second {
		we, ok, err := s.EstimateWindow("k", span)
		if err != nil || !ok {
			t.Fatalf("EstimateWindow(%v): ok=%v err=%v", span, ok, err)
		}
		n := int64(span / width)
		ref, err := base.New()
		if err != nil {
			t.Fatal(err)
		}
		for widx := 4 - n; widx < 4; widx++ {
			if err := Merge(ref, perWindow[widx]); err != nil {
				t.Fatal(err)
			}
		}
		if we.Estimate != ref.Estimate() {
			t.Errorf("span %v: estimate %.3f, reference union %.3f", span, we.Estimate, ref.Estimate())
		}
		if we.Tumbling {
			t.Errorf("span %v: mergeable kind marked tumbling", span)
		}
		if we.Windows != int(n) {
			t.Errorf("span %v: Windows = %d, want %d", span, we.Windows, n)
		}
		if want := time.Unix(0, (4-n)*int64(width)); !we.Start.Equal(want) {
			t.Errorf("span %v: Start = %v, want %v", span, we.Start, want)
		}
		if want := time.Unix(0, 4*int64(width)); !we.End.Equal(want) {
			t.Errorf("span %v: End = %v, want %v", span, we.End, want)
		}
		// A sub-second span still needs one whole sub-window.
		if n == 1 {
			half, _, err := s.EstimateWindow("k", width/2)
			if err != nil {
				t.Fatal(err)
			}
			if half.Estimate != we.Estimate {
				t.Errorf("ceil(span/width): %v estimate %.3f != %v estimate %.3f", width/2, half.Estimate, span, we.Estimate)
			}
		}
	}
}

func TestEstimateWindowErrors(t *testing.T) {
	s, err := NewStore[string](MustSpec("hll:mbits=2048/windowed(width=1s,ring=3)"))
	if err != nil {
		t.Fatal(err)
	}
	s.AddStringAt(at(0, time.Second), "k", "x")
	if _, _, err := s.EstimateWindow("k", 0); !errors.Is(err, ErrWindowSpan) {
		t.Errorf("span 0: err = %v, want ErrWindowSpan", err)
	}
	if _, _, err := s.EstimateWindow("k", -time.Second); !errors.Is(err, ErrWindowSpan) {
		t.Errorf("negative span: err = %v, want ErrWindowSpan", err)
	}
	if _, _, err := s.EstimateWindow("k", 4*time.Second); !errors.Is(err, ErrWindowSpan) {
		t.Errorf("span beyond retention: err = %v, want ErrWindowSpan", err)
	}
	if we, ok, err := s.EstimateWindow("k", 3*time.Second); err != nil || !ok || we.Estimate <= 0 {
		t.Errorf("full-retention span: %+v ok=%v err=%v", we, ok, err)
	}
	if _, ok, err := s.EstimateWindow("unseen", time.Second); err != nil || ok {
		t.Errorf("unseen key: ok=%v err=%v, want false,nil", ok, err)
	}

	flat, err := NewStore[string](MustSpec("hll:mbits=2048"))
	if err != nil {
		t.Fatal(err)
	}
	flat.AddString("k", "x")
	if _, _, err := flat.EstimateWindow("k", time.Second); !errors.Is(err, ErrNotWindowed) {
		t.Errorf("unwindowed store: err = %v, want ErrNotWindowed", err)
	}
	if _, _, ok := flat.WindowState(); ok {
		t.Error("unwindowed WindowState ok = true")
	}
}

func TestWindowTumblingFallback(t *testing.T) {
	// The paper's S-bitmap cannot union sub-windows; a windowed S-bitmap
	// store answers every span with the last complete sub-window's
	// estimate, marked tumbling — Section 7's every-interval reporting.
	const width = time.Second
	spec := MustSpec("sbitmap:n=1e4,eps=0.1,seed=3/windowed(width=1s,ring=3)")
	s, err := NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	base := spec
	base.Window, base.Ring = 0, 0
	ref, err := base.New()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		item := fmt.Sprintf("old-%d", i)
		s.AddStringAt(at(6, width), "k", item)
		ref.AddString(item) // sub-window 6 becomes the last complete one
	}
	for i := 0; i < 80; i++ {
		s.AddStringAt(at(7, width), "k", fmt.Sprintf("new-%d", i))
	}
	for _, span := range []time.Duration{time.Second, 3 * time.Second} {
		we, ok, err := s.EstimateWindow("k", span)
		if err != nil || !ok {
			t.Fatalf("EstimateWindow(%v): ok=%v err=%v", span, ok, err)
		}
		if !we.Tumbling {
			t.Errorf("span %v: Tumbling = false for S-bitmap", span)
		}
		if we.Windows != 1 {
			t.Errorf("span %v: Windows = %d, want 1", span, we.Windows)
		}
		if we.Estimate != ref.Estimate() {
			t.Errorf("span %v: estimate %.3f, last complete sub-window holds %.3f", span, we.Estimate, ref.Estimate())
		}
		if want := time.Unix(0, 6*int64(width)); !we.Start.Equal(want) {
			t.Errorf("span %v: Start = %v, want %v", span, we.Start, want)
		}
		if want := time.Unix(0, 7*int64(width)); !we.End.Equal(want) {
			t.Errorf("span %v: End = %v, want %v", span, we.End, want)
		}
	}
}

func TestWindowRotationExpiresOldSubWindows(t *testing.T) {
	const width = time.Second
	spec := MustSpec("hll:mbits=2048,seed=4/windowed(width=1s,ring=2)")
	s, err := NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	base := spec
	base.Window, base.Ring = 0, 0
	ref, err := base.New()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.AddStringAt(at(0, width), "k", fmt.Sprintf("w0-%d", i))
	}
	s.AddStringAt(at(1, width), "k", "w1-a")
	// Jump far ahead: both resident sub-windows (0, 1) are now outside the
	// horizon; their slots must have been reset in place, not merged.
	for _, item := range []string{"w9-a", "w9-b"} {
		s.AddStringAt(at(9, width), "k", item)
		ref.AddString(item)
	}
	we, ok, err := s.EstimateWindow("k", 2*time.Second)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if we.Estimate != ref.Estimate() {
		t.Errorf("estimate after expiry = %.3f, want %.3f (only sub-window 9's items)", we.Estimate, ref.Estimate())
	}
	if we.Windows != 1 {
		t.Errorf("Windows = %d, want 1 (sub-window 8 never existed)", we.Windows)
	}
	if wm, _, ok := s.WindowState(); !ok || wm != 9 {
		t.Errorf("watermark = %d ok=%v, want 9", wm, ok)
	}
}

func TestWindowLateRecordsFoldIntoWatermark(t *testing.T) {
	const width = time.Second
	spec := MustSpec("hll:mbits=2048,seed=6/windowed(width=1s,ring=3)")
	s, err := NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	base := spec
	base.Window, base.Ring = 0, 0
	ref, err := base.New()
	if err != nil {
		t.Fatal(err)
	}
	s.AddStringAt(at(10, width), "k", "current")
	ref.AddString("current")
	// widx 8 and 9 are within the horizon (> wm-ring = 7): placed, not late.
	s.AddStringAt(at(8, width), "k", "recent")
	if got := s.LateRecords(); got != 0 {
		t.Fatalf("in-horizon record counted late: %d", got)
	}
	// widx 7 == wm-ring: its slot is the watermark's — lost. Folds forward.
	s.AddStringAt(at(7, width), "k", "late-one")
	ref.AddString("late-one")
	if got := s.LateRecords(); got != 1 {
		t.Fatalf("LateRecords = %d, want 1", got)
	}
	// Batched late records count per record, and land in the watermark
	// sub-window (visible to a 1-sub-window query).
	s.AddBatchStringAt(at(1, width), []string{"k", "k", "k"}, []string{"a", "b", "c"})
	for _, item := range []string{"a", "b", "c"} {
		ref.AddString(item)
	}
	if got := s.LateRecords(); got != 4 {
		t.Fatalf("LateRecords = %d, want 4", got)
	}
	// The zero time.Time means no timestamp: such records land in the
	// watermark sub-window, as AddString's do, and are never late.
	s.AddStringAt(time.Time{}, "k", "unstamped")
	s.AddBatchStringAt(time.Time{}, []string{"k", "k"}, []string{"d", "e"})
	for _, item := range []string{"unstamped", "d", "e"} {
		ref.AddString(item)
	}
	if got := s.LateRecords(); got != 4 {
		t.Fatalf("LateRecords after zero-timestamp records = %d, want 4", got)
	}
	we, ok, err := s.EstimateWindow("k", time.Second)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	// current, late-one, a, b, c, unstamped, d, e — all in sub-window 10.
	if we.Estimate != ref.Estimate() {
		t.Errorf("watermark sub-window estimate = %.3f, want %.3f", we.Estimate, ref.Estimate())
	}
	// Late ingest never moves the watermark backwards.
	if wm, late, ok := s.WindowState(); !ok || wm != 10 || late != 4 {
		t.Errorf("WindowState = (%d, %d, %v), want (10, 4, true)", wm, late, ok)
	}
}

func TestWindowedTimestampedBatchEquivalence(t *testing.T) {
	// Timestamped batched ingest must be bit-identical to per-item
	// timestamped ingest — the twin-store acceptance invariant at the
	// library layer.
	const width = 50 * time.Millisecond
	spec := MustSpec("loglog:mbits=1536,seed=5/windowed(width=50ms,ring=4)")
	one, err := NewStore[uint64](spec, WithStripes(5))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewStore[uint64](spec, WithStripes(5))
	if err != nil {
		t.Fatal(err)
	}
	keys, items := keyedWorkload(53, 6000, 11)
	r := xrand.New(17)
	// Mostly-forward timestamps with occasional back-steps, in batched
	// runs of one shared timestamp (the frame model).
	widx := int64(0)
	for i := 0; i < len(keys); {
		end := min(i+97, len(keys))
		switch r.Intn(5) {
		case 0: // stay
		case 1:
			widx = max(widx-1, 0) // one step back (in horizon)
		default:
			widx++
		}
		ts := at(widx, width)
		for j := i; j < end; j++ {
			one.AddUint64At(ts, keys[j], items[j])
		}
		batch.AddBatch64At(ts, keys[i:end], items[i:end])
		i = end
	}
	assertStoresIdentical(t, one, batch)
	aw, al, _ := one.WindowState()
	bw, bl, _ := batch.WindowState()
	if aw != bw || al != bl {
		t.Errorf("window state diverged: (%d,%d) vs (%d,%d)", aw, al, bw, bl)
	}
}

func TestWindowedStoreSnapshotRoundTrip(t *testing.T) {
	const width = time.Second
	for _, specStr := range []string{
		"hll:mbits=2048,seed=7/windowed(width=1s,ring=3)",
		"sbitmap:n=1e4,eps=0.1,seed=7/windowed(width=1s,ring=3)",
	} {
		t.Run(specStr, func(t *testing.T) {
			spec := MustSpec(specStr)
			s, err := NewStore[string](spec)
			if err != nil {
				t.Fatal(err)
			}
			for widx := int64(3); widx <= 5; widx++ {
				for i := 0; i < 200; i++ {
					for k := 0; k < 4; k++ {
						s.AddStringAt(at(widx, width), fmt.Sprintf("key-%d", k), fmt.Sprintf("i-%d-%d", widx, i))
					}
				}
			}
			blob, err := s.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			got, err := UnmarshalStore[string](blob)
			if err != nil {
				t.Fatal(err)
			}
			if got.Spec() != spec {
				t.Fatalf("restored spec %s, want %s", got.Spec(), spec)
			}
			assertStoresIdentical(t, s, got)
			// The watermark survives (container field and ring re-derivation
			// agree), so every windowed estimate is reproduced exactly.
			sw, _, _ := s.WindowState()
			gw, _, _ := got.WindowState()
			if sw != gw {
				t.Fatalf("watermark: restored %d, want %d", gw, sw)
			}
			for span := time.Second; span <= 3*time.Second; span += time.Second {
				a, aok, aerr := s.EstimateWindow("key-2", span)
				b, bok, berr := got.EstimateWindow("key-2", span)
				if aok != bok || (aerr == nil) != (berr == nil) || a != b {
					t.Errorf("span %v: original (%+v,%v,%v) restored (%+v,%v,%v)", span, a, aok, aerr, b, bok, berr)
				}
			}
			// Restored with the original seed, counting continues identically.
			s.AddStringAt(at(6, width), "key-0", "post")
			got.AddStringAt(at(6, width), "key-0", "post")
			assertStoresIdentical(t, s, got)
		})
	}
}

func TestWindowedStoreStripeSnapshotRoundTrip(t *testing.T) {
	const width = time.Second
	spec := MustSpec("hll:mbits=2048,seed=3/windowed(width=1s,ring=4)")
	s, err := NewStore[string](spec, WithStripes(4))
	if err != nil {
		t.Fatal(err)
	}
	for widx := int64(0); widx < 6; widx++ {
		for i := 0; i < 150; i++ {
			s.AddStringAt(at(widx, width), fmt.Sprintf("key-%d", i%9), fmt.Sprintf("i-%d-%d", widx, i))
		}
	}
	blobs, _, err := s.MarshalStripes(0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewStore[string](spec, WithStripes(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, blob := range blobs {
		if _, err := got.RestoreStripe(blob); err != nil {
			t.Fatal(err)
		}
	}
	assertStoresIdentical(t, s, got)
	// Stripe snapshots carry no container watermark; it must re-derive
	// from ring contents.
	sw, _, _ := s.WindowState()
	gw, _, _ := got.WindowState()
	if sw != gw {
		t.Fatalf("re-derived watermark %d, want %d", gw, sw)
	}
	a, _, _ := s.EstimateWindow("key-4", 3*time.Second)
	b, _, _ := got.EstimateWindow("key-4", 3*time.Second)
	if a != b {
		t.Errorf("stripe-restored estimate %+v, want %+v", b, a)
	}
}

func TestPreWindowSnapshotsStillDecode(t *testing.T) {
	// An unwindowed store container is byte-for-byte the pre-window
	// format (no watermark field) — it must keep decoding, and a windowed
	// blob must refuse to restore into this build only if malformed, not
	// silently drop ring state.
	s, err := NewStore[string](MustSpec("hll:mbits=2048,seed=1"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		s.AddString(fmt.Sprintf("key-%d", i%7), fmt.Sprintf("item-%d", i))
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalStore[string](blob)
	if err != nil {
		t.Fatal(err)
	}
	assertStoresIdentical(t, s, got)
	if _, _, ok := got.WindowState(); ok {
		t.Error("unwindowed snapshot restored as windowed")
	}
	// A bare ring envelope is not a Counter snapshot this build hands out.
	src, err := newCounterSource(MustSpec("hll:mbits=2048"))
	if err != nil {
		t.Fatal(err)
	}
	win := &windowShared{width: int64(time.Second), ring: 2, src: src, wm: new(atomic.Int64)}
	ring := newWindowRing(win)
	win.rotate(ring, 1).AddString("x")
	rblob, err := ring.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(rblob); err == nil {
		t.Error("Unmarshal accepted a bare ring envelope")
	}
}

func TestWindowedStoreMerge(t *testing.T) {
	const width = time.Second
	spec := MustSpec("hll:mbits=2048,seed=5/windowed(width=1s,ring=3)")
	a, err := NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewStore[string](spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		item := fmt.Sprintf("a-%d", i)
		a.AddStringAt(at(4, width), "k", item)
		want.AddStringAt(at(4, width), "k", item)
	}
	for i := 0; i < 400; i++ {
		item := fmt.Sprintf("b-%d", i)
		b.AddStringAt(at(5, width), "k", item)
		want.AddStringAt(at(5, width), "k", item)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	aw, _, _ := a.WindowState()
	ww, _, _ := want.WindowState()
	if aw != ww {
		t.Errorf("merged watermark %d, want %d", aw, ww)
	}
	for span := time.Second; span <= 3*time.Second; span += time.Second {
		got, _, _ := a.EstimateWindow("k", span)
		ref, _, _ := want.EstimateWindow("k", span)
		if got != ref {
			t.Errorf("span %v: merged %+v, want %+v", span, got, ref)
		}
	}

	// Windowed S-bitmap refuses union merge even though the ring type is
	// structurally mergeable.
	sa, err := NewStore[string](MustSpec("sbitmap:n=1e4,eps=0.1/windowed(width=1s,ring=2)"))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStore[string](MustSpec("sbitmap:n=1e4,eps=0.1/windowed(width=1s,ring=2)"))
	if err != nil {
		t.Fatal(err)
	}
	sb.AddString("k", "x")
	if err := sa.Merge(sb); !errors.Is(err, ErrNotMergeable) {
		t.Errorf("windowed S-bitmap merge err = %v, want ErrNotMergeable", err)
	}
}

func TestWindowedStoreConcurrentRotation(t *testing.T) {
	// -race stress: writers advance time (rotating rings under stripe
	// locks, racing on the watermark CAS) while readers run window
	// queries, all-time estimates, TopK, and stats across stripes.
	const width = time.Millisecond
	s, err := NewStore[uint64](MustSpec("hll:mbits=1024,seed=2/windowed(width=1ms,ring=4)"), WithStripes(8))
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		readers = 3
		batches = 120
	)
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			r := xrand.New(uint64(w) + 1)
			keys := make([]uint64, 64)
			items := make([]uint64, 64)
			for b := 0; b < batches; b++ {
				// Each writer walks its own mostly-forward clock; the store
				// watermark is the max across writers, so late folds and
				// out-of-order placement both happen under contention.
				widx := int64(b / 2)
				if r.Intn(8) == 0 {
					widx -= int64(r.Intn(6)) // sometimes far behind: late path
				}
				for i := range keys {
					keys[i] = uint64(r.Intn(512))
					items[i] = xrand.Mix64(uint64(b*64 + i))
				}
				if b%2 == 0 {
					s.AddBatch64At(at(widx, width), keys, items)
				} else {
					for i := range keys {
						s.AddUint64At(at(widx, width), keys[i], items[i])
					}
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		readWG.Add(1)
		go func(rd int) {
			defer readWG.Done()
			r := xrand.New(uint64(rd) + 100)
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := uint64(r.Intn(512))
				if _, _, err := s.EstimateWindow(key, time.Duration(1+r.Intn(4))*width); err != nil {
					t.Errorf("EstimateWindow: %v", err)
					return
				}
				s.Estimate(key)
				s.TopK(3)
				s.LateRecords()
				s.WindowState()
			}
		}(rd)
	}
	// Writers do bounded work; readers spin until they finish.
	writeWG.Wait()
	close(stop)
	readWG.Wait()
	if s.Len() == 0 {
		t.Error("no keys after concurrent ingest")
	}
	if wm, _, ok := s.WindowState(); !ok || wm < 0 {
		t.Errorf("watermark after stress = %d ok=%v", wm, ok)
	}
}

func TestWindowWatermarkSentinel(t *testing.T) {
	s, err := NewStore[string](MustSpec("hll:mbits=1024/windowed(width=1s,ring=2)"))
	if err != nil {
		t.Fatal(err)
	}
	if wm, late, ok := s.WindowState(); !ok || wm != WindowWatermarkNone || late != 0 {
		t.Errorf("fresh WindowState = (%d, %d, %v), want (WindowWatermarkNone, 0, true)", wm, late, ok)
	}
	if WindowWatermarkNone != math.MinInt64 {
		t.Errorf("WindowWatermarkNone = %d", int64(WindowWatermarkNone))
	}
	// SetWindowState advances, never regresses.
	s.SetWindowState(7, 2)
	s.SetWindowState(3, -1)
	if wm, late, _ := s.WindowState(); wm != 7 || late != 2 {
		t.Errorf("WindowState after SetWindowState = (%d, %d), want (7, 2)", wm, late)
	}
	// A fresh store's first unstamped record, given by AddString or with
	// the zero time.Time, opens sub-window 0.
	for name, add := range map[string]func(*Store[string]){
		"AddString":   func(s *Store[string]) { s.AddString("k", "x") },
		"AddStringAt": func(s *Store[string]) { s.AddStringAt(time.Time{}, "k", "x") },
	} {
		fresh, err := NewStore[string](MustSpec("hll:mbits=1024/windowed(width=1m,ring=2)"))
		if err != nil {
			t.Fatal(err)
		}
		add(fresh)
		if wm, late, _ := fresh.WindowState(); wm != 0 || late != 0 {
			t.Errorf("%s: WindowState after one unstamped record = (%d, %d), want (0, 0)", name, wm, late)
		}
	}
}

// TestWindowedStoreLargestRingRoundTrips: a ring snapshot records the
// ring size and its live sub-window count in 16 bits each, so the largest
// ring a spec takes is 65,535, and a store of that ring restores its own
// snapshots — run rings and heap rings, through UnmarshalStore and
// RestoreStripe. ParseSpec and NewStore refuse 65,536, which a snapshot
// would record as 0 sub-windows.
func TestWindowedStoreLargestRingRoundTrips(t *testing.T) {
	if _, err := ParseSpec("hll:mbits=512/windowed(width=1s,ring=65536)"); err == nil {
		t.Error("ParseSpec accepted ring=65536")
	}
	if _, err := NewStore[string](Spec{Kind: KindHLL, MemoryBits: 512, Window: time.Second, Ring: 65536}); err == nil {
		t.Error("NewStore accepted ring 65536")
	}
	spec := MustSpec("hll:mbits=512/windowed(width=1s,ring=65535)")
	for _, heap := range []bool{false, true} {
		s, err := NewStore[string](spec, WithStripes(2))
		if err != nil {
			t.Fatal(err)
		}
		if heap {
			forceHeapCounters(s)
		}
		for _, w := range []int64{0, 3, 65534, 70000} {
			s.AddStringAt(at(w, time.Second), "k", fmt.Sprint(w))
			s.AddStringAt(at(w, time.Second), "j", fmt.Sprint(w+1))
		}
		snap, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalStore[string](snap)
		if err != nil {
			t.Fatalf("heap=%v: UnmarshalStore: %v", heap, err)
		}
		assertStoresIdentical(t, got, s)
		blobs, _, err := s.MarshalStripes(0)
		if err != nil {
			t.Fatal(err)
		}
		if got, err = NewStore[string](spec); err != nil {
			t.Fatal(err)
		}
		for _, b := range blobs {
			if _, err := got.RestoreStripe(b); err != nil {
				t.Fatalf("heap=%v: RestoreStripe: %v", heap, err)
			}
		}
		assertStoresIdentical(t, got, s)
	}
}

// TestWindowCounterMatchesEstimateWindow: the counter a windowed store
// hands to ForEach is a WindowCounter whose EstimateWindow is
// Store.EstimateWindow for that key — run rings and heap rings, mergeable
// kinds and the tumbling fallback, every span and its errors.
func TestWindowCounterMatchesEstimateWindow(t *testing.T) {
	const width = time.Second
	spans := []time.Duration{0, width / 2, width, 2 * width, 3 * width, 4 * width, 5 * width}
	for _, spec := range []string{
		"hll:mbits=512/windowed(width=1s,ring=4)",          // run rings, merged
		"sbitmap:n=1e4,eps=0.1/windowed(width=1s,ring=4)",  // run rings, tumbling
		"linearcount:mbits=2048/windowed(width=1s,ring=4)", // heap rings, merged
		"exact/windowed(width=1s,ring=4)",                  // heap rings, tumbling
	} {
		t.Run(spec, func(t *testing.T) {
			s, err := NewStore[string](MustSpec(spec), WithStripes(4))
			if err != nil {
				t.Fatal(err)
			}
			for widx := int64(10); widx < 16; widx++ {
				for i := 0; i < 400; i++ {
					s.AddStringAt(at(widx, width), fmt.Sprintf("k%d", (i*7+int(widx))%40), fmt.Sprint(widx, "-", i))
				}
			}
			type answer struct {
				we  WindowEstimate
				err error
			}
			got := make(map[string][]answer)
			s.ForEach(func(key string, c Counter) bool {
				wc, ok := c.(WindowCounter)
				if !ok {
					t.Fatalf("%T is not a WindowCounter", c)
				}
				for _, span := range spans {
					we, err := wc.EstimateWindow(span)
					got[key] = append(got[key], answer{we, err})
				}
				return true
			})
			if len(got) != 40 {
				t.Fatalf("ForEach visited %d keys, want 40", len(got))
			}
			for key, answers := range got {
				for i, span := range spans {
					want, ok, err := s.EstimateWindow(key, span)
					g := answers[i]
					if (err == nil) != (g.err == nil) || (err != nil && !errors.Is(g.err, ErrWindowSpan)) {
						t.Fatalf("%s span %v: counter error %v, store error %v", key, span, g.err, err)
					}
					if err == nil && (!ok || g.we != want) {
						t.Fatalf("%s span %v: counter %+v, store %+v (ok %v)", key, span, g.we, want, ok)
					}
				}
			}
		})
	}
}

// TestWindowQueriesAllocFree: a warm window query that unions sub-windows
// allocates nothing on either ring layout — a run ring merges into its
// table's scratch run, a heap ring into a pooled scratch counter — through
// Store.EstimateWindow, Store.Estimate and the WindowCounter a dirty scan
// hands out, which a windowed rule's tick reads per key.
func TestWindowQueriesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	const width = time.Minute
	for _, spec := range []string{
		"hll:mbits=512/windowed(width=1m,ring=5)",          // run rings
		"loglog:mbits=512/windowed(width=1m,ring=5)",       // heap rings
		"linearcount:mbits=2048/windowed(width=1m,ring=5)", // heap rings
	} {
		t.Run(spec, func(t *testing.T) {
			s, err := NewStore[string](MustSpec(spec), WithStripes(1))
			if err != nil {
				t.Fatal(err)
			}
			for w := int64(10); w < 15; w++ {
				for i := 0; i < 50; i++ {
					s.AddStringAt(at(w, width), "hot", fmt.Sprintf("h-%d-%d", w, i))
				}
			}
			var we WindowEstimate
			if allocs := testing.AllocsPerRun(100, func() {
				we, _, _ = s.EstimateWindow("hot", 5*width)
			}); allocs != 0 {
				t.Errorf("EstimateWindow over five sub-windows: %.1f allocs/op, want 0", allocs)
			}
			if we.Windows != 5 {
				t.Errorf("query merged %d sub-windows, want 5", we.Windows)
			}
			var est float64
			if allocs := testing.AllocsPerRun(100, func() { est, _ = s.Estimate("hot") }); allocs != 0 {
				t.Errorf("Estimate over the retention: %.1f allocs/op, want 0", allocs)
			}
			if est != we.Estimate {
				t.Errorf("Estimate %v, five-sub-window EstimateWindow %v", est, we.Estimate)
			}
			var scanned WindowEstimate
			scan := func(_ string, c Counter) bool {
				scanned, _ = c.(WindowCounter).EstimateWindow(3 * width)
				return true
			}
			if allocs := testing.AllocsPerRun(100, func() { s.ForEachDirty(0, scan) }); allocs != 0 {
				t.Errorf("dirty scan reading a three-sub-window estimate: %.1f allocs/op, want 0", allocs)
			}
			if scanned.Windows != 3 {
				t.Errorf("scan merged %d sub-windows, want 3", scanned.Windows)
			}
		})
	}
}
