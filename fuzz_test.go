package sbitmap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// FuzzUnmarshalStore drives the whole-store snapshot decoder, seeded with
// snapshots of plain and windowed HLL, S-bitmap and LogLog stores. The
// invariants: UnmarshalStore never panics, and a store it decodes holds
// only counters of its own kind (checkCounterKinds) and re-encodes to a
// snapshot that decodes to the same per-key counter blobs. A snapshot's spec string dimensions the store it decodes into,
// so a mutated one can ask for any amount of memory; inputs keep one of
// the seeds' specs, and everything after it is fuzzed. CI runs a short
// fuzz smoke over this target.
func FuzzUnmarshalStore(f *testing.F) {
	specs := make(map[string]bool)
	for _, spec := range fuzzStoreSpecs {
		s := fuzzSeedStore(f, spec)
		specs[s.Spec().String()] = true
		blob, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Envelope header (6 bytes), key type, spec length, spec string.
		if len(data) < 9 {
			return
		}
		specLen := int(binary.LittleEndian.Uint16(data[7:]))
		if len(data) < 9+specLen || !specs[string(data[9:9+specLen])] {
			return
		}
		s, err := UnmarshalStore[string](data)
		if err != nil {
			return // rejection is fine; panicking or drifting is not
		}
		checkCounterKinds(t, s)
		again, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded store does not re-encode: %v", err)
		}
		back, err := UnmarshalStore[string](again)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		want, got := storeBlobs(t, s), storeBlobs(t, back)
		if len(got) != len(want) {
			t.Fatalf("round trip holds %d keys, want %d", len(got), len(want))
		}
		for k, b := range want {
			if !bytes.Equal(got[k], b) {
				t.Fatalf("key %q: counter blob changed across the round trip", k)
			}
		}
	})
}

// fuzzStoreSpecs are the specs of the snapshot decoders' fuzz seeds:
// plain and windowed HLL, S-bitmap and LogLog stores, which keep words,
// and FM stores, which keep heap counters and heap rings.
var fuzzStoreSpecs = []string{
	"hll:mbits=256,seed=3",
	"hll:mbits=256,seed=3/windowed(width=1m,ring=3)",
	"sbitmap:n=1e3,eps=0.2",
	"sbitmap:n=1e3,eps=0.2/windowed(width=1m,ring=3)",
	"loglog:mbits=256,seed=3",
	"loglog:mbits=256,seed=3/windowed(width=1m,ring=3)",
	"fm:mbits=256,seed=3",
	"fm:mbits=256,seed=3/windowed(width=1m,ring=3)",
}

// checkCounterKinds requires every counter s holds — every live
// sub-window's, on a windowed store — to marshal as a counter of s's own
// kind.
func checkCounterKinds(t *testing.T, s *Store[string]) {
	t.Helper()
	kind := s.src.spec.Kind
	check := func(key string, c Counter) {
		blob, err := Marshal(c)
		if err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
		if _, err := payloadOfKind(blob, kind); err != nil {
			t.Fatalf("key %q holds a counter other than the store's %s: %v", key, kind, err)
		}
	}
	s.ForEach(func(key string, c Counter) bool {
		r, ok := c.(ringEntries)
		if !ok {
			check(key, c)
			return true
		}
		for i := range r.size() {
			if _, live := r.entry(i); live {
				check(key, r.sketch(i))
			}
		}
		return true
	})
}

// fuzzSeedStore returns a string-keyed store of spec holding 5 keys fed
// over 4 one-minute sub-windows.
func fuzzSeedStore(f *testing.F, spec string) *Store[string] {
	s, err := NewStore[string](MustSpec(spec))
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		s.AddStringAt(time.Unix(int64(i%4)*60, 0), fmt.Sprintf("k%d", i%5), fmt.Sprintf("i%d", i))
	}
	return s
}

// FuzzRestoreStripe drives the checkpoint stripe decoder, seeded with the
// MarshalStripes blobs of stores of fuzzStoreSpecs; the first input byte
// picks the spec of the fresh store the rest is restored into — the
// blob's own, or, in the cross-spec seeds, every other. The invariants:
// RestoreStripe never panics, and on success the store holds exactly the
// keys it reports restoring, each a counter of the store's own kind. CI
// runs a short fuzz smoke over this target.
func FuzzRestoreStripe(f *testing.F) {
	for i, spec := range fuzzStoreSpecs {
		blobs, _, err := fuzzSeedStore(f, spec).MarshalStripes(0)
		if err != nil {
			f.Fatal(err)
		}
		for _, blob := range blobs {
			if n, _ := StripeSnapshotKeys(blob); n > 0 {
				for j := range fuzzStoreSpecs {
					f.Add(append([]byte{byte((i + j) % len(fuzzStoreSpecs))}, blob...))
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		s, err := NewStore[string](MustSpec(fuzzStoreSpecs[int(data[0])%len(fuzzStoreSpecs)]))
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.RestoreStripe(data[1:])
		if err != nil {
			return // rejection is fine; panicking is not
		}
		if s.Len() != n {
			t.Fatalf("RestoreStripe reported %d keys, the store holds %d", n, s.Len())
		}
		checkCounterKinds(t, s)
	})
}

// FuzzUnmarshal drives the counter snapshot decoder, seeded with the
// Marshal of one counter of every kind and a legacy (pre-envelope)
// S-bitmap snapshot. The invariants: Unmarshal never panics, and a
// counter it decodes estimates, takes an item and re-marshals to a
// snapshot that decodes and re-marshals to identical bytes. CI runs a
// short fuzz smoke over this target.
func FuzzUnmarshal(f *testing.F) {
	for _, kind := range Kinds() {
		c, err := Spec{Kind: kind, MemoryBits: 512, N: 1e4}.New()
		if err != nil {
			f.Fatal(err)
		}
		addSome(c, 0, 20)
		blob, err := Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	sk, err := New(1e3, 0.2)
	if err != nil {
		f.Fatal(err)
	}
	addSome(sk, 0, 20)
	legacy, err := sk.sk.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Unmarshal(data)
		if err != nil {
			return // rejection is fine; panicking or drifting is not
		}
		c.Estimate()
		c.AddUint64(1)
		blob, err := Marshal(c)
		if err != nil {
			t.Fatalf("decoded %T does not re-marshal: %v", c, err)
		}
		back, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("re-marshaled %T does not decode: %v", c, err)
		}
		again, err := Marshal(back)
		if err != nil {
			t.Fatalf("re-decoded %T does not re-marshal: %v", c, err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("%T snapshot changed across a decode and re-marshal", c)
		}
	})
}

// storeBlobs returns every key's counter snapshot.
func storeBlobs(t *testing.T, s *Store[string]) map[string][]byte {
	t.Helper()
	blobs := make(map[string][]byte, s.Len())
	s.ForEach(func(k string, c Counter) bool {
		b, err := Marshal(c)
		if err != nil {
			t.Fatalf("key %q: %v", k, err)
		}
		blobs[k] = b
		return true
	})
	return blobs
}

// FuzzStoreOps drives two stores that keep words — an S-bitmap store
// with inline sketches and a windowed HyperLogLog store with run rings —
// each against a twin whose slot tables keep heap counters and heap rings
// (forceHeapCounters), through the same operations decoded from the
// input: AddStringAt, AddBatch64At and AddBatchStringAt (long same-key
// runs included) stamped forward in time, back inside the horizon, late
// behind it or not at all; Remove; Estimate and EstimateWindow over every
// span; Reset; Merge, crossed between the layouts; and a MarshalStripes
// checkpoint restored through RestoreStripe into a fresh store that
// carries on. It requires the same answers throughout and, at every
// checkpoint and at the end, bit-identical counters key by key and
// consistent slot tables and run pools in both stores. An operation is
// one byte, a timestamp one byte, a key a length byte and that many
// bytes. CI runs a short fuzz smoke over this target.
func FuzzStoreOps(f *testing.F) {
	key := func(n int) []byte { return append([]byte{byte(n)}, strings.Repeat("k", n)...) }
	var seed []byte
	for i, n := range []int{0, 1, 16, 17, 200} {
		seed = append(seed, 0, byte(4*i+1))
		seed = append(seed, key(n)...)
		seed = append(seed, byte(n))
	}
	seed = append(append(seed, 1, 2, 3), append(append(key(16), 7), append(key(17), 8)...)...)
	seed = append(append(seed, 2, 3), append(key(200), 9)...)
	seed = append(append(seed, 3), key(16)...)
	seed = append(append(seed, 4), key(17)...)
	seed = append(seed, 7)
	seed = append(append(seed, 3), key(0)...)
	seed = append(seed, 6, 5)
	seed = append(append(seed, 0, 0), append(key(1), 2)...)
	f.Add(seed)
	f.Add([]byte{0, 5, 3, 'a', 'b', 'c', 1, 6, 7, 3, 'a', 'b', 'c', 0, 'q', 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		storeOps(t, MustSpec("sbitmap:n=1e4,eps=0.1"), data)
		storeOps(t, MustSpec("hll:mbits=512/windowed(width=1s,ring=3)"), data)
	})
}

// storeOps runs FuzzStoreOps' operations from data against a store of
// spec and its heap-counter twin.
func storeOps(t *testing.T, spec Spec, data []byte) {
	newPair := func() (*Store[string], *Store[string]) {
		s, err := NewStore[string](spec, WithStripes(2))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewStore[string](spec, WithStripes(2))
		if err != nil {
			t.Fatal(err)
		}
		forceHeapCounters(ref)
		return s, ref
	}
	s, ref := newPair()
	other, otherRef := newPair()
	for _, o := range []*Store[string]{other, otherRef} {
		o.AddString("merge", "x")
		o.AddStringAt(time.Unix(2, 0), "later", "y")
	}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	readKey := func() string {
		n := min(next(), len(data))
		k := string(data[:n])
		data = data[n:]
		return k
	}
	// readTime stamps a record: unstamped, forward, back inside the
	// horizon, or late behind it, in sub-windows of one second.
	ring := int64(max(spec.Ring, 1))
	clock := int64(0)
	readTime := func() time.Time {
		b := next()
		switch step := int64(b / 4); b % 4 {
		case 0:
			return time.Time{}
		case 1:
			clock += step % 3
			return time.Unix(clock, 0)
		case 2:
			return time.Unix(clock-1-step%max(ring-1, 1), 0)
		default:
			return time.Unix(clock-ring-step%3, 0)
		}
	}
	for ops := 0; len(data) > 0 && ops < 256; ops++ {
		switch op := next() % 8; op {
		case 0:
			ts, k, item := readTime(), readKey(), fmt.Sprint(next())
			if x, y := s.AddStringAt(ts, k, item), ref.AddStringAt(ts, k, item); x != y {
				t.Fatalf("AddStringAt(%q): changed %v, heap counters %v", k, x, y)
			}
		case 1:
			ts, n := readTime(), next()%8+1
			keys, items := make([]string, n), make([]uint64, n)
			for i := range keys {
				keys[i], items[i] = readKey(), uint64(next())
			}
			if x, y := s.AddBatch64At(ts, keys, items), ref.AddBatch64At(ts, keys, items); x != y {
				t.Fatalf("AddBatch64At: changed %d, heap counters %d", x, y)
			}
		case 2:
			ts, k, base := readTime(), readKey(), next()
			keys, items := make([]string, 2*storeRunBatchMin), make([]string, 2*storeRunBatchMin)
			for i := range keys {
				keys[i], items[i] = k, fmt.Sprint(base*1000+i)
			}
			if x, y := s.AddBatchStringAt(ts, keys, items), ref.AddBatchStringAt(ts, keys, items); x != y {
				t.Fatalf("AddBatchStringAt(%q run): changed %d, heap counters %d", k, x, y)
			}
		case 3:
			k := readKey()
			if x, y := s.Remove(k), ref.Remove(k); x != y {
				t.Fatalf("Remove(%q): %v, heap counters %v", k, x, y)
			}
		case 4:
			k := readKey()
			e1, ok1 := s.Estimate(k)
			e2, ok2 := ref.Estimate(k)
			if e1 != e2 || ok1 != ok2 {
				t.Fatalf("Estimate(%q): %v %v, heap counters %v %v", k, e1, ok1, e2, ok2)
			}
			for n := range ring {
				span := time.Duration(n+1) * time.Second
				w1, ok1, err1 := s.EstimateWindow(k, span)
				w2, ok2, err2 := ref.EstimateWindow(k, span)
				if w1 != w2 || ok1 != ok2 || (err1 == nil) != (err2 == nil) {
					t.Fatalf("EstimateWindow(%q, %s): %+v %v %v, heap counters %+v %v %v", k, span, w1, ok1, err1, w2, ok2, err2)
				}
			}
		case 5:
			s.Reset()
			ref.Reset()
		case 6:
			// Crossed, so each layout is merged from the other.
			err1, err2 := s.Merge(otherRef), ref.Merge(other)
			if spec.Kind == KindSBitmap {
				if !errors.Is(err1, ErrNotMergeable) || !errors.Is(err2, ErrNotMergeable) {
					t.Fatalf("Merge: %v, heap counters %v; want ErrNotMergeable", err1, err2)
				}
			} else if err1 != nil || err2 != nil {
				t.Fatalf("Merge: %v, heap counters %v", err1, err2)
			}
		case 7:
			checkSlotTables(t, s)
			checkSlotTables(t, ref)
			assertStoresIdentical(t, s, ref)
			blobs, _, err := s.MarshalStripes(0)
			if err != nil {
				t.Fatal(err)
			}
			restored, err := NewStore[string](spec, WithStripes(3))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range blobs {
				if _, err := restored.RestoreStripe(b); err != nil {
					t.Fatalf("RestoreStripe: %v", err)
				}
			}
			// A checkpoint carries the watermark beside the stripes.
			wm, late, _ := s.WindowState()
			restored.SetWindowState(wm, late)
			s = restored
		}
	}
	checkSlotTables(t, s)
	checkSlotTables(t, ref)
	assertStoresIdentical(t, s, ref)
	assertStoresIdentical(t, ref, s)
}

// FuzzParseSpec drives the spec grammar with arbitrary strings. The
// invariants: ParseSpec never panics; any accepted spec renders to a
// canonical String that re-parses to the identical Spec; and the
// canonical form is a fixed point of parse∘render. CI runs a short fuzz
// smoke over this target; `go test -fuzz FuzzParseSpec .` digs deeper.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"exact",
		"sbitmap:n=1e6,eps=0.01",
		"sbitmap:n=1e5,eps=0.02,seed=42,hash=tabulation,d=30",
		"hll:mbits=4096",
		"hyperloglog:mbits=4e3",
		"mr:n=1e5,mbits=4000",
		"lc : mbits=4000",
		"loglog:seed=0x10",
		"hll:mbits=64,mbits=128",
		"sbitmap:hash=cw",
		"vb:n=1e4,mbits=100",
		"sbitmap:n=,eps=0.01",
		"sbitmap:eps=1e999",
		"nope:mbits=1",
		"sbitmap:n=1e6,eps=0.01,",
		"hll:mbits=2048/windowed(width=1m)",
		"hll:mbits=2048/windowed(width=1m,ring=5)",
		"sbitmap:n=1e6,eps=0.01/windowed(width=30s,ring=12)",
		"exact/windowed(width=1500ms,ring=1)",
		"hll:mbits=2048/windowed(width=1m,width=2m)",
		"hll:mbits=2048/windowed(width=1m,ring=0)",
		"hll:mbits=2048/windowed(width=1m,ring=65537)",
		"hll:mbits=2048/windowed(ring=5)",
		"hll:mbits=2048/windowed(width=-1m)",
		"hll:mbits=2048/windowed(width=2562047h,ring=65536)",
		"hll:mbits=2048/windowed(width=1m",
		"hll:mbits=2048/windowed(depth=3)",
		"hll:mbits=2048/sliding(width=1m)",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return // rejection is fine; panicking or mis-round-tripping is not
		}
		canon := spec.String()
		got, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted but canonical %q rejected: %v", s, canon, err)
		}
		if got != spec {
			t.Fatalf("round trip of %q: %+v != %+v", s, got, spec)
		}
		if again := got.String(); again != canon {
			t.Fatalf("canonical form of %q not fixed: %q -> %q", s, canon, again)
		}
	})
}
