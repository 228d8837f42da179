package sbitmap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"
)

// FuzzUnmarshalStore drives the whole-store snapshot decoder, seeded with
// snapshots of plain and windowed HLL and S-bitmap stores. The
// invariants: UnmarshalStore never panics, and a store it decodes
// re-encodes to a snapshot that decodes to the same per-key counter
// blobs. A snapshot's spec string dimensions the store it decodes into,
// so a mutated one can ask for any amount of memory; inputs keep one of
// the seeds' specs, and everything after it is fuzzed. CI runs a short
// fuzz smoke over this target.
func FuzzUnmarshalStore(f *testing.F) {
	specs := make(map[string]bool)
	for _, spec := range []string{
		"hll:mbits=256,seed=3",
		"hll:mbits=256,seed=3/windowed(width=1m,ring=3)",
		"sbitmap:n=1e3,eps=0.2",
		"sbitmap:n=1e3,eps=0.2/windowed(width=1m,ring=3)",
	} {
		s, err := NewStore[string](MustSpec(spec))
		if err != nil {
			f.Fatal(err)
		}
		specs[s.Spec().String()] = true
		for i := 0; i < 40; i++ {
			s.AddStringAt(time.Unix(int64(i%4)*60, 0), fmt.Sprintf("k%d", i%5), fmt.Sprintf("i%d", i))
		}
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
