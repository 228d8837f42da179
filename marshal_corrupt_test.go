package sbitmap

import (
	"encoding"
	"errors"
	"testing"
)

// corruptions enumerates the envelope-level failure modes every decoder
// must report with the matching typed error.
var corruptions = []struct {
	name    string
	mutate  func(blob []byte) []byte
	wantErr error
}{
	{"truncated header", func(b []byte) []byte { return b[:3] }, ErrTruncated},
	{"empty input", func(b []byte) []byte { return nil }, ErrTruncated},
	{"bad magic", func(b []byte) []byte {
		c := append([]byte{}, b...)
		c[0] ^= 0xFF
		return c
	}, ErrBadMagic},
	{"wrong version", func(b []byte) []byte {
		c := append([]byte{}, b...)
		c[4] = 99
		return c
	}, ErrUnsupportedVersion},
	{"unknown kind code", func(b []byte) []byte {
		c := append([]byte{}, b...)
		c[5] = 200
		return c
	}, ErrUnknownKind},
	{"retired kind code 10", func(b []byte) []byte {
		c := append([]byte{}, b...)
		c[5] = 10
		return c
	}, ErrUnknownKind},
	{"retired kind code 11", func(b []byte) []byte {
		c := append([]byte{}, b...)
		c[5] = 11
		return c
	}, ErrUnknownKind},
}

// marshalers builds one marshalable instance of every serializable shape
// in the module: all 9 Spec kinds plus the keyed Store.
func marshalers(t *testing.T) map[string]encoding.BinaryMarshaler {
	t.Helper()
	out := map[string]encoding.BinaryMarshaler{}
	for _, kind := range Kinds() {
		spec := specForKind(t, kind)
		c, err := spec.New()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for i := uint64(0); i < 500; i++ {
			c.AddUint64(i)
		}
		out[string(kind)] = c.(encoding.BinaryMarshaler)
	}
	st, err := NewStore[uint64](MustSpec("hll:mbits=512"))
	if err != nil {
		t.Fatal(err)
	}
	st.AddUint64(1, 2)
	out["store"] = st
	return out
}

func specForKind(t *testing.T, kind Kind) Spec {
	t.Helper()
	switch kind {
	case KindExact:
		return MustSpec("exact")
	case KindSBitmap:
		return MustSpec("sbitmap:n=1e4,eps=0.1")
	case KindVirtualBitmap, KindMRBitmap:
		return Spec{Kind: kind, N: 1e4, MemoryBits: 4000}
	default:
		return Spec{Kind: kind, MemoryBits: 2048}
	}
}

func TestUnmarshalEnvelopeCorruptionTyped(t *testing.T) {
	// Every serializable shape × every envelope corruption: Unmarshal
	// (and the container decoders for non-Counter shapes) must fail with
	// the matching typed sentinel.
	for name, m := range marshalers(t) {
		blob, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		for _, c := range corruptions {
			bad := c.mutate(blob)
			var decodeErr error
			if name == "store" {
				_, decodeErr = UnmarshalStore[uint64](bad)
			} else {
				_, decodeErr = Unmarshal(bad)
			}
			if decodeErr == nil {
				t.Errorf("%s/%s: accepted", name, c.name)
				continue
			}
			if !errors.Is(decodeErr, c.wantErr) {
				t.Errorf("%s/%s: error %v, want errors.Is(%v)", name, c.name, decodeErr, c.wantErr)
			}
		}
		// Short payload: the envelope is intact but the kind payload is
		// cut off mid-structure. Exact error type is the inner decoder's
		// business; failing cleanly (no panic, non-nil error) is the
		// contract; all our payloads are length-checked, so any cut must
		// error.
		if len(blob) > 7 {
			short := blob[:6+(len(blob)-6)/2]
			var decodeErr error
			if name == "store" {
				_, decodeErr = UnmarshalStore[uint64](short)
			} else {
				_, decodeErr = Unmarshal(short)
			}
			if decodeErr == nil {
				t.Errorf("%s/short payload: accepted", name)
			}
		}
	}
}

func TestUnmarshalBinaryCorruptionTyped(t *testing.T) {
	// The in-place UnmarshalBinary methods must report the same typed
	// errors, plus ErrKindMismatch for a well-formed snapshot of another
	// kind.
	hll, err := MustSpec("hll:mbits=1024").New()
	if err != nil {
		t.Fatal(err)
	}
	hllBlob, err := Marshal(hll)
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]encoding.BinaryUnmarshaler{
		"sbitmap":       &SBitmap{},
		"hll":           &HyperLogLog{},
		"loglog":        &LogLog{},
		"fm":            &FM{},
		"linearcount":   &LinearCounting{},
		"virtualbitmap": &VirtualBitmap{},
		"mrbitmap":      &MRBitmap{},
		"adaptive":      &AdaptiveSampler{},
		"exact":         &Exact{},
	}
	for name, target := range targets {
		c, err := specForKind(t, Kind(name)).New()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.AddUint64(7)
		blob, err := Marshal(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, cor := range corruptions {
			if err := target.UnmarshalBinary(cor.mutate(blob)); !errors.Is(err, cor.wantErr) {
				t.Errorf("%s/%s: error %v, want errors.Is(%v)", name, cor.name, err, cor.wantErr)
			}
		}
		if name != "hll" {
			if err := target.UnmarshalBinary(hllBlob); !errors.Is(err, ErrKindMismatch) {
				t.Errorf("%s/kind mismatch: error %v, want ErrKindMismatch", name, err)
			}
		}
		if err := target.UnmarshalBinary(blob[:6+(len(blob)-6)/2]); err == nil {
			t.Errorf("%s/short payload: accepted", name)
		}
	}
}

func TestUnmarshalKindMismatchTyped(t *testing.T) {
	// payloadOfKind's mismatch error is typed: UnmarshalStore refuses a
	// counter's envelope.
	c, err := MustSpec("hll:mbits=512").New()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalStore[uint64](blob); !errors.Is(err, ErrKindMismatch) {
		t.Errorf("UnmarshalStore(counter): %v, want ErrKindMismatch", err)
	}
}
