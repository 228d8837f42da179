package sbitmap

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/fm"
	"repro/internal/hyperloglog"
	"repro/internal/linearcount"
	"repro/internal/loglog"
	"repro/internal/mrbitmap"
	"repro/internal/uhash"
	"repro/internal/virtualbitmap"
)

// Universal serialization: every counter in the module marshals into one
// tagged, versioned envelope so snapshots can be written, shipped across
// processes, and restored without knowing the sketch kind in advance.
//
// Envelope layout (little-endian):
//
//	[0:4]  magic "SKZ1" (0x315a4b53)
//	[4]    format version (currently 1)
//	[5]    kind code (see kindCodes)
//	[6:]   kind-specific payload (the internal sketch serialization)
//
// Hash seeds are never serialized (the paper's memory accounting excludes
// them, and a snapshot should not leak key material): a restored counter
// estimates correctly immediately, but to CONTINUE counting it must be
// restored with the same seed/hash options it was built with.

// envMagic tags serialized counters ("SKZ1" read as little-endian uint32).
const envMagic = uint32(0x315a4b53)

// envVersion is the current envelope format version.
const envVersion = 1

// Typed envelope errors. Every snapshot decoder in the module — Unmarshal,
// the UnmarshalBinary methods, UnmarshalStore — reports
// a malformed envelope through one of these sentinels (wrapped with
// context; test with errors.Is), so callers can distinguish "not a
// snapshot at all" from "a snapshot this build cannot read".
var (
	// ErrTruncated reports input shorter than the structure it declares
	// (envelope header, length-prefixed section, or container entry).
	ErrTruncated = errors.New("sbitmap: truncated snapshot")
	// ErrBadMagic reports input that does not start with the snapshot
	// magic — it is not a counter snapshot.
	ErrBadMagic = errors.New("sbitmap: bad snapshot magic (not a counter snapshot)")
	// ErrUnsupportedVersion reports an envelope version this build does
	// not read.
	ErrUnsupportedVersion = errors.New("sbitmap: unsupported snapshot version")
	// ErrUnknownKind reports an envelope kind code this build does not
	// know (a snapshot from a newer build, or corruption).
	ErrUnknownKind = errors.New("sbitmap: unknown snapshot kind")
	// ErrKindMismatch reports a well-formed snapshot of a different kind
	// than the decoder expects (e.g. an HLL blob handed to
	// (*LogLog).UnmarshalBinary).
	ErrKindMismatch = errors.New("sbitmap: snapshot kind mismatch")
)

// kindCodes maps each serializable kind to its envelope tag. Codes are
// append-only: never renumber, or old snapshots become unreadable. Codes
// 10 and 11 belonged to the removed single-counter sharded and windowed
// decorators; they decode as ErrUnknownKind and must never be reused.
var kindCodes = map[Kind]byte{
	KindSBitmap:       1,
	KindHLL:           2,
	KindLogLog:        3,
	KindFM:            4,
	KindLinearCount:   5,
	KindVirtualBitmap: 6,
	KindMRBitmap:      7,
	KindAdaptive:      8,
	KindExact:         9,
	kindStore:         12,
	kindWindowRing:    13,
}

// kindStore and kindWindowRing tag container snapshots; they are not
// Spec kinds (a Store is built around a Spec, not from one).
const (
	kindStore      Kind = "store"
	kindWindowRing Kind = "windowring"
)

func kindFromCode(code byte) (Kind, bool) {
	for k, c := range kindCodes {
		if c == code {
			return k, true
		}
	}
	return "", false
}

// appendEnvelope frames a payload with the magic/version/kind header.
func appendEnvelope(kind Kind, payload []byte) []byte {
	buf := make([]byte, 0, 6+len(payload))
	buf = binary.LittleEndian.AppendUint32(buf, envMagic)
	buf = append(buf, envVersion, kindCodes[kind])
	return append(buf, payload...)
}

// marshalEnvelope serializes an inner sketch and frames it.
func marshalEnvelope(kind Kind, inner encoding.BinaryMarshaler) ([]byte, error) {
	payload, err := inner.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return appendEnvelope(kind, payload), nil
}

// openEnvelope validates the header and returns the kind and payload.
func openEnvelope(data []byte) (Kind, []byte, error) {
	if len(data) < 6 {
		return "", nil, fmt.Errorf("%w: envelope header needs 6 bytes, have %d", ErrTruncated, len(data))
	}
	if binary.LittleEndian.Uint32(data) != envMagic {
		return "", nil, ErrBadMagic
	}
	if v := data[4]; v != envVersion {
		return "", nil, fmt.Errorf("%w: version %d (this build reads version %d)", ErrUnsupportedVersion, v, envVersion)
	}
	kind, ok := kindFromCode(data[5])
	if !ok {
		return "", nil, fmt.Errorf("%w: kind code %d", ErrUnknownKind, data[5])
	}
	return kind, data[6:], nil
}

// payloadOfKind opens an envelope and checks it carries the expected kind.
func payloadOfKind(data []byte, want Kind) ([]byte, error) {
	kind, payload, err := openEnvelope(data)
	if err != nil {
		return nil, err
	}
	if kind != want {
		return nil, fmt.Errorf("%w: snapshot holds a %s counter, not %s", ErrKindMismatch, kind, want)
	}
	return payload, nil
}

// Marshal serializes any counter of this module into the tagged envelope.
// It fails for values that do not implement encoding.BinaryMarshaler
// (e.g. a user-supplied Counter).
func Marshal(c any) ([]byte, error) {
	m, ok := c.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("sbitmap: %T does not support serialization", c)
	}
	return m.MarshalBinary()
}

// Unmarshal reconstructs a counter serialized by Marshal (or any
// MarshalBinary method in this module), dispatching on the envelope's kind
// tag. The restored counter estimates immediately; pass the original
// WithSeed / hash-family options to continue adding items. Keyed Store
// snapshots are not Counters — restore those with UnmarshalStore.
//
// For backward compatibility, pre-envelope S-bitmap snapshots (raw
// internal/core format) are still accepted.
func Unmarshal(data []byte, opts ...Option) (Counter, error) {
	o := buildOptions(opts)
	if len(data) >= 4 && binary.LittleEndian.Uint32(data) == core.LegacySketchMagic {
		return decodeCounter(KindSBitmap, data, o.newHasher())
	}
	kind, payload, err := openEnvelope(data)
	if err != nil {
		return nil, err
	}
	return decodeCounter(kind, payload, o.newHasher())
}

// decodeCounter is Unmarshal's decoding step: it restores a counter of
// kind from its envelope payload (or, for an S-bitmap, from a legacy
// snapshot), hashing with h, which any number of counters may share.
func decodeCounter(kind Kind, payload []byte, h uhash.Hasher) (Counter, error) {
	switch kind {
	case KindSBitmap:
		sk, err := core.UnmarshalSketch(payload, core.WithHasher(h))
		if err != nil {
			return nil, fmt.Errorf("sbitmap: %w", err)
		}
		return &SBitmap{sk: *sk}, nil
	case KindHLL:
		sk, err := hyperloglog.Unmarshal(payload, h)
		if err != nil {
			return nil, err
		}
		return &HyperLogLog{registers{*sk}}, nil
	case KindLogLog:
		sk, err := loglog.Unmarshal(payload, h)
		if err != nil {
			return nil, err
		}
		return &LogLog{registers{*sk}}, nil
	case KindFM:
		sk, err := fm.Unmarshal(payload, h)
		if err != nil {
			return nil, err
		}
		return &FM{sk: sk}, nil
	case KindLinearCount:
		sk, err := linearcount.Unmarshal(payload, h)
		if err != nil {
			return nil, err
		}
		return &LinearCounting{bitmap{*sk}}, nil
	case KindVirtualBitmap:
		sk, err := virtualbitmap.Unmarshal(payload, h)
		if err != nil {
			return nil, err
		}
		return &VirtualBitmap{bitmap{*sk}}, nil
	case KindMRBitmap:
		sk, err := mrbitmap.Unmarshal(payload, h)
		if err != nil {
			return nil, err
		}
		return &MRBitmap{sk: sk}, nil
	case KindAdaptive:
		sk, err := adaptive.Unmarshal(payload, h)
		if err != nil {
			return nil, err
		}
		return &AdaptiveSampler{sk: sk}, nil
	case KindExact:
		c, err := exact.Unmarshal(payload)
		if err != nil {
			return nil, err
		}
		return &Exact{c: c}, nil
	case kindStore:
		return nil, errors.New("sbitmap: snapshot holds a keyed Store; restore it with UnmarshalStore")
	case kindWindowRing:
		return nil, errors.New("sbitmap: snapshot holds a per-key sub-window ring; it only decodes inside a windowed Store snapshot")
	default:
		return nil, fmt.Errorf("sbitmap: no decoder for snapshot kind %s", kind)
	}
}
