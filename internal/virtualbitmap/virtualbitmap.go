// Package virtualbitmap implements the virtual bitmap of Estan, Varghese &
// Fisk (2006), reviewed in Section 2.2 of the S-bitmap paper: linear
// counting applied to a Bernoulli-sampled substream.
//
// Each distinct item is first subjected to a hash-based coin flip with rate
// r; survivors are counted by an ordinary linear-counting bitmap of m bits,
// and the final estimate is scaled back by 1/r. A single sampling rate can
// only cover a narrow cardinality band accurately — the limitation that
// motivates both the multiresolution bitmap and, ultimately, the S-bitmap's
// continuously adapting rates.
//
// That is package linearcount's sampled sketch — its bitmap, insert, batch
// insert, estimator and bitmap codec — so this package keeps only what
// is the virtual bitmap's own: RateFor, which centers r on a cardinality
// band, and a snapshot that carries r ahead of the bitmap.
package virtualbitmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/linearcount"
	"repro/internal/uhash"
)

// New returns a virtual bitmap with m bits and sampling rate rate in
// (0, 1], hashing with the default Mixer seeded by seed.
func New(m int, rate float64, seed uint64) *linearcount.Sketch {
	return NewWithHasher(m, rate, uhash.NewMixer(seed))
}

// NewWithHasher returns a virtual bitmap with an explicit hash function.
// It panics if m < 1 or rate is outside (0, 1].
func NewWithHasher(m int, rate float64, h uhash.Hasher) *linearcount.Sketch {
	return linearcount.NewSampled(m, rate, h)
}

// RateFor returns the sampling rate that centers a virtual bitmap of m bits
// on a target cardinality band [_, nMax]: the rate under which nMax sampled
// items load the bitmap to the quasi-optimal linear-counting load ρ ≈ 0.7·m
// set bits (load factor ln(m/(0.3m)) ≈ 1.2 distinct per bit).
func RateFor(m int, nMax float64) float64 {
	if nMax <= 0 {
		return 1
	}
	r := 1.2 * float64(m) / nMax
	if r > 1 {
		return 1
	}
	return r
}

// Marshal serializes a virtual bitmap: its sampling rate, then the bitmap
// as the sketch's MarshalBinary writes it. The hash function is not
// serialized; pass the original hasher to Unmarshal to continue counting.
func Marshal(s *linearcount.Sketch) []byte {
	vb, _ := s.MarshalBinary() // a bitmap's encoding cannot fail
	buf := make([]byte, 0, 8+len(vb))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Rate()))
	return append(buf, vb...)
}

// Unmarshal reconstructs a virtual bitmap from Marshal output, hashing
// with h (nil selects the default Mixer with seed 1).
func Unmarshal(data []byte, h uhash.Hasher) (*linearcount.Sketch, error) {
	if len(data) < 8 {
		return nil, errors.New("virtualbitmap: truncated serialization")
	}
	s, err := linearcount.UnmarshalSampled(data[8:], math.Float64frombits(binary.LittleEndian.Uint64(data)), h)
	if err != nil {
		return nil, fmt.Errorf("virtualbitmap: %w", err)
	}
	return s, nil
}
