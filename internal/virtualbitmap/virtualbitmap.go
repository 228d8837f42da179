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
package virtualbitmap

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/uhash"
)

// Sketch is a virtual bitmap. Not safe for concurrent use.
type Sketch struct {
	v         *bitvec.Vector
	h         uhash.Hasher
	rate      float64
	threshold uint64 // sampling acceptance threshold on the low hash word
}

// New returns a virtual bitmap with m bits and sampling rate rate in
// (0, 1], hashing with the default Mixer seeded by seed.
func New(m int, rate float64, seed uint64) *Sketch {
	return NewWithHasher(m, rate, uhash.NewMixer(seed))
}

// NewWithHasher returns a virtual bitmap with an explicit hash function.
// It panics if m < 1 or rate is outside (0, 1].
func NewWithHasher(m int, rate float64, h uhash.Hasher) *Sketch {
	if m < 1 {
		panic(fmt.Sprintf("virtualbitmap: bitmap size %d < 1", m))
	}
	if rate <= 0 || rate > 1 {
		panic(fmt.Sprintf("virtualbitmap: sampling rate %g outside (0, 1]", rate))
	}
	return &Sketch{v: bitvec.New(m), h: h, rate: rate, threshold: thresholdFor(rate)}
}

// thresholdFor converts a sampling rate to the acceptance threshold on the
// 64-bit sampling word; shared by construction and deserialization so the
// sampling rule cannot drift between the two.
func thresholdFor(rate float64) uint64 {
	if rate >= 1 {
		return math.MaxUint64
	}
	return uint64(math.Ceil(rate * math.Pow(2, 64)))
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

// Add offers an item; it reports whether the underlying bitmap changed.
func (s *Sketch) Add(item []byte) bool {
	hi, lo := s.h.Sum128(item)
	return s.insert(hi, lo)
}

// AddUint64 offers a 64-bit item.
func (s *Sketch) AddUint64(item uint64) bool {
	hi, lo := s.h.Sum128Uint64(item)
	return s.insert(hi, lo)
}

// AddString offers a string item; it hashes identically to Add of the
// string's bytes but avoids the []byte conversion.
func (s *Sketch) AddString(item string) bool {
	hi, lo := s.h.Sum128String(item)
	return s.insert(hi, lo)
}

func (s *Sketch) insert(bucketWord, sampleWord uint64) bool {
	// The sampling decision is a pure function of the item's hash, so
	// duplicates are consistently kept or dropped.
	if sampleWord >= s.threshold {
		return false
	}
	j, _ := bits.Mul64(bucketWord, uint64(s.v.Len()))
	return s.v.Set(int(j))
}

// AddBatch64 offers a slice of 64-bit items and returns how many changed
// the bitmap; state-equivalent to AddUint64 on each item in order, with
// chunked hashing, the sampling threshold in a local, and unchecked bit
// sets (the multiply-shift bucket index is in range by construction).
func (s *Sketch) AddBatch64(items []uint64) int {
	return uhash.Batch64(s.h, nil, items, s.insertBatch)
}

// AddBatchString is AddBatch64 for string items.
func (s *Sketch) AddBatchString(items []string) int {
	return uhash.BatchString(s.h, nil, items, s.insertBatch)
}

func (s *Sketch) insertBatch(hi, lo []uint64) int {
	lo = lo[:len(hi)] // one bounds proof for the whole chunk
	v := s.v
	mm := uint64(v.Len())
	thr := s.threshold
	changed := 0
	for i, h := range hi {
		if lo[i] >= thr {
			continue
		}
		j, _ := bits.Mul64(h, mm)
		if v.SetUnchecked(int(j)) {
			changed++
		}
	}
	return changed
}

// Rate returns the configured sampling rate.
func (s *Sketch) Rate() float64 { return s.rate }

// Ones returns the number of set buckets.
func (s *Sketch) Ones() int { return s.v.Ones() }

// Saturated reports whether the underlying bitmap is full.
func (s *Sketch) Saturated() bool { return s.v.Zeros() == 0 }

// Estimate returns n̂ = (m/r)·ln(m/Z), the linear-counting estimate of the
// sampled substream scaled back by the sampling rate.
func (s *Sketch) Estimate() float64 {
	m := float64(s.v.Len())
	z := float64(s.v.Zeros())
	if z == 0 {
		return m * math.Log(m) / s.rate
	}
	return m * math.Log(m/z) / s.rate
}

// SizeBits returns the summary memory footprint in bits.
func (s *Sketch) SizeBits() int { return s.v.Len() }

// Footprint returns the sketch's resident process memory in bytes: the
// struct and the bitmap words.
func (s *Sketch) Footprint() int {
	return int(unsafe.Sizeof(*s)) + s.v.Footprint()
}

// Reset clears the sketch for reuse.
func (s *Sketch) Reset() { s.v.Reset() }

// MarshalBinary serializes the sampling rate and the bitmap. The hash
// function is not serialized; pass the original hasher to Unmarshal to
// continue counting.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	vb, err := s.v.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 8+len(vb))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.rate))
	return append(buf, vb...), nil
}

// UnmarshalBinary reconstructs the sketch in place from MarshalBinary
// output. A nil hasher field is replaced by the default Mixer with seed 1.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("virtualbitmap: truncated serialization")
	}
	rate := math.Float64frombits(binary.LittleEndian.Uint64(data))
	if !(rate > 0 && rate <= 1) {
		return fmt.Errorf("virtualbitmap: serialized rate %g outside (0, 1]", rate)
	}
	v := &bitvec.Vector{}
	if err := v.UnmarshalBinary(data[8:]); err != nil {
		return fmt.Errorf("virtualbitmap: %w", err)
	}
	if v.Len() < 1 {
		return fmt.Errorf("virtualbitmap: serialized bitmap is empty")
	}
	s.v, s.rate, s.threshold = v, rate, thresholdFor(rate)
	if s.h == nil {
		s.h = uhash.NewMixer(1)
	}
	return nil
}

// Unmarshal reconstructs a sketch from MarshalBinary output, hashing with h
// (nil selects the default Mixer with seed 1).
func Unmarshal(data []byte, h uhash.Hasher) (*Sketch, error) {
	s := &Sketch{h: h}
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}
