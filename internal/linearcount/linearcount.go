// Package linearcount implements linear (probabilistic) counting from
// Whang, Vander-Zanden & Taylor (1990), the first baseline reviewed in
// Section 2.2 of the S-bitmap paper, and the sampled form of it that
// Section 2.2 reviews next: the virtual bitmap of Estan, Varghese & Fisk
// (2006), linear counting over a hash-sampled substream.
//
// Distinct items are hashed uniformly into a bitmap of m bits; with Z empty
// buckets remaining, the maximum-likelihood cardinality estimate is
//
//	n̂ = m · ln(m / Z).
//
// A sampled sketch (NewSampled) first keeps an item only if its sampling
// word — the low half of its 128-bit hash, so duplicates are kept or
// dropped alike — falls below ⌈r·2^64⌉, and scales the estimate of the
// kept substream back by 1/r. Package virtualbitmap sizes r and writes a
// sampled sketch's snapshots, which carry r ahead of the bitmap.
//
// Linear counting is accurate while the bitmap load n/m stays moderate
// (memory grows almost linearly in n, hence the name) and degrades sharply
// as the bitmap saturates; the S-bitmap paper uses it both as a baseline
// and as the estimation primitive inside virtual and multiresolution
// bitmaps.
package linearcount

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/uhash"
)

// Sketch is a linear counting bitmap over the items it keeps: every item,
// or a sampled substream. Not safe for concurrent use.
type Sketch struct {
	v    bitvec.Vector
	h    uhash.Hasher
	rate float64 // the sampling rate r, 1 for plain linear counting
	keep uint64  // the largest sampling word of a kept item
}

// New returns a linear counting sketch with m bits, hashing with the
// default Mixer seeded by seed. It panics if m < 1.
func New(m int, seed uint64) *Sketch {
	return NewWithHasher(m, uhash.NewMixer(seed))
}

// NewWithHasher returns a linear counting sketch with m bits and an
// explicit hash function. It counts every item.
func NewWithHasher(m int, h uhash.Hasher) *Sketch {
	return newSketch(m, 1, math.MaxUint64, h)
}

// NewSampled returns a sketch of m bits that counts the substream sampled
// at rate r in (0, 1], with an explicit hash function: an item is kept
// iff its sampling word is below ⌈r·2^64⌉, capped at 2^64−1, so even at
// r = 1 the one word 2^64−1 is dropped. It panics if m < 1 or r is
// outside (0, 1].
func NewSampled(m int, r float64, h uhash.Hasher) *Sketch {
	if !(r > 0 && r <= 1) {
		panic(fmt.Sprintf("linearcount: sampling rate %g outside (0, 1]", r))
	}
	return newSketch(m, r, keepFor(r), h)
}

func newSketch(m int, rate float64, keep uint64, h uhash.Hasher) *Sketch {
	if m < 1 {
		panic(fmt.Sprintf("linearcount: bitmap size %d < 1", m))
	}
	return &Sketch{v: *bitvec.New(m), h: h, rate: rate, keep: keep}
}

// keepFor returns the largest sampling word kept at rate r in (0, 1]; it
// serves construction and decoding alike, so the two cannot drift.
func keepFor(r float64) uint64 {
	if r >= 1 {
		return math.MaxUint64 - 1
	}
	return uint64(math.Ceil(r*math.Pow(2, 64))) - 1
}

// Add offers an item to the sketch and reports whether a bucket changed.
func (s *Sketch) Add(item []byte) bool {
	return s.insert(s.h.Sum128(item))
}

// AddUint64 offers a 64-bit item (equivalent to its 8-byte LE encoding).
func (s *Sketch) AddUint64(item uint64) bool {
	return s.insert(s.h.Sum128Uint64(item))
}

// AddString offers a string item; it hashes identically to Add of the
// string's bytes but avoids the []byte conversion.
func (s *Sketch) AddString(item string) bool {
	return s.insert(s.h.Sum128String(item))
}

func (s *Sketch) insert(bucketWord, sampleWord uint64) bool {
	if sampleWord > s.keep {
		return false
	}
	j, _ := bits.Mul64(bucketWord, uint64(s.v.Len()))
	return s.v.Set(int(j))
}

// AddBatch64 offers a slice of 64-bit items and returns how many set a
// fresh bucket; state-equivalent to AddUint64 on each item in order, with
// chunked hashing and unchecked bit sets (the multiply-shift bucket index
// is in range by construction).
func (s *Sketch) AddBatch64(items []uint64) int {
	return uhash.Batch64(s.h, nil, items, s.insertBatch)
}

// AddBatchString is AddBatch64 for string items.
func (s *Sketch) AddBatchString(items []string) int {
	return uhash.BatchString(s.h, nil, items, s.insertBatch)
}

func (s *Sketch) insertBatch(hi, lo []uint64) int {
	lo = lo[:len(hi)] // one bounds proof for the whole chunk
	v := &s.v
	mm := uint64(v.Len())
	keep := s.keep
	changed := 0
	for i, h := range hi {
		if lo[i] > keep {
			continue
		}
		j, _ := bits.Mul64(h, mm)
		if v.SetUnchecked(int(j)) {
			changed++
		}
	}
	return changed
}

// Rate returns the sampling rate r, 1 for a sketch that counts every
// item.
func (s *Sketch) Rate() float64 { return s.rate }

// Ones returns the number of set buckets.
func (s *Sketch) Ones() int { return s.v.Ones() }

// Saturated reports whether every bucket is set, in which case Estimate
// returns the (finite) saturation cap m·ln(m)/r rather than +Inf.
func (s *Sketch) Saturated() bool { return s.v.Zeros() == 0 }

// Estimate returns n̂ = m·ln(m/Z)/r, the linear-counting estimate of the
// kept substream scaled back by the sampling rate. A saturated bitmap
// returns m·ln(m)/r, the largest value the estimator can justify.
func (s *Sketch) Estimate() float64 {
	m := float64(s.v.Len())
	z := float64(s.v.Zeros())
	if z == 0 {
		return m * math.Log(m) / s.rate
	}
	return m * math.Log(m/z) / s.rate
}

// Merge ORs another sketch into s. Both must have the same size and (for
// meaningful results) the same hash function and sampling; the merged
// sketch estimates the cardinality of the union of the two streams.
func (s *Sketch) Merge(o *Sketch) error {
	return s.v.UnionWith(&o.v)
}

// SizeBits returns the summary memory footprint in bits.
func (s *Sketch) SizeBits() int { return s.v.Len() }

// Footprint returns the sketch's resident process memory in bytes: the
// struct and the bitmap words.
func (s *Sketch) Footprint() int {
	return int(unsafe.Sizeof(*s)-unsafe.Sizeof(s.v)) + s.v.Footprint()
}

// Reset clears the sketch for reuse.
func (s *Sketch) Reset() { s.v.Reset() }

// Hasher returns the sketch's hasher, or nil for a zero Sketch: what a
// decoder passes Unmarshal to restore a sketch in place under the hash it
// counted with.
func (s *Sketch) Hasher() uhash.Hasher { return s.h }

// MarshalBinary serializes the bitmap; a sampled sketch's rate is not
// serialized (package virtualbitmap writes it ahead of these bytes). The
// hash function is not serialized either; pass the original hasher to
// Unmarshal to continue counting.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.v.MarshalBinary() }

// Unmarshal reconstructs a sketch that counts every item from
// MarshalBinary output, hashing with h (nil selects the default Mixer with
// seed 1).
func Unmarshal(data []byte, h uhash.Hasher) (*Sketch, error) {
	return unmarshal(data, 1, math.MaxUint64, h)
}

// UnmarshalSampled reconstructs a sketch sampled at rate r in (0, 1], as
// NewSampled builds it, from MarshalBinary output, hashing with h (nil
// selects the default Mixer with seed 1).
func UnmarshalSampled(data []byte, r float64, h uhash.Hasher) (*Sketch, error) {
	if !(r > 0 && r <= 1) {
		return nil, fmt.Errorf("linearcount: sampling rate %g outside (0, 1]", r)
	}
	return unmarshal(data, r, keepFor(r), h)
}

func unmarshal(data []byte, rate float64, keep uint64, h uhash.Hasher) (*Sketch, error) {
	s := &Sketch{h: h, rate: rate, keep: keep}
	if err := s.v.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("linearcount: %w", err)
	}
	if s.v.Len() < 1 {
		return nil, fmt.Errorf("linearcount: serialized bitmap is empty")
	}
	if s.h == nil {
		s.h = uhash.NewMixer(1)
	}
	return s, nil
}
