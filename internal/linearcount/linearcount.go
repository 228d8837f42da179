// Package linearcount implements linear (probabilistic) counting from
// Whang, Vander-Zanden & Taylor (1990), the first baseline reviewed in
// Section 2.2 of the S-bitmap paper.
//
// Distinct items are hashed uniformly into a bitmap of m bits; with Z empty
// buckets remaining, the maximum-likelihood cardinality estimate is
//
//	n̂ = m · ln(m / Z).
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

// Sketch is a linear counting bitmap. Not safe for concurrent use.
type Sketch struct {
	v *bitvec.Vector
	h uhash.Hasher
}

// New returns a linear counting sketch with m bits, hashing with the
// default Mixer seeded by seed. It panics if m < 1.
func New(m int, seed uint64) *Sketch {
	return NewWithHasher(m, uhash.NewMixer(seed))
}

// NewWithHasher returns a linear counting sketch with m bits and an
// explicit hash function.
func NewWithHasher(m int, h uhash.Hasher) *Sketch {
	if m < 1 {
		panic(fmt.Sprintf("linearcount: bitmap size %d < 1", m))
	}
	return &Sketch{v: bitvec.New(m), h: h}
}

// Add offers an item to the sketch and reports whether a bucket changed.
func (s *Sketch) Add(item []byte) bool {
	hi, _ := s.h.Sum128(item)
	return s.insert(hi)
}

// AddUint64 offers a 64-bit item (equivalent to its 8-byte LE encoding).
func (s *Sketch) AddUint64(item uint64) bool {
	hi, _ := s.h.Sum128Uint64(item)
	return s.insert(hi)
}

// AddString offers a string item; it hashes identically to Add of the
// string's bytes but avoids the []byte conversion.
func (s *Sketch) AddString(item string) bool {
	hi, _ := s.h.Sum128String(item)
	return s.insert(hi)
}

func (s *Sketch) insert(word uint64) bool {
	j, _ := bits.Mul64(word, uint64(s.v.Len()))
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

func (s *Sketch) insertBatch(hi, _ []uint64) int {
	v := s.v
	mm := uint64(v.Len())
	changed := 0
	for _, h := range hi {
		j, _ := bits.Mul64(h, mm)
		if v.SetUnchecked(int(j)) {
			changed++
		}
	}
	return changed
}

// Ones returns the number of set buckets.
func (s *Sketch) Ones() int { return s.v.Ones() }

// Saturated reports whether every bucket is set, in which case Estimate
// returns the (finite) saturation cap m·ln(m) rather than +Inf.
func (s *Sketch) Saturated() bool { return s.v.Zeros() == 0 }

// Estimate returns n̂ = m·ln(m/Z). A saturated bitmap returns m·ln(m),
// the largest value the estimator can justify.
func (s *Sketch) Estimate() float64 {
	m := float64(s.v.Len())
	z := float64(s.v.Zeros())
	if z == 0 {
		return m * math.Log(m)
	}
	return m * math.Log(m/z)
}

// Merge ORs another linear counting sketch into s. Both must have the same
// size and (for meaningful results) the same hash function; the merged
// sketch estimates the cardinality of the union of the two streams.
func (s *Sketch) Merge(o *Sketch) error {
	return s.v.UnionWith(o.vector())
}

func (s *Sketch) vector() *bitvec.Vector { return s.v }

// SizeBits returns the summary memory footprint in bits.
func (s *Sketch) SizeBits() int { return s.v.Len() }

// Footprint returns the sketch's resident process memory in bytes: the
// struct and the bitmap words.
func (s *Sketch) Footprint() int {
	return int(unsafe.Sizeof(*s)) + s.v.Footprint()
}

// Reset clears the sketch for reuse.
func (s *Sketch) Reset() { s.v.Reset() }

// MarshalBinary serializes the bitmap. The hash function is not serialized;
// pass the original hasher to Unmarshal to continue counting.
func (s *Sketch) MarshalBinary() ([]byte, error) { return s.v.MarshalBinary() }

// UnmarshalBinary reconstructs the sketch in place from MarshalBinary
// output. A nil hasher field is replaced by the default Mixer with seed 1.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	v := &bitvec.Vector{}
	if err := v.UnmarshalBinary(data); err != nil {
		return fmt.Errorf("linearcount: %w", err)
	}
	if v.Len() < 1 {
		return fmt.Errorf("linearcount: serialized bitmap is empty")
	}
	s.v = v
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
