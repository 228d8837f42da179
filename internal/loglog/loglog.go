// Package loglog implements LogLog counting (Durand & Flajolet 2003), one
// of the two "loglog-counting" baselines the S-bitmap paper compares
// against in Section 6.
//
// Each of m = 2^k registers stores the maximum geometric value observed in
// its substream — the position (1-based) of the first 1 bit of the hashed
// suffix — which needs only ⌈log₂ log₂ N⌉ ≈ 5 bits. The estimate is the
// bias-corrected geometric mean
//
//	n̂ = α_m · m · 2^(ΣM_j / m),
//
// with α_m = (Γ(−1/m)·(1−2^{1/m})/ln 2)^{−m} (Durand & Flajolet, Theorem
// 1), which converges to ≈ 0.39701 as m grows.
package loglog

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/uhash"
)

// RegisterBits is the register width used for memory accounting. Five bits
// hold max-ranks up to 31, i.e. cardinalities toward 2^31 per substream —
// matching the α = 5 accounting the paper applies for N < 2^32.
const RegisterBits = 5

// maxRank is the largest storable rank with 5-bit registers.
const maxRank = 1<<RegisterBits - 1

// Sketch is a LogLog counter. Not safe for concurrent use.
type Sketch struct {
	reg   []uint8
	kBits uint // m = 2^kBits
	alpha float64
	h     uhash.Hasher
}

// New returns a LogLog sketch with m = 2^kBits registers, hashing with the
// default Mixer seeded by seed. It panics if kBits is outside [2, 24].
func New(kBits uint, seed uint64) *Sketch {
	return NewWithHasher(kBits, uhash.NewMixer(seed))
}

// NewWithHasher returns a LogLog sketch with an explicit hash function.
func NewWithHasher(kBits uint, h uhash.Hasher) *Sketch {
	if kBits < 2 || kBits > 24 {
		panic(fmt.Sprintf("loglog: kBits = %d outside [2, 24]", kBits))
	}
	m := 1 << kBits
	return &Sketch{reg: make([]uint8, m), kBits: kBits, alpha: Alpha(m), h: h}
}

// KBitsForBudget returns the largest register-count exponent k such that
// 2^k 5-bit registers fit in mbits bits — the accounting used when all
// algorithms share one memory budget (Section 6.2).
func KBitsForBudget(mbits int) uint {
	k := uint(2)
	for (1<<(k+1))*RegisterBits <= mbits && k+1 <= 24 {
		k++
	}
	return k
}

// Alpha returns the exact bias-correction constant α_m from Durand &
// Flajolet: (Γ(−1/m)·(1−2^{1/m})/ln 2)^{−m}.
func Alpha(m int) float64 {
	fm := float64(m)
	g := math.Gamma(-1 / fm)
	base := g * (1 - math.Pow(2, 1/fm)) / math.Ln2
	return math.Pow(base, -fm)
}

// Add offers an item to the sketch; it reports whether a register grew.
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

func (s *Sketch) insert(bucketWord, geoWord uint64) bool {
	j := bucketWord >> (64 - s.kBits)
	// rank = 1 + number of leading zeros of the remaining bits: the
	// 1-based position of the leftmost 1, P(rank = k) = 2^-k.
	rank := bits.LeadingZeros64(geoWord) + 1
	if rank > maxRank {
		rank = maxRank
	}
	if uint8(rank) <= s.reg[j] {
		return false
	}
	s.reg[j] = uint8(rank)
	return true
}

// AddBatch64 offers a slice of 64-bit items and returns how many grew a
// register; state-equivalent to AddUint64 on each item in order, with
// chunked hashing and the register array in a local.
func (s *Sketch) AddBatch64(items []uint64) int {
	return uhash.Batch64(s.h, nil, items, s.insertBatch)
}

// AddBatchString is AddBatch64 for string items.
func (s *Sketch) AddBatchString(items []string) int {
	return uhash.BatchString(s.h, nil, items, s.insertBatch)
}

// insertBatch replays insert over a chunk of hashed items; the bucket
// index is a kBits-bit prefix, in range of the register array by
// construction.
func (s *Sketch) insertBatch(hi, lo []uint64) int {
	lo = lo[:len(hi)] // one bounds proof for the whole chunk
	reg := s.reg
	shift := 64 - s.kBits
	changed := 0
	for i, h := range hi {
		j := h >> shift
		rank := bits.LeadingZeros64(lo[i]) + 1
		if rank > maxRank {
			rank = maxRank
		}
		if uint8(rank) > reg[j] {
			reg[j] = uint8(rank)
			changed++
		}
	}
	return changed
}

// M returns the number of registers.
func (s *Sketch) M() int { return len(s.reg) }

// Estimate returns n̂ = α_m · m · 2^(mean rank).
func (s *Sketch) Estimate() float64 {
	m := len(s.reg)
	sum := 0
	for _, r := range s.reg {
		sum += int(r)
	}
	return s.alpha * float64(m) * math.Pow(2, float64(sum)/float64(m))
}

// StdErrTheory returns the asymptotic relative standard error 1.30/√m
// (Durand & Flajolet, Theorem 2).
func (s *Sketch) StdErrTheory() float64 { return 1.30 / math.Sqrt(float64(len(s.reg))) }

// Merge takes the register-wise maximum with another sketch; the result
// summarizes the union of the two streams. Register counts must match.
func (s *Sketch) Merge(o *Sketch) error {
	if len(s.reg) != len(o.reg) {
		return fmt.Errorf("loglog: merge of m=%d with m=%d", len(s.reg), len(o.reg))
	}
	for j := range s.reg {
		if o.reg[j] > s.reg[j] {
			s.reg[j] = o.reg[j]
		}
	}
	return nil
}

// SizeBits returns the summary memory footprint in bits (5 per register).
func (s *Sketch) SizeBits() int { return len(s.reg) * RegisterBits }

// Footprint returns the sketch's resident process memory in bytes: the
// struct and the register array at capacity.
func (s *Sketch) Footprint() int {
	return int(unsafe.Sizeof(*s)) + cap(s.reg)
}

// MarshalBinary serializes the register array (one byte per register,
// preceded by the register-count exponent). The hash function is not
// serialized; pass the original hasher to Unmarshal to continue counting.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 1+len(s.reg))
	buf = append(buf, byte(s.kBits))
	buf = append(buf, s.reg...)
	return buf, nil
}

// UnmarshalBinary reconstructs the sketch in place from MarshalBinary
// output. A nil hasher field is replaced by the default Mixer with seed 1.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("loglog: truncated serialization")
	}
	kBits := uint(data[0])
	if kBits < 2 || kBits > 24 {
		return fmt.Errorf("loglog: serialized kBits = %d outside [2, 24]", kBits)
	}
	m := 1 << kBits
	if len(data) != 1+m {
		return fmt.Errorf("loglog: register body %d bytes, want %d", len(data)-1, m)
	}
	for _, r := range data[1:] {
		if r > maxRank {
			return fmt.Errorf("loglog: serialized rank %d exceeds register width", r)
		}
	}
	s.reg = append([]uint8(nil), data[1:]...)
	s.kBits = kBits
	s.alpha = Alpha(m)
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

// Reset clears the sketch for reuse.
func (s *Sketch) Reset() {
	for j := range s.reg {
		s.reg[j] = 0
	}
}
