// Package adaptive implements the two distinct-sampling baselines reviewed
// in Section 2.4 of the S-bitmap paper:
//
//   - Sampler: Wegman's adaptive sampling as analyzed by Flajolet ("On
//     adaptive sampling", Computing 1990). A bounded collection of hashed
//     values at sampling depth d (only hashes with d leading zero bits are
//     retained); when the collection overflows, d increases and the
//     collection is re-filtered. The estimate is |S|·2^d.
//   - DistinctSampler: the distinct sampling of Gibbons (VLDB 2001), which
//     keeps the sampled items themselves (with multiplicities), enabling
//     the "event report" queries of that paper in addition to the count.
//
// Both are "log-counting" methods with RRMSE ≈ 1.20/√capacity exhibiting
// the periodic fluctuation Flajolet documented — which is precisely why
// the S-bitmap paper classifies them as not scale-invariant.
package adaptive

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"unsafe"

	"repro/internal/uhash"
)

// Sampler is Wegman's adaptive sampler over hashed values.
// Not safe for concurrent use.
type Sampler struct {
	capacity int
	depth    uint
	set      map[uint64]struct{}
	h        uhash.Hasher
}

// NewSamplerWithHasher returns an adaptive sampler that retains at most
// capacity hashed values, hashing with h. It panics if capacity < 2.
func NewSamplerWithHasher(capacity int, h uhash.Hasher) *Sampler {
	if capacity < 2 {
		panic(fmt.Sprintf("adaptive: capacity %d < 2", capacity))
	}
	return &Sampler{capacity: capacity, set: make(map[uint64]struct{}, capacity), h: h}
}

// CapacityForBits returns the sample capacity a budget of mbits bits buys
// under the 64-bits-per-retained-hash accounting used in comparisons.
func CapacityForBits(mbits int) int {
	c := mbits / 64
	if c < 2 {
		c = 2
	}
	return c
}

// Add offers an item; it reports whether the sample changed.
func (s *Sampler) Add(item []byte) bool {
	hi, lo := s.h.Sum128(item)
	return s.insert(hi, lo)
}

// AddUint64 offers a 64-bit item.
func (s *Sampler) AddUint64(item uint64) bool {
	hi, lo := s.h.Sum128Uint64(item)
	return s.insert(hi, lo)
}

// AddString offers a string item; it hashes identically to Add of the
// string's bytes but avoids the []byte conversion.
func (s *Sampler) AddString(item string) bool {
	hi, lo := s.h.Sum128String(item)
	return s.insert(hi, lo)
}

func (s *Sampler) insert(hi, lo uint64) bool {
	// An item is in the current sample iff its hash has ≥ depth leading
	// zeros. The remaining bits (we keep the full word) identify it;
	// duplicates hash identically and are absorbed by the set.
	if uint(bits.LeadingZeros64(hi)) < s.depth {
		return false
	}
	if _, ok := s.set[hi]; ok {
		// Mix in lo to disambiguate the (negligible but nonzero) chance of
		// two distinct items colliding on hi: track nothing extra — the
		// classical algorithm accepts this collision probability.
		_ = lo
		return false
	}
	s.set[hi] = struct{}{}
	for len(s.set) > s.capacity {
		s.deepen()
	}
	return true
}

// AddBatch64 offers a slice of 64-bit items and returns how many changed
// the sample; state-equivalent to AddUint64 on each item in order. The
// insert itself is sample-state-dependent (depth can change mid-batch), so
// only the hashing is batched.
func (s *Sampler) AddBatch64(items []uint64) int {
	return uhash.Batch64(s.h, nil, items, s.insertBatch)
}

// AddBatchString is AddBatch64 for string items.
func (s *Sampler) AddBatchString(items []string) int {
	return uhash.BatchString(s.h, nil, items, s.insertBatch)
}

func (s *Sampler) insertBatch(hi, lo []uint64) int {
	changed := 0
	for i := range hi {
		if s.insert(hi[i], lo[i]) {
			changed++
		}
	}
	return changed
}

// deepen increments the sampling depth and evicts non-conforming hashes.
func (s *Sampler) deepen() {
	s.depth++
	for h := range s.set {
		if uint(bits.LeadingZeros64(h)) < s.depth {
			delete(s.set, h)
		}
	}
}

// Depth returns the current sampling depth d (sampling rate 2^−d).
func (s *Sampler) Depth() uint { return s.depth }

// SampleSize returns the current number of retained hashes.
func (s *Sampler) SampleSize() int { return len(s.set) }

// Estimate returns n̂ = |S|·2^d.
func (s *Sampler) Estimate() float64 {
	return float64(len(s.set)) * math.Pow(2, float64(s.depth))
}

// SizeBits returns the memory footprint under the comparison accounting:
// 64 bits per retained-hash slot, counting capacity (the allocation), as
// the paper's ε⁻²·log N classification does.
func (s *Sampler) SizeBits() int { return s.capacity * 64 }

// Footprint returns the sampler's resident process memory in bytes: the
// struct, the fingerprint set (estimated at Go's map cost of roughly
// key + 16 bytes of bucket overhead per CAPACITY slot — the map grows to
// capacity and stays there).
func (s *Sampler) Footprint() int {
	return int(unsafe.Sizeof(*s)) + s.capacity*(8+16)
}

// Reset clears the sampler for reuse, keeping the set's storage.
func (s *Sampler) Reset() {
	s.depth = 0
	clear(s.set)
}

// MarshalBinary serializes the capacity, depth, and retained hashes (sorted
// for a deterministic encoding). The hash function is not serialized; pass
// the original hasher to Unmarshal to continue counting.
func (s *Sampler) MarshalBinary() ([]byte, error) {
	hashes := make([]uint64, 0, len(s.set))
	for h := range s.set {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	buf := make([]byte, 0, 16+8*len(hashes))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.capacity))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.depth))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(hashes)))
	for _, h := range hashes {
		buf = binary.LittleEndian.AppendUint64(buf, h)
	}
	return buf, nil
}

// UnmarshalBinary reconstructs the sampler in place from MarshalBinary
// output. A nil hasher field is replaced by the default Mixer with seed 1.
func (s *Sampler) UnmarshalBinary(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("adaptive: truncated serialization")
	}
	capacity := int(binary.LittleEndian.Uint32(data))
	depth := uint(binary.LittleEndian.Uint32(data[4:]))
	count := int(binary.LittleEndian.Uint64(data[8:]))
	if capacity < 2 {
		return fmt.Errorf("adaptive: serialized capacity %d < 2", capacity)
	}
	if depth > 64 {
		return fmt.Errorf("adaptive: serialized depth %d exceeds the 64-bit hash width", depth)
	}
	if count < 0 || count > capacity {
		return fmt.Errorf("adaptive: serialized sample size %d exceeds capacity %d", count, capacity)
	}
	if len(data) != 16+8*count {
		return fmt.Errorf("adaptive: sample body %d bytes, want %d", len(data)-16, 8*count)
	}
	// Sized by the retained hashes, which the body's length bounds, not by
	// the capacity, which is only a claim: the set grows toward it as
	// items arrive.
	set := make(map[uint64]struct{}, count)
	for i := 0; i < count; i++ {
		h := binary.LittleEndian.Uint64(data[16+8*i:])
		if uint(bits.LeadingZeros64(h)) < depth {
			return fmt.Errorf("adaptive: retained hash %#x violates depth %d", h, depth)
		}
		set[h] = struct{}{}
	}
	if len(set) != count {
		return fmt.Errorf("adaptive: serialized sample contains duplicates")
	}
	s.capacity, s.depth, s.set = capacity, depth, set
	if s.h == nil {
		s.h = uhash.NewMixer(1)
	}
	return nil
}

// Unmarshal reconstructs a sampler from MarshalBinary output, hashing with
// h (nil selects the default Mixer with seed 1).
func Unmarshal(data []byte, h uhash.Hasher) (*Sampler, error) {
	s := &Sampler{h: h}
	if err := s.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return s, nil
}
