package adaptive

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/uhash"
)

// DistinctSampler implements Gibbons' distinct sampling (VLDB 2001): like
// Wegman's sampler it retains a level-based sample of distinct items, but
// it stores the items themselves together with their multiplicities, so it
// can answer "distinct values" AND per-item "event report" queries over
// the sampled subpopulation.
//
// Not safe for concurrent use.
type DistinctSampler struct {
	capacity int
	depth    uint
	items    map[string]*SampledItem
	h        uhash.Hasher
}

// SampledItem is one retained distinct item with its observed multiplicity.
type SampledItem struct {
	Key   string
	Count uint64
	hash  uint64
}

// NewDistinctSampler returns a distinct sampler retaining at most capacity
// items, hashing with the default Mixer seeded by seed. It panics if
// capacity < 2.
func NewDistinctSampler(capacity int, seed uint64) *DistinctSampler {
	if capacity < 2 {
		panic(fmt.Sprintf("adaptive: capacity %d < 2", capacity))
	}
	return &DistinctSampler{capacity: capacity, items: make(map[string]*SampledItem, capacity), h: uhash.NewMixer(seed)}
}

// Add offers an item; it reports whether the sample gained a new distinct
// item (multiplicity updates of already-sampled items return false).
func (s *DistinctSampler) Add(item []byte) bool { return s.insert(string(item)) }

// AddString offers a string item.
func (s *DistinctSampler) AddString(item string) bool { return s.insert(item) }

func (s *DistinctSampler) insert(key string) bool {
	hi, _ := s.h.Sum128([]byte(key))
	if uint(bits.LeadingZeros64(hi)) < s.depth {
		return false
	}
	if it, ok := s.items[key]; ok {
		it.Count++
		return false
	}
	s.items[key] = &SampledItem{Key: key, Count: 1, hash: hi}
	for len(s.items) > s.capacity {
		s.deepen()
	}
	return true
}

func (s *DistinctSampler) deepen() {
	s.depth++
	for k, it := range s.items {
		if uint(bits.LeadingZeros64(it.hash)) < s.depth {
			delete(s.items, k)
		}
	}
}

// Depth returns the current sampling depth.
func (s *DistinctSampler) Depth() uint { return s.depth }

// SampleSize returns the number of retained distinct items.
func (s *DistinctSampler) SampleSize() int { return len(s.items) }

// Sample returns the retained items (order unspecified). The returned
// structs are copies; mutating them does not affect the sampler.
func (s *DistinctSampler) Sample() []SampledItem {
	out := make([]SampledItem, 0, len(s.items))
	for _, it := range s.items {
		out = append(out, *it)
	}
	return out
}

// Estimate returns the distinct-count estimate |S|·2^d.
func (s *DistinctSampler) Estimate() float64 {
	return float64(len(s.items)) * math.Pow(2, float64(s.depth))
}

// SizeBits reports the allocation-based footprint: capacity slots of a
// 64-bit hash plus a 64-bit counter. (Key storage is workload-dependent
// and excluded, mirroring the paper's treatment of sampling methods as
// ε⁻²·log N-cost algorithms.)
func (s *DistinctSampler) SizeBits() int { return s.capacity * 128 }

// Reset clears the sampler for reuse.
func (s *DistinctSampler) Reset() {
	s.depth = 0
	s.items = make(map[string]*SampledItem, s.capacity)
}
