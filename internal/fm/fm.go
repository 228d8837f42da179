// Package fm implements the Flajolet–Martin probabilistic counter (PCSA:
// Probabilistic Counting with Stochastic Averaging, Flajolet & Martin
// 1985), the founding member of the "log-counting" family reviewed in
// Section 2.3 of the S-bitmap paper.
//
// Each item is hashed; the item updates one of m registers (stochastic
// averaging on the high hash bits), where a register is a small bitmap
// recording which geometric values g (position of the lowest 1 bit of the
// remaining hash bits) have been observed. The estimate is
//
//	n̂ = m · 2^(mean R) / φ,   φ ≈ 0.77351,
//
// where R is each register's count of leading contiguous 1s (the first
// unset position).
package fm

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/uhash"
)

// phi is the PCSA magic constant: the asymptotic factor E[2^R]/n per
// register stream (Flajolet & Martin 1985, Theorem 3.A).
const phi = 0.7735162909

// registerBits is the width of each FM register bitmap; 32 bits cover
// cardinalities beyond 2^32/m, ample for every experiment in the paper.
const registerBits = 32

// Sketch is an FM/PCSA sketch. Not safe for concurrent use.
type Sketch struct {
	reg []uint32
	h   uhash.Hasher
}

// New returns an FM sketch with m registers, hashing with the default
// Mixer seeded by seed. It panics if m < 1.
func New(m int, seed uint64) *Sketch {
	return NewWithHasher(m, uhash.NewMixer(seed))
}

// NewWithHasher returns an FM sketch with an explicit hash function.
func NewWithHasher(m int, h uhash.Hasher) *Sketch {
	if m < 1 {
		panic(fmt.Sprintf("fm: register count %d < 1", m))
	}
	return &Sketch{reg: make([]uint32, m), h: h}
}

// MemoryForBits returns the number of registers a budget of mbits bits
// buys: ⌊mbits / 32⌋ (at least 1), the accounting used when all algorithms
// share one memory budget.
func MemoryForBits(mbits int) int {
	m := mbits / registerBits
	if m < 1 {
		m = 1
	}
	return m
}

// Add offers an item to the sketch; it reports whether any register bit
// changed.
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
	j, _ := bits.Mul64(bucketWord, uint64(len(s.reg)))
	// g = index of lowest set bit of the geometric word: P(g = k) = 2^-(k+1).
	g := bits.TrailingZeros64(geoWord)
	if g >= registerBits {
		g = registerBits - 1
	}
	mask := uint32(1) << uint(g)
	if s.reg[j]&mask != 0 {
		return false
	}
	s.reg[j] |= mask
	return true
}

// AddBatch64 offers a slice of 64-bit items and returns how many changed
// a register bit; state-equivalent to AddUint64 on each item in order,
// with chunked hashing and the register array in a local.
func (s *Sketch) AddBatch64(items []uint64) int {
	return uhash.Batch64(s.h, nil, items, s.insertBatch)
}

// AddBatchString is AddBatch64 for string items.
func (s *Sketch) AddBatchString(items []string) int {
	return uhash.BatchString(s.h, nil, items, s.insertBatch)
}

// insertBatch replays insert over a chunk of hashed items; the register
// index is a multiply-shift onto [0, m), in range by construction.
func (s *Sketch) insertBatch(hi, lo []uint64) int {
	lo = lo[:len(hi)] // one bounds proof for the whole chunk
	reg := s.reg
	mm := uint64(len(reg))
	changed := 0
	for i, h := range hi {
		j, _ := bits.Mul64(h, mm)
		g := bits.TrailingZeros64(lo[i])
		if g >= registerBits {
			g = registerBits - 1
		}
		mask := uint32(1) << uint(g)
		if reg[j]&mask == 0 {
			reg[j] |= mask
			changed++
		}
	}
	return changed
}

// rank returns register j's R statistic: the position of its lowest 0 bit.
func (s *Sketch) rank(j int) int {
	return bits.TrailingZeros32(^s.reg[j])
}

// Estimate returns the PCSA estimate n̂ = m·2^(ΣR/m)/φ.
func (s *Sketch) Estimate() float64 {
	m := len(s.reg)
	sum := 0
	for j := range s.reg {
		sum += s.rank(j)
	}
	return float64(m) / phi * math.Pow(2, float64(sum)/float64(m))
}

// Merge ORs another FM sketch into s; the result summarizes the union of
// the two streams. The sketches must have equal register counts (and the
// same hash function for the union semantics to hold).
func (s *Sketch) Merge(o *Sketch) error {
	if len(s.reg) != len(o.reg) {
		return fmt.Errorf("fm: merge of %d-register sketch with %d-register sketch", len(s.reg), len(o.reg))
	}
	for j := range s.reg {
		s.reg[j] |= o.reg[j]
	}
	return nil
}

// SizeBits returns the summary memory footprint in bits (32 per register).
func (s *Sketch) SizeBits() int { return len(s.reg) * registerBits }

// Footprint returns the sketch's resident process memory in bytes: the
// struct and the register array at capacity.
func (s *Sketch) Footprint() int {
	return int(unsafe.Sizeof(*s)) + 4*cap(s.reg)
}

// MarshalBinary serializes the register bitmaps. The hash function is not
// serialized; pass the original hasher to Unmarshal to continue counting.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 4+4*len(s.reg))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.reg)))
	for _, r := range s.reg {
		buf = binary.LittleEndian.AppendUint32(buf, r)
	}
	return buf, nil
}

// UnmarshalBinary reconstructs the sketch in place from MarshalBinary
// output. A nil hasher field is replaced by the default Mixer with seed 1.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("fm: truncated serialization")
	}
	m := int(binary.LittleEndian.Uint32(data))
	if m < 1 || m > 1<<28 {
		return fmt.Errorf("fm: implausible register count %d", m)
	}
	if len(data) != 4+4*m {
		return fmt.Errorf("fm: register body %d bytes, want %d", len(data)-4, 4*m)
	}
	reg := make([]uint32, m)
	for j := range reg {
		reg[j] = binary.LittleEndian.Uint32(data[4+4*j:])
	}
	s.reg = reg
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
