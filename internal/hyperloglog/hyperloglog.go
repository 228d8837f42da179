// Package hyperloglog implements HyperLogLog (Flajolet, Fusy, Gandouet &
// Meunier 2007), the strongest baseline in the S-bitmap paper's
// evaluation.
//
// Like LogLog it keeps m = 2^k max-rank registers, but estimates through
// the harmonic mean,
//
//	n̂ = α_m · m² / Σ_j 2^(−M_j),
//
// which trims the influence of outlier registers and improves the
// asymptotic relative error to ≈ 1.04/√m. The small-range correction falls
// back to linear counting over empty registers when n̂ ≤ 2.5m, exactly as
// in the original paper (we omit the 32-bit hash-collision correction
// because ranks here derive from 64-bit hashes, which do not saturate at
// the paper's cardinality scales).
//
// The memory model used in the S-bitmap paper's Section 6.2 comparison —
// m_HLL = 1.042·ε⁻² registers of α bits, α = k+1 for 2^(2^k) ≤ N <
// 2^(2^(k+1)) — is exposed as MemoryBitsFor so the Table 2 / Figure 3
// reproductions can quote the same numbers.
package hyperloglog

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/uhash"
)

// RegisterBits is the register width used for memory accounting when
// N < 2^32, matching the paper's α = 5. (Registers are stored in bytes at
// runtime; accounting follows the information-theoretic width, as the
// paper's does.)
const RegisterBits = 5

const maxRank = 1<<RegisterBits - 1

// Sketch is a HyperLogLog counter. A Sketch value is only the per-sketch
// record: the register array, a byte view over a run of words. Everything
// that is the same for every sketch under one register count and hash
// lives in a Shared, which a keyed store holds once for all its sketches;
// the store keeps the runs in flat slots and binds a handle to one per
// access (Shared.View). Not safe for concurrent use.
type Sketch struct {
	sh  *Shared
	reg []uint8
}

// Shared is the state every sketch under one register count and hasher
// shares: the register-count exponent, α_m and the Hasher. New gives each
// sketch its own. A Shared is read-only after NewShared, so sketches under
// one Shared may be fed on different goroutines, through their batch
// paths too: a batch hashes through buffers borrowed for the call
// (uhash.Batch64), not through the Shared.
type Shared struct {
	kBits uint
	alpha float64
	h     uhash.Hasher
	own   bool // held by one New sketch, whose Footprint counts it
}

// NewShared returns the state shared by sketches equivalent to
// NewWithHasher(kBits, h); Init materializes them. It panics if kBits is
// outside [4, 24] (the α_m constants below follow the original paper and
// start at m = 16).
func NewShared(kBits uint, h uhash.Hasher) *Shared {
	if kBits < 4 || kBits > 24 {
		panic(fmt.Sprintf("hyperloglog: kBits = %d outside [4, 24]", kBits))
	}
	return &Shared{kBits: kBits, alpha: alpha(1 << kBits), h: h}
}

// RunWords returns the length of each sketch's run under sh: m one-byte
// registers, m/8 words (m ≥ 16, so a whole number of them).
func (sh *Shared) RunWords() int { return (1 << sh.kBits) / 8 }

// Init makes *s an empty sketch under sh over the first RunWords() words
// of run. It allocates nothing: a keyed store materializes a sketch in
// place, in one of its slots.
func (sh *Shared) Init(s *Sketch, run []uint64) {
	sh.View(s, run)
	clear(s.reg)
}

// View makes *s a handle on the sketch whose registers are the first
// RunWords() words of run, as Init, UnmarshalInto or an earlier handle
// left them. Every read and write goes to run, so any number of views over
// one run, one at a time, act as one sketch. The registers are the run's
// bytes in memory order, so MarshalBinary writes them as they lie.
func (sh *Shared) View(s *Sketch, run []uint64) {
	run = run[:sh.RunWords()]
	m := 1 << sh.kBits
	*s = Sketch{sh: sh, reg: unsafe.Slice((*uint8)(unsafe.Pointer(&run[0])), m)}
}

// Footprint returns the shared state's resident memory in bytes.
func (sh *Shared) Footprint() int { return int(unsafe.Sizeof(*sh)) }

// New returns a HyperLogLog sketch with m = 2^kBits registers, hashing
// with the default Mixer seeded by seed. It panics if kBits is outside
// [4, 24].
func New(kBits uint, seed uint64) *Sketch {
	return NewWithHasher(kBits, uhash.NewMixer(seed))
}

// NewWithHasher returns a HyperLogLog sketch with an explicit hasher and
// shared state of its own.
func NewWithHasher(kBits uint, h uhash.Hasher) *Sketch {
	sh := NewShared(kBits, h)
	sh.own = true
	s := new(Sketch)
	sh.Init(s, make([]uint64, sh.RunWords()))
	return s
}

// KBitsForBudget returns the largest register-count exponent k such that
// 2^k 5-bit registers fit in mbits bits.
func KBitsForBudget(mbits int) uint {
	k := uint(4)
	for (1<<(k+1))*RegisterBits <= mbits && k+1 <= 24 {
		k++
	}
	return k
}

// alpha returns the HyperLogLog bias-correction constant from the original
// paper: tabulated for small m, 0.7213/(1+1.079/m) for m ≥ 128.
func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// MemoryBitsFor returns the memory (in bits) that the S-bitmap paper's
// Section 6.2 accounting assigns HyperLogLog for target RRMSE eps and
// cardinality bound n: (1.04/ε)² registers — RRMSE = 1.04/√m solved for
// m — of width α, where α = 4 for 2^8 ≤ N < 2^16, α = 5 for
// 2^16 ≤ N < 2^32, and so on. (The paper's prose writes the register count
// as "1.042·ε⁻²", but its Table 2 entries — e.g. 432.6 hundred bits at
// N = 10³, ε = 1% — are exactly 1.04²·ε⁻²·α; we follow the table.)
func MemoryBitsFor(n float64, eps float64) (int, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("hyperloglog: eps %g outside (0, 1)", eps)
	}
	if n < 2 {
		n = 2
	}
	registers := 1.04 * 1.04 / (eps * eps)
	width := registerWidthFor(n)
	return int(math.Ceil(registers * float64(width))), nil
}

// registerWidthFor returns α = k+1 with 2^(2^k) ≤ n < 2^(2^(k+1)),
// clamped below at 3 bits (n < 2^8).
func registerWidthFor(n float64) int {
	log2log2 := math.Log2(math.Log2(n))
	k := int(math.Floor(log2log2))
	if k < 2 {
		k = 2
	}
	return k + 1
}

// Add offers an item to the sketch; it reports whether a register grew.
func (s *Sketch) Add(item []byte) bool {
	hi, lo := s.sh.h.Sum128(item)
	return s.insert(hi, lo)
}

// AddUint64 offers a 64-bit item.
func (s *Sketch) AddUint64(item uint64) bool {
	hi, lo := s.sh.h.Sum128Uint64(item)
	return s.insert(hi, lo)
}

// AddString offers a string item; it hashes identically to Add of the
// string's bytes but avoids the []byte conversion.
func (s *Sketch) AddString(item string) bool {
	hi, lo := s.sh.h.Sum128String(item)
	return s.insert(hi, lo)
}

func (s *Sketch) insert(bucketWord, geoWord uint64) bool {
	j := bucketWord >> (64 - s.sh.kBits)
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
	return uhash.Batch64(s.sh.h, nil, items, s.insertBatch)
}

// AddBatchString is AddBatch64 for string items.
func (s *Sketch) AddBatchString(items []string) int {
	return uhash.BatchString(s.sh.h, nil, items, s.insertBatch)
}

// insertBatch replays insert over a chunk of hashed items; the bucket
// index is a kBits-bit prefix, in range of the register array by
// construction.
func (s *Sketch) insertBatch(hi, lo []uint64) int {
	lo = lo[:len(hi)] // one bounds proof for the whole chunk
	reg := s.reg
	shift := 64 - s.sh.kBits
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

// Estimate returns the bias-corrected HyperLogLog estimate with the
// original paper's small-range (linear counting) correction.
func (s *Sketch) Estimate() float64 {
	m := float64(len(s.reg))
	var invSum float64
	zeros := 0
	for _, r := range s.reg {
		invSum += math.Exp2(-float64(r))
		if r == 0 {
			zeros++
		}
	}
	e := s.sh.alpha * m * m / invSum
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// StdErrTheory returns the asymptotic relative standard error 1.04/√m.
func (s *Sketch) StdErrTheory() float64 { return 1.04 / math.Sqrt(float64(len(s.reg))) }

// Merge takes the register-wise maximum with another sketch; the result
// summarizes the union of the two streams. Register counts must match.
func (s *Sketch) Merge(o *Sketch) error {
	if len(s.reg) != len(o.reg) {
		return fmt.Errorf("hyperloglog: merge of m=%d with m=%d", len(s.reg), len(o.reg))
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
// record and its register array at capacity, plus — for a New sketch,
// which owns its Shared — the shared state. A sketch under a keyed
// store's Shared counts only its record and registers; the store counts
// the Shared once for all of them.
func (s *Sketch) Footprint() int {
	n := int(unsafe.Sizeof(*s)) + cap(s.reg)
	if s.sh.own {
		n += s.sh.Footprint()
	}
	return n
}

// MarshalBinary serializes the register array (one byte per register,
// preceded by the register-count exponent). The hash function is not
// serialized; pass the original hasher to Unmarshal to continue counting.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 1+len(s.reg))
	buf = append(buf, byte(s.sh.kBits))
	buf = append(buf, s.reg...)
	return buf, nil
}

// parse validates MarshalBinary output and returns its register-count
// exponent; the registers are data[1:].
func parse(data []byte) (uint, error) {
	if len(data) < 1 {
		return 0, fmt.Errorf("hyperloglog: truncated serialization")
	}
	kBits := uint(data[0])
	if kBits < 4 || kBits > 24 {
		return 0, fmt.Errorf("hyperloglog: serialized kBits = %d outside [4, 24]", kBits)
	}
	if m := 1 << kBits; len(data) != 1+m {
		return 0, fmt.Errorf("hyperloglog: register body %d bytes, want %d", len(data)-1, m)
	}
	for _, r := range data[1:] {
		if r > maxRank {
			return 0, fmt.Errorf("hyperloglog: serialized rank %d exceeds register width", r)
		}
	}
	return kBits, nil
}

// UnmarshalInto restores MarshalBinary output into *s as Init(s, run)
// followed by the recorded registers, building no hasher. Data that does
// not parse, or was serialized with another register count than sh's, is
// an error that touches neither s nor run.
func (sh *Shared) UnmarshalInto(s *Sketch, run []uint64, data []byte) error {
	kBits, err := parse(data)
	if err != nil {
		return err
	}
	if kBits != sh.kBits {
		return fmt.Errorf("hyperloglog: sketch serialized with m=%d registers, not m=%d", 1<<kBits, 1<<sh.kBits)
	}
	sh.View(s, run)
	copy(s.reg, data[1:])
	return nil
}

// UnmarshalBinary reconstructs the sketch in place from MarshalBinary
// output, under shared state of its own that keeps the sketch's hasher
// (the default Mixer with seed 1 for a zero Sketch).
func (s *Sketch) UnmarshalBinary(data []byte) error {
	var h uhash.Hasher
	if s.sh != nil {
		h = s.sh.h
	}
	r, err := Unmarshal(data, h)
	if err != nil {
		return err
	}
	*s = *r
	return nil
}

// Unmarshal reconstructs a sketch from MarshalBinary output, under shared
// state of its own hashing with h (nil selects the default Mixer with
// seed 1).
func Unmarshal(data []byte, h uhash.Hasher) (*Sketch, error) {
	kBits, err := parse(data)
	if err != nil {
		return nil, err
	}
	if h == nil {
		h = uhash.NewMixer(1)
	}
	s := NewWithHasher(kBits, h)
	copy(s.reg, data[1:])
	return s, nil
}

// Reset clears the sketch for reuse.
func (s *Sketch) Reset() { clear(s.reg) }
