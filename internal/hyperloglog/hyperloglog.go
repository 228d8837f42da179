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
//
// A sketch's registers are RegisterBits wide in memory as in that
// accounting: packed into a run of words, register j at bits
// [5j, 5j+5) of the run, so 64 registers take 5 words and a sketch holds
// SizeBits/8 bytes rounded up to a word. A snapshot still writes one byte
// per register.
//
// LogLog (package loglog) keeps the same registers and differs only in
// its Estimator, so its sketches are this package's under LogLog's
// estimator.
package hyperloglog

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/uhash"
)

// RegisterBits is the register width, in memory and in the accounting,
// for N < 2^32: the paper's α = 5.
const RegisterBits = 5

const maxRank = 1<<RegisterBits - 1

// lanes is the number of registers one word holds whole: twelve, in its
// low 60 bits. Merge, Estimate and the codec move registers lanes at a
// time.
const lanes = 64 / RegisterBits

// Sketch is a HyperLogLog counter. A Sketch value is only the per-sketch
// record: a handle on its run of words, which holds the packed registers.
// Everything that is the same for every sketch under one register count
// and hash lives in a Shared, which a keyed store holds once for all its
// sketches; the store keeps the runs in flat slots and binds a handle to
// one per access (Shared.View). Not safe for concurrent use.
type Sketch struct {
	sh  *Shared
	run []uint64
}

// Shared is the state every sketch under one estimator, register count
// and hasher shares: the Estimator, the register-count exponent, α_m and
// the Hasher. New gives each sketch its own. A Shared is read-only after
// NewShared, so sketches under one Shared may be fed on different
// goroutines, through their batch paths too: a batch hashes through
// buffers borrowed for the call (uhash.Batch64), not through the Shared.
type Shared struct {
	est   *Estimator
	kBits uint
	alpha float64
	h     uhash.Hasher
	own   bool // held by one New sketch, whose Footprint counts it
}

// An Estimator turns a sketch's registers into its estimate. HyperLogLog
// and LogLog keep the same registers and differ only here: in the mean
// they take, α_m, the error constant and the smallest register count.
// It also names the sketches in their panic and error texts.
type Estimator struct {
	Name      string              // the sketch's name in panic and error texts
	MinKBits  uint                // the smallest register-count exponent; the largest is 24
	Alpha     func(m int) float64 // the bias correction α_m
	Geometric bool                // n̂ = α_m·m·2^(ΣM_j/m), LogLog's, in place of the harmonic mean
	StdErr    float64             // c of the asymptotic relative standard error c/√m
}

// harmonic is HyperLogLog's estimator. The α_m constants follow the
// original paper and start at m = 16.
var harmonic = &Estimator{Name: "hyperloglog", MinKBits: 4, Alpha: alpha, StdErr: 1.04}

// NewShared returns the state shared by sketches equivalent to
// NewWithHasher(kBits, h); Init materializes them. It panics if kBits is
// outside [4, 24].
func NewShared(kBits uint, h uhash.Hasher) *Shared { return harmonic.NewShared(kBits, h) }

// NewShared returns the state shared by sketches of e equivalent to
// e.NewWithHasher(kBits, h). It panics if kBits is outside
// [e.MinKBits, 24].
func (e *Estimator) NewShared(kBits uint, h uhash.Hasher) *Shared {
	if kBits < e.MinKBits || kBits > 24 {
		panic(fmt.Sprintf("%s: kBits = %d outside [%d, 24]", e.Name, kBits, e.MinKBits))
	}
	return &Shared{est: e, kBits: kBits, alpha: e.Alpha(1 << kBits), h: h}
}

// RunWords returns the length of each sketch's run under sh: m registers
// of RegisterBits bits, packed, in ⌈5m/64⌉ words — 5 words per 64
// registers.
func (sh *Shared) RunWords() int { return (sh.SizeBits() + 63) / 64 }

// SizeBits returns each sketch's summary bits under sh: RegisterBits per
// register.
func (sh *Shared) SizeBits() int { return RegisterBits << sh.kBits }

// shift returns the shift that takes a bucket word to its register index,
// its top kBits bits. It is masked to [0, 63], which 64 − kBits already
// is, so the compiler drops the code a shift of 64 or more would need.
func (sh *Shared) shift() uint { return (64 - sh.kBits) & 63 }

// Init makes *s an empty sketch under sh over the first RunWords() words
// of run. It allocates nothing: a keyed store materializes a sketch in
// place, in one of its slots.
func (sh *Shared) Init(s *Sketch, run []uint64) {
	sh.View(s, run)
	clear(s.run)
}

// View makes *s a handle on the sketch whose registers are the first
// RunWords() words of run, as Init, UnmarshalInto or an earlier handle
// left them. Every read and write goes to run, so any number of views over
// one run, one at a time, act as one sketch. Register j is bits
// [5j, 5j+5) of the run, low bits first: word 5j/64 from bit 5j%64, and a
// register that starts in a word's top four bits ends in the next word's
// low bits. The handle keeps run's capacity, which Footprint counts.
func (sh *Shared) View(s *Sketch, run []uint64) {
	*s = Sketch{sh: sh, run: run[:sh.RunWords()]}
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
func NewWithHasher(kBits uint, h uhash.Hasher) *Sketch { return harmonic.NewWithHasher(kBits, h) }

// NewWithHasher returns a sketch of e with m = 2^kBits registers, an
// explicit hasher and shared state of its own.
func (e *Estimator) NewWithHasher(kBits uint, h uhash.Hasher) *Sketch {
	sh := e.NewShared(kBits, h)
	sh.own = true
	s := new(Sketch)
	// Grown through append, so the capacity is the allocation's size class
	// and Footprint counts exactly what the heap holds.
	sh.Init(s, slices.Grow([]uint64(nil), sh.RunWords())[:sh.RunWords()])
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

// word returns the 64 bits of run from bit 5j on: register j in the low
// bits, then the registers after it. A window that would reach past the
// run's last word repeats that word's low bits instead (a shift by 64 is
// 0 in Go); only the registers the run holds are meaningful.
func word(run []uint64, j uint64) uint64 {
	b := RegisterBits * j
	w, o := b/64, b%64
	return run[w]>>o | run[min(w+1, uint64(len(run)-1))]<<(64-o)
}

// flip toggles the bits of d in run from bit 5j on: the inverse of word.
// d must not reach past the run's last register, so a flip whose second
// word would be past the run's end toggles nothing there.
func flip(run []uint64, j, d uint64) {
	b := RegisterBits * j
	w, o := b/64, b%64
	run[w] ^= d << o
	run[min(w+1, uint64(len(run)-1))] ^= d >> (64 - o)
}

// rank returns the register value an item's geometric word offers: its
// leading zeros plus one, clamped at the register width.
func rank(geoWord uint64) uint64 {
	return min(uint64(bits.LeadingZeros64(geoWord))+1, maxRank)
}

// raise sets register j of run to r if r is larger, and reports whether
// it did. Only a register that starts in a word's top four bits reads and
// writes the next word too: 4 of every 64, so the branch on it costs less
// than word's and flip's second access, which every register pays.
func raise(run []uint64, j, r uint64) bool {
	w, o := RegisterBits*j/64, RegisterBits*j%64
	cur := run[w] >> o
	if o > 64-RegisterBits {
		cur |= run[w+1] << (64 - o)
	}
	if cur &= maxRank; r <= cur {
		return false
	}
	run[w] ^= (r ^ cur) << o
	if o > 64-RegisterBits {
		run[w+1] ^= (r ^ cur) >> (64 - o)
	}
	return true
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
	return raise(s.run, bucketWord>>s.sh.shift(), rank(geoWord))
}

// AddBatch64 offers a slice of 64-bit items and returns how many grew a
// register; state-equivalent to AddUint64 on each item in order, with
// chunked hashing.
func (s *Sketch) AddBatch64(items []uint64) int {
	return uhash.Batch64(s.sh.h, nil, items, s.insertBatch)
}

// AddBatchString is AddBatch64 for string items.
func (s *Sketch) AddBatchString(items []string) int {
	return uhash.BatchString(s.sh.h, nil, items, s.insertBatch)
}

// insertBatch replays insert over a chunk of hashed items; the register
// index is a kBits-bit prefix, in range of the run by construction.
func (s *Sketch) insertBatch(hi, lo []uint64) int {
	lo = lo[:len(hi)] // one bounds proof for the whole chunk
	run, shift := s.run, s.sh.shift()
	changed := 0
	for i, h := range hi {
		if raise(run, h>>shift, rank(lo[i])) {
			changed++
		}
	}
	return changed
}

// M returns the number of registers.
func (s *Sketch) M() int { return 1 << s.sh.kBits }

// pow2neg[r] is 2^−r, the harmonic mean's term for a register holding r.
var pow2neg = func() (t [maxRank + 1]float64) {
	for r := range t {
		t[r] = math.Ldexp(1, -r)
	}
	return t
}()

// Estimate returns the sketch's estimate: for HyperLogLog the
// bias-corrected harmonic mean with the original paper's small-range
// (linear counting) correction, for LogLog the geometric mean.
func (s *Sketch) Estimate() float64 {
	if s.sh.est.Geometric {
		return s.geometricMean()
	}
	n := s.M()
	var invSum float64
	zeros := 0
	for j := 0; j < n; j += lanes {
		v := word(s.run, uint64(j))
		for range min(lanes, n-j) {
			r := v & maxRank
			invSum += pow2neg[r]
			if r == 0 {
				zeros++
			}
			v >>= RegisterBits
		}
	}
	m := float64(n)
	e := s.sh.alpha * m * m / invSum
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// geometricMean returns LogLog's n̂ = α_m · m · 2^(ΣM_j / m). It sums a
// word's twelve registers at once: odd lanes added onto even ones give
// six 10-bit fields of at most 62, and the multiply by evenLow sums them
// into bits 50 to 59.
func (s *Sketch) geometricMean() float64 {
	n, sum := s.M(), uint64(0)
	for j := 0; j < n; j += lanes {
		v := word(s.run, uint64(j)) & (1<<(RegisterBits*min(lanes, n-j)) - 1)
		pairs := v&evenLanes + v>>RegisterBits&evenLanes
		sum += pairs * evenLow >> 50 & 0x3ff
	}
	m := float64(n)
	return s.sh.alpha * m * math.Pow(2, float64(sum)/m)
}

// StdErrTheory returns the asymptotic relative standard error:
// HyperLogLog's 1.04/√m, or LogLog's 1.30/√m.
func (s *Sketch) StdErrTheory() float64 { return s.sh.est.StdErr / math.Sqrt(float64(s.M())) }

// Lane masks of maxLanes and geometricMean: evenLow is the low bit of
// registers 0, 2, …, 10 of a word's twelve, evenLanes all their bits, and
// guard the bit just above each of them.
const (
	evenLow   = 0x0004010040100401
	evenLanes = maxRank * evenLow
	guard     = evenLow << RegisterBits
)

// maxEvenLanes returns the register-wise maximum of the even lanes of a
// and b, the odd lanes zero. Each even lane has the odd lane above it as
// room: 32 + a_i − b_i lies in [1, 63], so no lane borrows from the next,
// and its bit 5 says a_i ≥ b_i.
func maxEvenLanes(a, b uint64) uint64 {
	a, b = a&evenLanes, b&evenLanes
	ge := ((a | guard) - b) & guard
	pick := ge - ge>>RegisterBits // all five bits of every lane where a_i ≥ b_i
	return a&pick | b&^pick
}

// maxLanes returns the register-wise maximum of the twelve registers in
// the low 60 bits of a and b.
func maxLanes(a, b uint64) uint64 {
	return maxEvenLanes(a, b) | maxEvenLanes(a>>RegisterBits, b>>RegisterBits)<<RegisterBits
}

// Merge takes the register-wise maximum with another sketch; the result
// summarizes the union of the two streams. Register counts must match.
// It moves twelve registers at a time.
func (s *Sketch) Merge(o *Sketch) error {
	if s.sh.kBits != o.sh.kBits {
		return fmt.Errorf("%s: merge of m=%d with m=%d", s.sh.est.Name, s.M(), o.M())
	}
	m := s.M()
	for j := 0; j < m; j += lanes {
		a := word(s.run, uint64(j))
		mask := uint64(1)<<(RegisterBits*min(lanes, m-j)) - 1 // the run may end first
		if d := (maxLanes(a, word(o.run, uint64(j))) ^ a) & mask; d != 0 {
			flip(s.run, uint64(j), d)
		}
	}
	return nil
}

// SizeBits returns the summary memory footprint in bits (5 per register).
func (s *Sketch) SizeBits() int { return s.sh.SizeBits() }

// Footprint returns the sketch's resident process memory in bytes: the
// record and its run at capacity, plus — for a New sketch, which owns its
// Shared — the shared state. A sketch under a keyed store's Shared counts
// only its record and run; the store counts the Shared once for all of
// them.
func (s *Sketch) Footprint() int {
	n := int(unsafe.Sizeof(*s)) + 8*cap(s.run)
	if s.sh.own {
		n += s.sh.Footprint()
	}
	return n
}

// MarshalBinary serializes the register array (one byte per register,
// preceded by the register-count exponent). The hash function is not
// serialized; pass the original hasher to Unmarshal to continue counting.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	m := s.M()
	buf := make([]byte, 1+m)
	buf[0] = byte(s.sh.kBits)
	reg := buf[1:]
	for j := 0; j < m; j += lanes {
		v := word(s.run, uint64(j))
		out := reg[j:min(j+lanes, m)]
		for i := range out {
			out[i] = byte(v & maxRank)
			v >>= RegisterBits
		}
	}
	return buf, nil
}

// parse validates MarshalBinary output of a sketch of e and returns its
// register-count exponent; the registers are data[1:].
func (e *Estimator) parse(data []byte) (uint, error) {
	if len(data) < 1 {
		return 0, fmt.Errorf("%s: truncated serialization", e.Name)
	}
	kBits := uint(data[0])
	if kBits < e.MinKBits || kBits > 24 {
		return 0, fmt.Errorf("%s: serialized kBits = %d outside [%d, 24]", e.Name, kBits, e.MinKBits)
	}
	if m := 1 << kBits; len(data) != 1+m {
		return 0, fmt.Errorf("%s: register body %d bytes, want %d", e.Name, len(data)-1, m)
	}
	for _, r := range data[1:] {
		if r > maxRank {
			return 0, fmt.Errorf("%s: serialized rank %d exceeds register width", e.Name, r)
		}
	}
	return kBits, nil
}

// load packs parsed registers, one byte each, into s's run.
func (s *Sketch) load(reg []byte) {
	clear(s.run)
	for j := 0; j < len(reg); j += lanes {
		var v uint64
		for i, r := range reg[j:min(j+lanes, len(reg))] {
			v |= uint64(r) << (RegisterBits * i)
		}
		flip(s.run, uint64(j), v)
	}
}

// UnmarshalInto restores MarshalBinary output into *s as Init(s, run)
// followed by the recorded registers, building no hasher. Data that does
// not parse, or was serialized with another register count than sh's, is
// an error that touches neither s nor run.
func (sh *Shared) UnmarshalInto(s *Sketch, run []uint64, data []byte) error {
	kBits, err := sh.est.parse(data)
	if err != nil {
		return err
	}
	if kBits != sh.kBits {
		return fmt.Errorf("%s: sketch serialized with m=%d registers, not m=%d", sh.est.Name, 1<<kBits, 1<<sh.kBits)
	}
	sh.View(s, run)
	s.load(data[1:])
	return nil
}

// Hasher returns the sketch's hasher, or nil for a zero Sketch: what a
// decoder passes Unmarshal to restore a sketch in place under the hash it
// counted with.
func (s *Sketch) Hasher() uhash.Hasher {
	if s.sh == nil {
		return nil
	}
	return s.sh.h
}

// Unmarshal reconstructs a HyperLogLog sketch from MarshalBinary output,
// under shared state of its own hashing with h (nil selects the default
// Mixer with seed 1).
func Unmarshal(data []byte, h uhash.Hasher) (*Sketch, error) { return harmonic.Unmarshal(data, h) }

// Unmarshal is the package's Unmarshal for a sketch of e.
func (e *Estimator) Unmarshal(data []byte, h uhash.Hasher) (*Sketch, error) {
	kBits, err := e.parse(data)
	if err != nil {
		return nil, err
	}
	if h == nil {
		h = uhash.NewMixer(1)
	}
	s := e.NewWithHasher(kBits, h)
	s.load(data[1:])
	return s, nil
}

// Reset clears the sketch for reuse.
func (s *Sketch) Reset() { clear(s.run) }
