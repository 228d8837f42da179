package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/uhash"
)

// Sketch is an S-bitmap: a bitmap of m bits filled by the adaptive sampling
// process of Algorithm 2. One 128-bit hash is computed per item; the high
// word selects the bucket (the paper's first c bits) and the low word is the
// sampling fraction u (the paper's last d bits). An item that maps to an
// occupied bucket is skipped outright, so processing duplicates costs one
// hash and one bit probe.
//
// A sketch's whole state is one run of words (see runL): the fill level,
// the threshold register and the bitmap. A Sketch value is a handle on a
// run under a Shared, which holds everything that is the same for every
// sketch under one configuration and hash; a keyed store keeps millions of
// runs in flat slots and binds a handle to one per access (Shared.View).
//
// Sketch is not safe for concurrent use; wrap it in a mutex or shard by
// stream if needed (the experiments shard).
type Sketch struct {
	sh  *Shared
	run []uint64
}

// The layout of a sketch's run of words.
//
// run[runL] is the number of ones, the paper's L.
//
// run[runCur] is the 64-bit scaled acceptance threshold for the CURRENT
// fill level: an item is sampled at level L iff u < cur, where u is the
// 64-bit sampling word. With dBits < 64, the threshold is quantized to the
// top dBits bits, reproducing the paper's finite-resolution "u·2^−d < p"
// test (d = 30 in the paper's implementation sketch). Because L only ever
// moves forward one step at a time, this single register replaces the
// per-level threshold table: cur is advanced via the closed-form schedule
// on each 0→1 transition — at most m recomputations (one exp each) over
// the sketch's whole lifetime, so the auxiliary state stays O(1) and the
// hot path compares against a register instead of loading from an O(m)
// table.
//
// run[runBitmap:] is the m-bit bitmap, 64 buckets per word.
const (
	runL = iota
	runCur
	runBitmap
)

// Shared is the state every sketch under one configuration and hash
// shares: the Config, the Hasher and the sampling resolution. Hashers are
// read-only after construction (asserted by the uhash tests); sharing one
// also shares its seed state (32 KiB of tables for tabulation hashing).
// NewSketch gives each sketch its own. A Shared is read-only after
// NewShared, so sketches under one Shared may be fed on different
// goroutines, through their batch paths too: a batch hashes through
// buffers borrowed for the call (uhash.Batch64), not through the Shared.
type Shared struct {
	cfg   *Config
	h     uhash.Hasher
	dBits uint
	own   bool // held by one NewSketch sketch, whose Footprint counts it
}

// Option configures optional Sketch behavior.
type Option func(*sketchOptions)

type sketchOptions struct {
	hasher uhash.Hasher
	dBits  uint
}

// WithHasher selects the hash family (default: uhash.NewMixer(seed) chosen
// by the constructor's seed argument).
func WithHasher(h uhash.Hasher) Option {
	return func(o *sketchOptions) { o.hasher = h }
}

// WithResolution limits the sampling fraction to d bits, 1 ≤ d ≤ 64,
// matching the paper's Algorithm 2 where u is a d-bit integer. The default
// (64) is effectively continuous; d = 30 reproduces the paper's suggested
// implementation. Used by the ablation_d experiment.
func WithResolution(d uint) Option {
	return func(o *sketchOptions) { o.dBits = d }
}

// NewShared returns the state shared by sketches equivalent to
// NewSketch(cfg, seed, opts...); Init materializes them.
func NewShared(cfg *Config, seed uint64, opts ...Option) *Shared {
	o := sketchOptions{dBits: 64}
	for _, opt := range opts {
		opt(&o)
	}
	if o.hasher == nil {
		o.hasher = uhash.NewMixer(seed)
	}
	if o.dBits < 1 || o.dBits > 64 {
		panic(fmt.Sprintf("core: sampling resolution d = %d outside [1, 64]", o.dBits))
	}
	return &Shared{cfg: cfg, h: o.hasher, dBits: o.dBits}
}

// Words returns the number of bitmap words each sketch under sh holds.
func (sh *Shared) Words() int { return (sh.cfg.m + 63) / 64 }

// Config returns the configuration every sketch under sh shares.
func (sh *Shared) Config() *Config { return sh.cfg }

// RunWords returns the length of each sketch's run under sh: the fill
// level, the threshold register and the bitmap words.
func (sh *Shared) RunWords() int { return runBitmap + sh.Words() }

// Init makes *s an empty sketch under sh over the first RunWords() words
// of run, whose bitmap words must be zero. It allocates nothing: a keyed
// store materializes a sketch in place, in one of its slots.
func (sh *Shared) Init(s *Sketch, run []uint64) {
	sh.View(s, run)
	s.run[runL] = 0
	s.run[runCur] = s.thresholdAt(0)
}

// View makes *s a handle on the sketch whose state is the first
// RunWords() words of run, as Init, UnmarshalInto or an earlier handle
// left them. Every read and write goes to run — there is no copy to write
// back — so any number of views over one run, one at a time, act as one
// sketch. The capacity is clipped so a sketch never writes (or accounts,
// via Footprint) beyond its run.
func (sh *Shared) View(s *Sketch, run []uint64) {
	n := sh.RunWords()
	*s = Sketch{sh: sh, run: run[:n:n]}
}

// Footprint returns the shared state's resident memory in bytes: the
// struct and the Config (including any schedule tables).
func (sh *Shared) Footprint() int { return int(unsafe.Sizeof(*sh)) + sh.cfg.AuxBytes() }

// NewSketch returns an empty S-bitmap under cfg with shared state of its
// own. The seed determines the hash function; replicated experiments use
// distinct seeds.
func NewSketch(cfg *Config, seed uint64, opts ...Option) *Sketch {
	sh := NewShared(cfg, seed, opts...)
	sh.own = true
	s := new(Sketch)
	sh.Init(s, make([]uint64, sh.RunWords()))
	return s
}

// thresholdAt returns the acceptance threshold in force at fill level l
// (i.e. for rate p_{l+1}), evaluating the schedule on demand. A full
// bitmap accepts nothing.
func (s *Sketch) thresholdAt(l int) uint64 {
	sh := s.sh
	if l >= sh.cfg.m {
		return 0
	}
	return rateThreshold(sh.cfg.sched.rate(l+1), sh.dBits)
}

// rateThreshold converts a sampling rate p ∈ (0, 1] to the 64-bit threshold
// implementing "u·2^−d < p" on the top d bits of the sampling word: the
// number of accepted d-bit values is ⌈p·2^d⌉ (strict inequality), shifted
// back to the 64-bit domain. The scaling uses Ldexp — a pure exponent
// shift, exact for every d ∈ [1, 64] — rather than a float power-of-two
// multiply, so the d-bit truncation never inherits rounding from the
// scaling step itself.
func rateThreshold(p float64, d uint) uint64 {
	if p >= 1 {
		return math.MaxUint64
	}
	if p <= 0 {
		return 0
	}
	scaled := math.Ceil(math.Ldexp(p, int(d)))
	if scaled >= math.Ldexp(1, int(d)) {
		return math.MaxUint64
	}
	t := uint64(scaled)
	if d < 64 {
		return t << (64 - d)
	}
	return t
}

// Config returns the sketch's immutable configuration.
func (s *Sketch) Config() *Config { return s.sh.cfg }

// Add offers an item to the sketch and reports whether the sketch state
// changed (a bucket transitioned 0→1).
func (s *Sketch) Add(item []byte) bool {
	hi, lo := s.sh.h.Sum128(item)
	return s.insert(hi, lo)
}

// AddUint64 offers a 64-bit item; it is equivalent to Add of the item's
// 8-byte little-endian encoding but allocation-free.
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

// AddBatch64 offers a slice of 64-bit items and returns how many changed
// the sketch state. It is state-equivalent to calling AddUint64 on each
// item in order, but hashes in chunks (one dispatch per uhash.BatchSize
// items instead of one per item) and runs the insert loop with the fill
// level and threshold in locals.
func (s *Sketch) AddBatch64(items []uint64) int {
	return uhash.Batch64(s.sh.h, nil, items, s.insertBatch)
}

// AddBatchString is AddBatch64 for string items; each hashes identically
// to AddString of the same item.
func (s *Sketch) AddBatchString(items []string) int {
	return uhash.BatchString(s.sh.h, nil, items, s.insertBatch)
}

// insertBatch replays insert over a chunk of hashed items. Bucket indexes
// come from a multiply-shift onto [0, m), inside the sketch's words by
// construction. The acceptance threshold lives in a local for the whole
// chunk, recomputed only on 0→1 transitions (amortized to noise: at most m
// recomputations ever).
func (s *Sketch) insertBatch(hi, lo []uint64) int {
	lo = lo[:len(hi)] // one bounds proof for the whole chunk
	mm := uint64(s.sh.cfg.m)
	run := s.run
	words := run[runBitmap:]
	cur := run[runCur]
	l := int(run[runL])
	changed := 0
	for i, h := range hi {
		j, _ := bits.Mul64(h, mm)
		w, bit := &words[j>>6], uint64(1)<<(j&63)
		if *w&bit != 0 {
			continue
		}
		if lo[i] >= cur {
			continue
		}
		*w |= bit
		l++
		changed++
		cur = s.thresholdAt(l)
	}
	run[runL] = uint64(l)
	run[runCur] = cur
	return changed
}

// insert implements lines 3–9 of Algorithm 2 given the two hash words.
func (s *Sketch) insert(bucketWord, sampleWord uint64) bool {
	// Multiply-shift bucket selection: j = ⌊bucketWord · m / 2^64⌋ is
	// uniform on [0, m) and works for any m, not only powers of two.
	j, _ := bits.Mul64(bucketWord, uint64(s.sh.cfg.m))
	run := s.run
	w, bit := &run[runBitmap:][j>>6], uint64(1)<<(j&63)
	if *w&bit != 0 {
		return false // case 1 of Figure 1: occupied bucket, skip
	}
	if sampleWord >= run[runCur] {
		// Not sampled at rate p_{L+1}. A full bitmap (L = m, which cannot
		// happen before kMax in practice) parks the threshold at 0, so this
		// branch also rejects everything once no bucket is left.
		return false
	}
	*w |= bit
	l := int(run[runL]) + 1
	run[runL] = uint64(l)
	run[runCur] = s.thresholdAt(l)
	return true
}

// L returns the current number of 1-bits (the paper's L).
func (s *Sketch) L() int { return int(s.run[runL]) }

// B returns the truncated output B = min(L, k*) of Equation (8).
func (s *Sketch) B() int { return min(s.L(), s.sh.cfg.kMax) }

// Estimate returns the cardinality estimate n̂ = t_B (Equation 2),
// evaluated in closed form: t_B = C/2·(r^{−B} − 1).
func (s *Sketch) Estimate() float64 { return s.sh.cfg.sched.estimate(s.B()) }

// Saturated reports whether the sketch has reached its truncation point;
// estimates at or beyond N are pinned to t_{k*} ≈ N.
func (s *Sketch) Saturated() bool { return s.L() >= s.sh.cfg.kMax }

// SizeBits returns the summary-statistic memory footprint in bits, the
// quantity compared across algorithms in Section 6.2 (hash seeds excluded,
// as in the paper).
func (s *Sketch) SizeBits() int { return s.sh.cfg.m }

// Footprint returns the sketch's resident process memory in bytes: the
// handle and its run of words, plus — for a NewSketch sketch, which owns
// its Shared — the Config and hasher handle. For Theorem-2 configs this
// is m/8 plus a small constant: the paper's Table 2 accounting holds of
// the process, not just the bitmap. A sketch under a Shared it does not
// own counts only its handle and run; whoever holds the Shared counts it
// once for all of them.
func (s *Sketch) Footprint() int {
	n := int(unsafe.Sizeof(*s)) + 8*cap(s.run)
	if s.sh.own {
		n += s.sh.Footprint()
	}
	return n
}

// Reset clears the sketch for reuse under the same configuration and hash.
func (s *Sketch) Reset() {
	clear(s.run[runBitmap:])
	s.run[runL] = 0
	s.run[runCur] = s.thresholdAt(0)
}

// sketchMagic guards serialized sketches against format drift.
const sketchMagic = uint32(0x5b17ab01)

// LegacySketchMagic is the magic word of the original bare serialization
// format, exported so the root package's universal Unmarshal can keep
// accepting pre-envelope S-bitmap snapshots.
const LegacySketchMagic = sketchMagic

// sketchHeader is the fixed prefix of a serialized sketch: magic, m, N, C,
// L, d and the bitmap encoding's length.
const sketchHeader = 45

// MarshalBinary serializes the sketch state together with the (m, N, C)
// triple so a receiver can rebuild the estimator tables. The hash seed is
// NOT serialized; the caller must construct the receiving sketch with the
// same hasher to continue updating (estimation alone needs no hasher).
func (s *Sketch) MarshalBinary() ([]byte, error) {
	cfg := s.sh.cfg
	vlen := bitvec.EncodedLen(cfg.m)
	buf := make([]byte, 0, sketchHeader+vlen)
	buf = binary.LittleEndian.AppendUint32(buf, sketchMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cfg.m))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.n))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(cfg.c))
	buf = binary.LittleEndian.AppendUint64(buf, s.run[runL])
	buf = append(buf, byte(s.sh.dBits))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(vlen))
	return bitvec.AppendWords(buf, s.run[runBitmap:], cfg.m), nil
}

// sketchParams is a serialized sketch's header.
type sketchParams struct {
	m    int
	n, c float64
	l    int
	d    uint
}

// parseSketch validates a serialized sketch's framing and returns its
// header and bitmap encoding.
func parseSketch(data []byte) (p sketchParams, body []byte, err error) {
	if len(data) < sketchHeader {
		return p, nil, errors.New("core: truncated sketch header")
	}
	if binary.LittleEndian.Uint32(data) != sketchMagic {
		return p, nil, errors.New("core: bad sketch magic")
	}
	p = sketchParams{
		m: int(binary.LittleEndian.Uint64(data[4:])),
		n: math.Float64frombits(binary.LittleEndian.Uint64(data[12:])),
		c: math.Float64frombits(binary.LittleEndian.Uint64(data[20:])),
		l: int(binary.LittleEndian.Uint64(data[28:])),
		d: uint(data[36]),
	}
	vlen := int(binary.LittleEndian.Uint64(data[37:]))
	if len(data) != sketchHeader+vlen {
		return p, nil, fmt.Errorf("core: sketch body length %d, want %d", len(data)-sketchHeader, vlen)
	}
	// Checked before anything is sized from the header: a bitmap of m bits
	// is allocated only for a body that holds one.
	if p.m < 0 || vlen != bitvec.EncodedLen(p.m) {
		return p, nil, fmt.Errorf("core: sketch body of %d bytes cannot hold m = %d bits", vlen, p.m)
	}
	if p.d < 1 || p.d > 64 {
		return p, nil, fmt.Errorf("core: sampling resolution d = %d outside [1, 64]", p.d)
	}
	return p, data[sketchHeader:], nil
}

// UnmarshalSketch reconstructs a sketch from MarshalBinary output. The
// returned sketch can Estimate immediately; to continue adding items, pass
// the same hasher used by the original via opts.
func UnmarshalSketch(data []byte, opts ...Option) (*Sketch, error) {
	p, body, err := parseSketch(data)
	if err != nil {
		return nil, err
	}
	cfg, err := newConfig(p.m, p.n, p.c)
	if err != nil {
		return nil, fmt.Errorf("core: rejected serialized parameters: %w", err)
	}
	// The recorded resolution comes last so it wins over opts.
	s := NewSketch(cfg, 0, append(opts[:len(opts):len(opts)], WithResolution(p.d))...)
	if err := s.decode(p, body); err != nil {
		return nil, err
	}
	return s, nil
}

// UnmarshalInto restores MarshalBinary output into *s as Init(s, run)
// followed by the recorded state — the in-place counterpart of
// UnmarshalSketch, building no Config and no hasher. Data serialized under
// other parameters than sh's (m, N, C or resolution d) is an error that
// touches neither s nor run; on any other error the contents of run are
// unspecified.
func (sh *Shared) UnmarshalInto(s *Sketch, run []uint64, data []byte) error {
	p, body, err := parseSketch(data)
	if err != nil {
		return err
	}
	cfg := sh.cfg
	if p.m != cfg.m || math.Float64bits(p.n) != math.Float64bits(cfg.n) ||
		math.Float64bits(p.c) != math.Float64bits(cfg.c) || p.d != sh.dBits {
		return fmt.Errorf("core: sketch serialized under m=%d N=%g C=%g d=%d, not m=%d N=%g C=%g d=%d",
			p.m, p.n, p.c, p.d, cfg.m, cfg.n, cfg.c, sh.dBits)
	}
	sh.Init(s, run)
	return s.decode(p, body)
}

// decode loads a parsed body into the freshly initialized s. The bitmap's
// length must match m and its popcount the recorded L.
func (s *Sketch) decode(p sketchParams, body []byte) error {
	n, ones, err := bitvec.DecodeWords(s.run[runBitmap:], body)
	if err != nil {
		return err
	}
	if n != p.m {
		return fmt.Errorf("core: bitmap length %d does not match m = %d", n, p.m)
	}
	if ones != p.l {
		return fmt.Errorf("core: bitmap popcount %d does not match recorded L = %d", ones, p.l)
	}
	s.run[runL], s.run[runCur] = uint64(p.l), s.thresholdAt(p.l)
	return nil
}
