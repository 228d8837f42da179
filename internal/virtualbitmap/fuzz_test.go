package virtualbitmap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/linearcount"
	"repro/internal/uhash"
)

// refLC is the first reference model of FuzzSampledBitmap: linear
// counting as package linearcount kept it before it took sampling in,
// counting every item by the high hash word alone. Its insert, batch
// insert, estimator, merge and codec are that sketch's.
type refLC struct {
	v *bitvec.Vector
	h uhash.Hasher
}

func (s *refLC) Add(item []byte) bool {
	hi, _ := s.h.Sum128(item)
	return s.insert(hi)
}

func (s *refLC) AddUint64(item uint64) bool {
	hi, _ := s.h.Sum128Uint64(item)
	return s.insert(hi)
}

func (s *refLC) AddString(item string) bool {
	hi, _ := s.h.Sum128String(item)
	return s.insert(hi)
}

func (s *refLC) insert(word uint64) bool {
	j, _ := bits.Mul64(word, uint64(s.v.Len()))
	return s.v.Set(int(j))
}

func (s *refLC) AddBatch64(items []uint64) int {
	return uhash.Batch64(s.h, nil, items, s.insertBatch)
}

func (s *refLC) AddBatchString(items []string) int {
	return uhash.BatchString(s.h, nil, items, s.insertBatch)
}

func (s *refLC) insertBatch(hi, _ []uint64) int {
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

func (s *refLC) Ones() int       { return s.v.Ones() }
func (s *refLC) Saturated() bool { return s.v.Zeros() == 0 }
func (s *refLC) Reset()          { s.v.Reset() }

func (s *refLC) Estimate() float64 {
	m := float64(s.v.Len())
	z := float64(s.v.Zeros())
	if z == 0 {
		return m * math.Log(m)
	}
	return m * math.Log(m/z)
}

func (s *refLC) Merge(o *refLC) error { return s.v.UnionWith(o.v) }

func (s *refLC) MarshalBinary() ([]byte, error) { return s.v.MarshalBinary() }

func unmarshalRefLC(data []byte, h uhash.Hasher) (*refLC, error) {
	v := &bitvec.Vector{}
	if err := v.UnmarshalBinary(data); err != nil {
		return nil, fmt.Errorf("linearcount: %w", err)
	}
	if v.Len() < 1 {
		return nil, fmt.Errorf("linearcount: serialized bitmap is empty")
	}
	if h == nil {
		h = uhash.NewMixer(1)
	}
	return &refLC{v: v, h: h}, nil
}

// refVB is the second reference model: the virtual bitmap as this package
// kept it before it became package linearcount's sampled sketch, with its
// own sampling threshold, estimator and rate-prefixed codec.
type refVB struct {
	v         *bitvec.Vector
	h         uhash.Hasher
	rate      float64
	threshold uint64
}

func newRefVB(m int, rate float64, h uhash.Hasher) *refVB {
	return &refVB{v: bitvec.New(m), h: h, rate: rate, threshold: thresholdFor(rate)}
}

func thresholdFor(rate float64) uint64 {
	if rate >= 1 {
		return math.MaxUint64
	}
	return uint64(math.Ceil(rate * math.Pow(2, 64)))
}

func (s *refVB) Add(item []byte) bool       { return s.insert(s.h.Sum128(item)) }
func (s *refVB) AddUint64(item uint64) bool { return s.insert(s.h.Sum128Uint64(item)) }
func (s *refVB) AddString(item string) bool { return s.insert(s.h.Sum128String(item)) }

func (s *refVB) insert(bucketWord, sampleWord uint64) bool {
	if sampleWord >= s.threshold {
		return false
	}
	j, _ := bits.Mul64(bucketWord, uint64(s.v.Len()))
	return s.v.Set(int(j))
}

func (s *refVB) AddBatch64(items []uint64) int {
	return uhash.Batch64(s.h, nil, items, s.insertBatch)
}

func (s *refVB) AddBatchString(items []string) int {
	return uhash.BatchString(s.h, nil, items, s.insertBatch)
}

func (s *refVB) insertBatch(hi, lo []uint64) int {
	lo = lo[:len(hi)]
	v := s.v
	mm := uint64(v.Len())
	thr := s.threshold
	changed := 0
	for i, h := range hi {
		if lo[i] >= thr {
			continue
		}
		j, _ := bits.Mul64(h, mm)
		if v.SetUnchecked(int(j)) {
			changed++
		}
	}
	return changed
}

func (s *refVB) Ones() int       { return s.v.Ones() }
func (s *refVB) Saturated() bool { return s.v.Zeros() == 0 }
func (s *refVB) Reset()          { s.v.Reset() }

func (s *refVB) Estimate() float64 {
	m := float64(s.v.Len())
	z := float64(s.v.Zeros())
	if z == 0 {
		return m * math.Log(m) / s.rate
	}
	return m * math.Log(m/z) / s.rate
}

func (s *refVB) MarshalBinary() ([]byte, error) {
	vb, err := s.v.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 8+len(vb))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.rate))
	return append(buf, vb...), nil
}

func unmarshalRefVB(data []byte, h uhash.Hasher) (*refVB, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("virtualbitmap: truncated serialization")
	}
	rate := math.Float64frombits(binary.LittleEndian.Uint64(data))
	if !(rate > 0 && rate <= 1) {
		return nil, fmt.Errorf("virtualbitmap: serialized rate %g outside (0, 1]", rate)
	}
	v := &bitvec.Vector{}
	if err := v.UnmarshalBinary(data[8:]); err != nil {
		return nil, fmt.Errorf("virtualbitmap: %w", err)
	}
	if v.Len() < 1 {
		return nil, fmt.Errorf("virtualbitmap: serialized bitmap is empty")
	}
	if h == nil {
		h = uhash.NewMixer(1)
	}
	return &refVB{v: v, h: h, rate: rate, threshold: thresholdFor(rate)}, nil
}

// model is what FuzzSampledBitmap drives on a reference and on the sketch
// under test alike.
type model interface {
	Add([]byte) bool
	AddUint64(uint64) bool
	AddString(string) bool
	AddBatch64([]uint64) int
	AddBatchString([]string) int
	Ones() int
	Saturated() bool
	Estimate() float64
	Reset()
	MarshalBinary() ([]byte, error)
}

// rawHasher passes a uint64 item through as its sampling word, so fuzzed
// items reach the sampling boundaries — the words beside ⌈r·2^64⌉, and
// 2^64−1 — that a mixing hash reaches with probability 2^−64 per item.
// It has no batch loop, so the batch paths hash through it item by item.
type rawHasher struct{ uhash.Hasher }

func (r rawHasher) Sum128(p []byte) (hi, lo uint64) {
	if len(p) == 8 {
		return r.Sum128Uint64(binary.LittleEndian.Uint64(p))
	}
	return r.Hasher.Sum128(p)
}

func (r rawHasher) Sum128Uint64(x uint64) (hi, lo uint64) {
	hi, _ = r.Hasher.Sum128Uint64(x)
	return hi, x
}

func (r rawHasher) Sum128String(s string) (hi, lo uint64) { return r.Sum128([]byte(s)) }

// FuzzSampledBitmap holds linear counting and the virtual bitmap, one
// sketch of package linearcount since the virtual bitmap became its
// sampled form, to the two sketches they were before: refLC, and refVB
// at rate 1, at a RateFor rate or at a fuzzed rate in (0, 1]. A bitmap
// of 1 to 4,096 bits, hashed by a seeded Mixer or by rawHasher, takes a
// fuzzed sequence of single adds (items at the sampling boundaries
// among them), batch adds, merges (linear counting only, the one kind
// that merges), resets and snapshot round trips beside its reference.
// Every add returns what the reference's returns, and after every step
// the two agree on the snapshot bytes — the linear-counting format and,
// for a virtual bitmap, the rate-prefixed one — the estimate's float64
// bits, Ones and Saturated.
func FuzzSampledBitmap(f *testing.F) {
	f.Add([]byte{0, 3, 0, 200, 0, 1, 2, 3, 4, 5, 6, 7, 8, 3, 0, 3, 7, 4, 9, 2, 6, 11, 6, 0, 5, 8})
	f.Add([]byte{1, 0x85, 1, 0, 3, 5, 3, 4, 3, 6, 4, 3, 1, 5, 40, 0, 7, 1, 8, 2, 3})
	f.Add([]byte{2, 7, 4, 0, 0, 0, 1, 0, 0, 0, 0, 0, 4, 200, 9, 9, 5, 100, 3, 3, 7, 8, 1})
	f.Add([]byte{3, 0x81, 0, 63, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0x80, 3, 0, 3, 1, 3, 2, 3, 3, 4, 30, 7, 8, 0})
	f.Add([]byte{3, 0x90, 0x0f, 0xff, 1, 0, 0, 0, 0, 0, 0, 0, 4, 255, 1, 5, 20, 7, 9, 3, 5, 6})
	f.Add([]byte{0, 0x82, 0, 0, 3, 5, 3, 4, 6, 0, 7, 6, 1, 9, 8, 1})
	f.Add([]byte{0, 0x80, 20, 0, 1, 5, 1, 4, 7, 1, 1, 5, 4, 9, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{1, 0x80, 10, 0, 1, 5, 1, 4, 1, 0, 4, 9, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{3, 0x81, 100, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 1, 1, 1, 3, 1, 0, 4, 6, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		mode := data[0] % 4
		var h uhash.Hasher = uhash.NewMixer(uint64(data[1] & 0x7f))
		if data[1]&0x80 != 0 {
			h = rawHasher{h}
		}
		m := 1 + int(binary.LittleEndian.Uint16(data[2:]))%4096
		data = data[4:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		next64 := func() uint64 {
			var b [8]byte
			for i := range b {
				b[i] = next()
			}
			return binary.LittleEndian.Uint64(b[:])
		}

		vb := mode != 0
		var s *linearcount.Sketch
		var ref model
		threshold := uint64(math.MaxUint64) // the first sampling word dropped, or none
		if vb {
			rate := 1.0
			switch mode {
			case 2:
				rate = RateFor(m, float64(uint32(next64())))
			case 3:
				rate = float64(next64()>>11+1) / (1 << 53)
			}
			s = NewWithHasher(m, rate, h)
			rv := newRefVB(m, rate, h)
			ref, threshold = rv, rv.threshold
		} else {
			s = linearcount.NewWithHasher(m, h)
			ref = &refLC{v: bitvec.New(m), h: h}
		}

		check := func(step string) {
			t.Helper()
			got, _ := s.MarshalBinary()
			want, _ := ref.MarshalBinary()
			if vb {
				if g := Marshal(s); !bytes.Equal(g, want) {
					t.Fatalf("%s: virtual bitmap snapshot %x, reference %x", step, g, want)
				}
				want = want[8:]
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: bitmap snapshot %x, reference %x", step, got, want)
			}
			if g, w := math.Float64bits(s.Estimate()), math.Float64bits(ref.Estimate()); g != w {
				t.Fatalf("%s: estimate %v, reference %v", step, s.Estimate(), ref.Estimate())
			}
			if s.Ones() != ref.Ones() || s.Saturated() != ref.Saturated() {
				t.Fatalf("%s: Ones %d, Saturated %v; reference %d, %v", step, s.Ones(), s.Saturated(), ref.Ones(), ref.Saturated())
			}
		}
		add := func(x uint64) {
			t.Helper()
			if g, w := s.AddUint64(x), ref.AddUint64(x); g != w {
				t.Fatalf("AddUint64(%#x) changed %v, reference %v", x, g, w)
			}
		}

		for step := 0; len(data) > 0 && step < 48; step++ {
			switch op := next() % 9; op {
			case 0:
				add(next64())
				check("AddUint64")
			case 1: // an item at a sampling boundary
				at := [...]uint64{threshold - 2, threshold - 1, threshold, threshold + 1, math.MaxUint64 - 1, math.MaxUint64, 0, 1}
				add(at[next()%8])
				check("boundary AddUint64")
			case 2, 3: // Add or AddString of a short byte string
				p := make([]byte, next()%12)
				for i := range p {
					p[i] = next()
				}
				if op == 2 {
					if g, w := s.Add(p), ref.Add(p); g != w {
						t.Fatalf("Add(%x) changed %v, reference %v", p, g, w)
					}
				} else if g, w := s.AddString(string(p)), ref.AddString(string(p)); g != w {
					t.Fatalf("AddString(%q) changed %v, reference %v", p, g, w)
				}
				check("Add")
			case 4, 5: // batch add: a run across the threshold, or spread items
				items := make([]uint64, 1+int(next()))
				start, stride := next64(), uint64(0x9e3779b97f4a7c15)
				if flag := next(); flag&1 != 0 {
					start, stride = threshold-uint64(len(items)/2), 1
				}
				for i := range items {
					items[i] = start + uint64(i)*stride
				}
				if op == 4 {
					if g, w := s.AddBatch64(items), ref.AddBatch64(items); g != w {
						t.Fatalf("AddBatch64 changed %d, reference %d", g, w)
					}
				} else {
					strs := make([]string, len(items))
					for i, x := range items {
						strs[i] = strconv.FormatUint(x, 36)
					}
					if g, w := s.AddBatchString(strs), ref.AddBatchString(strs); g != w {
						t.Fatalf("AddBatchString changed %d, reference %d", g, w)
					}
				}
				check("batch add")
			case 6: // merge, or for a virtual bitmap a round trip
				if !vb {
					om := m
					if next()%8 == 0 {
						om = 1 + int(next())
					}
					o, or := linearcount.NewWithHasher(om, h), &refLC{v: bitvec.New(om), h: h}
					for range 1 + int(next()) {
						x := next64()
						o.AddUint64(x)
						or.AddUint64(x)
					}
					if g, w := s.Merge(o), ref.(*refLC).Merge(or); (g == nil) != (w == nil) {
						t.Fatalf("Merge of %d into %d bits: error %v, reference %v", om, m, g, w)
					}
					check("Merge")
					break
				}
				fallthrough
			case 7: // snapshot round trip, under the hasher or nil
				rh := h
				if next()%4 == 0 {
					rh = nil
				}
				var err error
				if vb {
					want, _ := ref.MarshalBinary()
					if s, err = Unmarshal(Marshal(s), rh); err != nil {
						t.Fatal(err)
					}
					if ref, err = unmarshalRefVB(want, rh); err != nil {
						t.Fatal(err)
					}
				} else {
					got, _ := s.MarshalBinary()
					want, _ := ref.MarshalBinary()
					if s, err = linearcount.Unmarshal(got, rh); err != nil {
						t.Fatal(err)
					}
					if ref, err = unmarshalRefLC(want, rh); err != nil {
						t.Fatal(err)
					}
				}
				if rh == nil {
					h = uhash.NewMixer(1)
				}
				check("round trip")
			case 8:
				s.Reset()
				ref.Reset()
				check("Reset")
			}
		}
		check("final")
	})
}
