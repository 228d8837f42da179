package hyperloglog

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
	"testing"

	"repro/internal/uhash"
)

// refSketch is the reference model of FuzzRegisters: HyperLogLog with one
// byte per register, as this package kept its registers before it packed
// them at RegisterBits each. Its insert, merge, estimator and codec are
// that layout's, summing math.Exp2 terms.
type refSketch struct {
	kBits uint
	h     uhash.Hasher
	regs  []uint8
}

func newRef(kBits uint, h uhash.Hasher) *refSketch {
	return &refSketch{kBits: kBits, h: h, regs: make([]uint8, 1<<kBits)}
}

func (s *refSketch) insert(bucketWord, geoWord uint64) bool {
	j := bucketWord >> (64 - s.kBits)
	rank := bits.LeadingZeros64(geoWord) + 1
	if rank > maxRank {
		rank = maxRank
	}
	if uint8(rank) <= s.regs[j] {
		return false
	}
	s.regs[j] = uint8(rank)
	return true
}

func (s *refSketch) addUint64(x uint64) bool { return s.insert(s.h.Sum128Uint64(x)) }
func (s *refSketch) addString(x string) bool { return s.insert(s.h.Sum128String(x)) }

func (s *refSketch) merge(o *refSketch) {
	for j := range s.regs {
		s.regs[j] = max(s.regs[j], o.regs[j])
	}
}

func (s *refSketch) estimate() float64 {
	m := float64(len(s.regs))
	var invSum float64
	zeros := 0
	for _, r := range s.regs {
		invSum += math.Exp2(-float64(r))
		if r == 0 {
			zeros++
		}
	}
	e := alpha(len(s.regs)) * m * m / invSum
	if e <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return e
}

func (s *refSketch) marshal() []byte { return append([]byte{byte(s.kBits)}, s.regs...) }

// FuzzRegisters holds the packed registers to the byte-register model: a
// sketch of 2^4 to 2^10 registers, viewed over a run with a guard word
// past its end, takes a fuzzed sequence of single adds, batch adds,
// merges with sketches of fuzzed registers (every rank, so every register
// that straddles two words takes every value), restores of fuzzed
// registers and resets beside a refSketch. After every step the two
// marshal to the same bytes and estimate the same float64 bits, and the
// guard word is untouched.
func FuzzRegisters(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 40, 9})
	f.Add([]byte{2, 7, 3, 0xff, 0xfe, 31, 30, 29, 17, 4, 1, 200, 2, 90})
	f.Add([]byte{6, 3, 4, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 3, 7, 19, 23, 29})
	f.Add([]byte{5, 9, 1, 255, 2, 255, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		kBits := 4 + uint(data[0])%7
		h := uhash.NewMixer(uint64(data[1]))
		data = data[2:]
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		// fuzzedRegs returns m register values cycled from the input,
		// offset by their index: one length byte and up to 256 values.
		fuzzedRegs := func() []byte {
			src := make([]byte, 1+int(next()))
			for i := range src {
				src[i] = next() % (maxRank + 1)
			}
			regs := make([]byte, 1<<kBits)
			for i := range regs {
				regs[i] = (src[i%len(src)] + byte(i)) % (maxRank + 1)
			}
			return regs
		}

		sh := NewShared(kBits, h)
		const guardWord = 0x5a5a5a5a5a5a5a5a
		n := sh.RunWords()
		mem := make([]uint64, n+1)
		mem[n] = guardWord
		var s Sketch
		sh.Init(&s, mem[:n:n])
		ref := newRef(kBits, h)
		check := func(step string) {
			t.Helper()
			got, _ := s.MarshalBinary()
			if want := ref.marshal(); !bytes.Equal(got, want) {
				t.Fatalf("%s: packed registers %v, byte model %v", step, got[1:], want[1:])
			}
			if g, w := math.Float64bits(s.Estimate()), math.Float64bits(ref.estimate()); g != w {
				t.Fatalf("%s: estimate %v, byte model %v", step, s.Estimate(), ref.estimate())
			}
			if mem[n] != guardWord {
				t.Fatalf("%s: the sketch wrote past its run", step)
			}
		}
		for step := 0; len(data) > 0 && step < 32; step++ {
			switch op := next() % 6; op {
			case 0: // single add
				var b [8]byte
				for i := range b {
					b[i] = next()
				}
				x := binary.LittleEndian.Uint64(b[:])
				if g, w := s.AddUint64(x), ref.addUint64(x); g != w {
					t.Fatalf("AddUint64(%#x) grew %v, byte model %v", x, g, w)
				}
				check("AddUint64")
			case 1, 2: // batch add of uint64 or string items
				items := make([]uint64, 1+int(next()))
				base := uint64(next())<<32 | uint64(next())
				for i := range items {
					items[i] = (base + uint64(i)) * 0x9e3779b97f4a7c15
				}
				want := 0
				if op == 1 {
					for _, x := range items {
						if ref.addUint64(x) {
							want++
						}
					}
					if got := s.AddBatch64(items); got != want {
						t.Fatalf("AddBatch64 grew %d registers, byte model %d", got, want)
					}
				} else {
					strs := make([]string, len(items))
					for i, x := range items {
						strs[i] = strconv.FormatUint(x, 36)
						if ref.addString(strs[i]) {
							want++
						}
					}
					if got := s.AddBatchString(strs); got != want {
						t.Fatalf("AddBatchString grew %d registers, byte model %d", got, want)
					}
				}
				check("batch add")
			case 3: // merge with a sketch of fuzzed registers
				blob := append([]byte{byte(kBits)}, fuzzedRegs()...)
				o, err := Unmarshal(blob, h)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Merge(o); err != nil {
					t.Fatal(err)
				}
				or := newRef(kBits, h)
				copy(or.regs, blob[1:])
				ref.merge(or)
				check("Merge")
			case 4: // restore fuzzed registers over a run holding stale words
				blob := append([]byte{byte(kBits)}, fuzzedRegs()...)
				for i := range n {
					mem[i] = ^uint64(0)
				}
				if err := sh.UnmarshalInto(&s, mem[:n:n], blob); err != nil {
					t.Fatal(err)
				}
				copy(ref.regs, blob[1:])
				check("UnmarshalInto")
			case 5:
				s.Reset()
				clear(ref.regs)
				check("Reset")
			}
		}
		check("final")
	})
}
