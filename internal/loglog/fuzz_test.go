package loglog

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"strconv"
	"testing"

	"repro/internal/hyperloglog"
	"repro/internal/uhash"
)

// refSketch is the reference model of FuzzLogLogRegisters: LogLog with
// one byte per register, as this package kept its registers before they
// became package hyperloglog's packed ones. Its insert, merge, estimator
// and codec are that layout's.
type refSketch struct {
	kBits uint
	h     uhash.Hasher
	reg   []uint8
}

func newRef(kBits uint, h uhash.Hasher) *refSketch {
	return &refSketch{kBits: kBits, h: h, reg: make([]uint8, 1<<kBits)}
}

func (s *refSketch) insert(bucketWord, geoWord uint64) bool {
	j := bucketWord >> (64 - s.kBits)
	rank := bits.LeadingZeros64(geoWord) + 1
	if rank > 1<<RegisterBits-1 {
		rank = 1<<RegisterBits - 1
	}
	if uint8(rank) <= s.reg[j] {
		return false
	}
	s.reg[j] = uint8(rank)
	return true
}

func (s *refSketch) addUint64(x uint64) bool { return s.insert(s.h.Sum128Uint64(x)) }
func (s *refSketch) addString(x string) bool { return s.insert(s.h.Sum128String(x)) }

func (s *refSketch) merge(o *refSketch) {
	for j := range s.reg {
		s.reg[j] = max(s.reg[j], o.reg[j])
	}
}

func (s *refSketch) estimate() float64 {
	m := len(s.reg)
	sum := 0
	for _, r := range s.reg {
		sum += int(r)
	}
	return Alpha(m) * float64(m) * math.Pow(2, float64(sum)/float64(m))
}

func (s *refSketch) marshal() []byte { return append([]byte{byte(s.kBits)}, s.reg...) }

// FuzzLogLogRegisters holds LogLog on HyperLogLog's packed registers to
// the byte-register model: a sketch of 2^2 to 2^10 registers — kBits 2
// and 3 lie below HyperLogLog's range, in one word — viewed over a run
// with a guard word past its end, takes a fuzzed sequence of single adds,
// batch adds, merges with sketches of fuzzed registers, restores of
// fuzzed registers and resets beside a refSketch. After every step the
// two marshal to the same bytes and estimate the same float64 bits, and
// the guard word is untouched.
func FuzzLogLogRegisters(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1, 40, 9})
	f.Add([]byte{1, 7, 3, 0xff, 0xfe, 31, 30, 29, 17, 4, 1, 200, 2, 90})
	f.Add([]byte{8, 3, 4, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 31, 3, 7, 19, 23, 29})
	f.Add([]byte{5, 9, 1, 255, 2, 255, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		kBits := 2 + uint(data[0])%9
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
		const maxRank = 1<<RegisterBits - 1
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
		var s hyperloglog.Sketch
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
				copy(or.reg, blob[1:])
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
				copy(ref.reg, blob[1:])
				check("UnmarshalInto")
			case 5:
				s.Reset()
				clear(ref.reg)
				check("Reset")
			}
		}
		check("final")
	})
}
