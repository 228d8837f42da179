// Package bitvec implements the packed bit vectors underlying every bitmap
// sketch in this repository (basic bitmap, linear counting, virtual bitmap,
// multiresolution bitmap, and the S-bitmap itself).
//
// A Vector is a fixed-length sequence of bits stored 64 per word. Besides
// get/set it provides the operations the sketches need: a maintained
// population count, union for mergeable sketches, and a compact binary
// serialization.
package bitvec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unsafe"
)

// Vector is a fixed-length bit vector. The zero value is an empty vector of
// length 0; use New for a sized one.
type Vector struct {
	words []uint64
	n     int // length in bits
	ones  int // maintained population count
}

// New returns a vector of n zero bits. It panics if n is negative.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	return &Vector{words: make([]uint64, (n+63)/64), n: n}
}

// Make returns a vector of n bits over caller-supplied backing words, for
// slab allocators that carve many identically sized vectors out of one
// array. words must hold exactly (n+63)/64 all-zero words; the vector owns
// them afterwards. The capacity is clipped to the length so the vector can
// never write (or account, via Footprint) beyond its slab slot.
func Make(words []uint64, n int) Vector {
	if n < 0 {
		panic("bitvec: negative length")
	}
	if len(words) != (n+63)/64 {
		panic(fmt.Sprintf("bitvec: Make with %d words for %d bits (want %d)", len(words), n, (n+63)/64))
	}
	return Vector{words: words[:len(words):len(words)], n: n}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Ones returns the number of set bits. It is maintained incrementally and
// costs O(1).
func (v *Vector) Ones() int { return v.ones }

// Zeros returns the number of clear bits.
func (v *Vector) Zeros() int { return v.n - v.ones }

// Get reports whether bit i is set. It panics if i is out of range.
func (v *Vector) Get(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	return v.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i and reports whether the bit was previously clear (i.e.
// whether the vector changed). It panics if i is out of range.
func (v *Vector) Set(i int) bool {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
	mask := uint64(1) << (uint(i) & 63)
	w := &v.words[i>>6]
	if *w&mask != 0 {
		return false
	}
	*w |= mask
	v.ones++
	return true
}

// SetUnchecked is Set without the range check of Set: the caller must
// have proven 0 ≤ i < Len(). The sketches' batch ingestion paths use it
// for indexes produced by a multiply-shift onto the vector length — in
// range by construction, proven once per batch rather than re-checked per
// probe. Public callers should use Set. It reports whether the bit was
// previously clear.
func (v *Vector) SetUnchecked(i int) bool {
	mask := uint64(1) << (uint(i) & 63)
	w := &v.words[uint(i)>>6]
	if *w&mask != 0 {
		return false
	}
	*w |= mask
	v.ones++
	return true
}

// Reset clears every bit.
func (v *Vector) Reset() {
	for i := range v.words {
		v.words[i] = 0
	}
	v.ones = 0
}

// Equal reports whether v and o have identical length and contents.
func (v *Vector) Equal(o *Vector) bool {
	if v.n != o.n {
		return false
	}
	for i, w := range v.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// UnionWith ORs o into v. The vectors must have equal length.
func (v *Vector) UnionWith(o *Vector) error {
	if v.n != o.n {
		return fmt.Errorf("bitvec: union of unequal lengths %d and %d", v.n, o.n)
	}
	ones := 0
	for i := range v.words {
		v.words[i] |= o.words[i]
		ones += bits.OnesCount64(v.words[i])
	}
	v.ones = ones
	return nil
}

// String renders short vectors as a 0/1 string (LSB first) and summarizes
// long ones.
func (v *Vector) String() string {
	if v.n <= 128 {
		buf := make([]byte, v.n)
		for i := 0; i < v.n; i++ {
			if v.Get(i) {
				buf[i] = '1'
			} else {
				buf[i] = '0'
			}
		}
		return string(buf)
	}
	return fmt.Sprintf("bitvec(len=%d, ones=%d)", v.n, v.ones)
}

// marshalMagic guards serialized vectors against format drift.
const marshalMagic = uint32(0xb17c0de1)

// MarshalBinary implements encoding.BinaryMarshaler.
func (v *Vector) MarshalBinary() ([]byte, error) {
	return AppendWords(make([]byte, 0, EncodedLen(v.n)), v.words, v.n), nil
}

// EncodedLen returns the length of an n-bit vector's MarshalBinary
// encoding.
func EncodedLen(n int) int { return 12 + 8*((n+63)/64) }

// AppendWords appends the MarshalBinary encoding of the n-bit vector held
// in words, for callers that keep bitmap words outside a Vector (a sketch
// whose words sit in a keyed store's slot).
func AppendWords(buf []byte, words []uint64, n int) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, marshalMagic)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	for _, w := range words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (v *Vector) UnmarshalBinary(data []byte) error {
	n, err := decodedLen(data)
	if err != nil {
		return err
	}
	words := make([]uint64, (n+63)/64)
	_, ones, err := DecodeWords(words, data)
	if err != nil {
		return err
	}
	v.words, v.n, v.ones = words, n, ones
	return nil
}

// DecodeWords decodes a MarshalBinary encoding into dst, the inverse of
// AppendWords: it returns the encoded length in bits and the popcount.
// dst must hold exactly the encoding's (n+63)/64 words; on error its
// contents are unspecified.
func DecodeWords(dst []uint64, data []byte) (n, ones int, err error) {
	if n, err = decodedLen(data); err != nil {
		return 0, 0, err
	}
	if nw := (n + 63) / 64; nw != len(dst) {
		return 0, 0, fmt.Errorf("bitvec: %d-bit vector needs %d words, have %d", n, nw, len(dst))
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(data[12+8*i:])
		ones += bits.OnesCount64(dst[i])
	}
	// Reject set bits beyond the declared length (would corrupt Ones).
	if rem := n & 63; rem != 0 && len(dst) > 0 && dst[len(dst)-1]>>rem != 0 {
		return 0, 0, errors.New("bitvec: set bits beyond declared length")
	}
	return n, ones, nil
}

// decodedLen validates an encoding's header and body length and returns
// its length in bits.
func decodedLen(data []byte) (int, error) {
	if len(data) < 12 {
		return 0, errors.New("bitvec: truncated header")
	}
	if binary.LittleEndian.Uint32(data) != marshalMagic {
		return 0, errors.New("bitvec: bad magic")
	}
	n := binary.LittleEndian.Uint64(data[4:])
	if n > 1<<40 {
		return 0, fmt.Errorf("bitvec: implausible length %d", n)
	}
	if len(data) != EncodedLen(int(n)) {
		return 0, fmt.Errorf("bitvec: body length %d, want %d", len(data)-12, EncodedLen(int(n))-12)
	}
	return int(n), nil
}

// SizeBits returns the memory footprint of the bit storage itself, in bits.
// This is the quantity the paper's memory accounting uses (it excludes Go
// object headers, as the paper excludes hash seeds).
func (v *Vector) SizeBits() int { return v.n }

// Footprint returns the vector's resident process memory in bytes: the
// struct plus the backing word array at capacity. Unlike SizeBits it counts
// what the process actually holds, not just the abstract bit count.
func (v *Vector) Footprint() int { return int(unsafe.Sizeof(*v)) + 8*cap(v.words) }
