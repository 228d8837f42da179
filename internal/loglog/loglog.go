// Package loglog implements LogLog counting (Durand & Flajolet 2003), one
// of the two "loglog-counting" baselines the S-bitmap paper compares
// against in Section 6.
//
// Each of m = 2^k registers stores the maximum geometric value observed in
// its substream — the position (1-based) of the first 1 bit of the hashed
// suffix — which needs only ⌈log₂ log₂ N⌉ ≈ 5 bits. The estimate is the
// bias-corrected geometric mean
//
//	n̂ = α_m · m · 2^(ΣM_j / m),
//
// with α_m = (Γ(−1/m)·(1−2^{1/m})/ln 2)^{−m} (Durand & Flajolet, Theorem
// 1), which converges to ≈ 0.39701 as m grows.
//
// HyperLogLog keeps the same registers and differs only in its estimator,
// so a LogLog sketch is package hyperloglog's sketch — its packed
// registers, insert, batch insert, merge and snapshot codec — under
// LogLog's estimator.
package loglog

import (
	"math"

	"repro/internal/hyperloglog"
	"repro/internal/uhash"
)

// RegisterBits is the register width used for memory accounting. Five bits
// hold max-ranks up to 31, i.e. cardinalities toward 2^31 per substream —
// matching the α = 5 accounting the paper applies for N < 2^32.
const RegisterBits = hyperloglog.RegisterBits

// estimator is LogLog's: the geometric mean under Alpha, the asymptotic
// relative standard error 1.30/√m (Durand & Flajolet, Theorem 2), and
// register counts from m = 4.
var estimator = &hyperloglog.Estimator{Name: "loglog", MinKBits: 2, Alpha: Alpha, Geometric: true, StdErr: 1.30}

// New returns a LogLog sketch with m = 2^kBits registers, hashing with the
// default Mixer seeded by seed. It panics if kBits is outside [2, 24].
func New(kBits uint, seed uint64) *hyperloglog.Sketch {
	return NewWithHasher(kBits, uhash.NewMixer(seed))
}

// NewWithHasher returns a LogLog sketch with an explicit hash function.
func NewWithHasher(kBits uint, h uhash.Hasher) *hyperloglog.Sketch {
	return estimator.NewWithHasher(kBits, h)
}

// NewShared returns the state shared by LogLog sketches equivalent to
// NewWithHasher(kBits, h), which a keyed store holds once for all its
// sketches (hyperloglog.Shared).
func NewShared(kBits uint, h uhash.Hasher) *hyperloglog.Shared {
	return estimator.NewShared(kBits, h)
}

// Unmarshal reconstructs a LogLog sketch from its MarshalBinary output (the
// register-count exponent, then one byte per register), hashing with h
// (nil selects the default Mixer with seed 1).
func Unmarshal(data []byte, h uhash.Hasher) (*hyperloglog.Sketch, error) {
	return estimator.Unmarshal(data, h)
}

// KBitsForBudget returns the largest register-count exponent k such that
// 2^k 5-bit registers fit in mbits bits — the accounting used when all
// algorithms share one memory budget (Section 6.2).
func KBitsForBudget(mbits int) uint {
	k := uint(2)
	for (1<<(k+1))*RegisterBits <= mbits && k+1 <= 24 {
		k++
	}
	return k
}

// Alpha returns the exact bias-correction constant α_m from Durand &
// Flajolet: (Γ(−1/m)·(1−2^{1/m})/ln 2)^{−m}.
func Alpha(m int) float64 {
	fm := float64(m)
	g := math.Gamma(-1 / fm)
	base := g * (1 - math.Pow(2, 1/fm)) / math.Ln2
	return math.Pow(base, -fm)
}
