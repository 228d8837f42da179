// Package sbitmap is a production-oriented Go implementation of the
// Self-Learning Bitmap (S-bitmap) of Chen, Cao, Shepp & Nguyen ("Distinct
// Counting with a Self-Learning Bitmap", ICDE 2009; arXiv:1107.1697),
// together with the classic distinct-counting sketches the paper compares
// against.
//
// # The problem
//
// Given a data stream with duplicates, estimate the number of DISTINCT
// items using a few kilobits of state and one hash per item. The S-bitmap's
// distinguishing property is scale-invariance: configured for a range
// [1, N] and a target relative root-mean-square error ε, its error is ε for
// EVERY cardinality in the range — not just asymptotically, and without the
// small-range/large-range mode switches of LogLog-family estimators.
//
// # Quick start
//
//	sk, err := sbitmap.New(1e6, 0.01) // count up to 1M distinct, ±1%
//	if err != nil { ... }
//	for _, item := range stream {
//		sk.Add(item)
//	}
//	fmt.Println(sk.Estimate())
//
// New(1e6, 0.01) allocates about 30 kilobits (3.7 KiB) of bitmap — less
// than HyperLogLog needs for the same guarantee at this scale (Table 2 of
// the paper; `go run ./cmd/sbench -run table2` reproduces it).
//
// # How it works
//
// An S-bitmap is a plain bitmap of m bits, but a new item only sets a bit
// with probability p_{L+1}, where L is the number of bits already set, and
// the rates p_1 ≥ p_2 ≥ … are precomputed so that the relative error of
// the fill-time process is constant (the paper's Theorem 2):
//
//	p_k = m/(m+1−k) · (1+1/C) · r^k,    r = 1 − 2/(C+1).
//
// Because the rates are monotone non-increasing and the sampling decision
// is a deterministic function of the item's hash, a duplicate can never
// change the state: if an item was rejected at fill level L it is rejected
// at every later level too. The estimate is the expected number of
// distinct items needed to reach the observed fill, n̂ = t_B =
// C/2·(r^{−B}−1), which is unbiased with RRMSE (C−1)^{−1/2} (Theorem 3).
//
// # Package layout
//
// This root package is the public facade. The full implementations live in
// internal packages (internal/core for the S-bitmap, one package per
// baseline, and the simulation substrates used by the experiment harness);
// cmd/sbench regenerates every table and figure of the paper.
package sbitmap

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/uhash"
)

// Counter is the interface shared by every distinct-counting sketch in
// this module: offer items, read an estimate, account memory.
//
// The Add methods report whether the sketch's state changed. AddUint64 is
// always equivalent to Add of the item's 8-byte little-endian encoding,
// and AddString to Add of the string's bytes — both allocation-free.
// Implementations are not safe for concurrent use; a keyed Store is the
// concurrent container.
//
// Counters may additionally implement Mergeable (union aggregation),
// Saturable (operating-range overflow reporting), and
// encoding.BinaryMarshaler/BinaryUnmarshaler (snapshots via Marshal /
// Unmarshal); every counter constructed by this module's constructors or
// by Spec.New implements the marshaling interfaces.
type Counter interface {
	Add(item []byte) bool
	AddUint64(item uint64) bool
	AddString(item string) bool
	Estimate() float64
	// SizeBits is the summary-statistic memory in bits — the paper's
	// accounting (bitmap bits or registers; side state and object headers
	// excluded). Use it to reproduce the paper's comparisons.
	SizeBits() int
	// Footprint is the sketch's resident process memory in bytes —
	// everything the counter actually holds: structs, bitmap/register
	// storage at capacity and schedule state. A batch call borrows its
	// hash buffers for the call, so no counter holds any. Use it for
	// Table 2-style comparisons that must reflect real deployments.
	Footprint() int
	Reset()
}

// SBitmap is the paper's sketch: a scale-invariant distinct counter for
// cardinalities in [1, N]. Create one with New, NewWithMemory, or
// Unmarshal. Not safe for concurrent use.
type SBitmap struct {
	sk core.Sketch
}

var _ Counter = (*SBitmap)(nil)

// Option configures optional SBitmap behaviour.
type Option func(*options)

type options struct {
	seed     uint64
	mkHasher func(seed uint64) uhash.Hasher
	dBits    uint
}

// WithSeed selects the hash seed (default 1). Two sketches must share a
// seed (or a hasher) for their states to be comparable.
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithCarterWegman selects the classic ((a·x+b) mod p) 2-universal hash
// family instead of the default mixing hash. Estimation quality is
// indistinguishable (see the ablation_hash experiment); this exists for
// studies of hash sensitivity.
func WithCarterWegman() Option {
	return func(o *options) {
		o.mkHasher = func(seed uint64) uhash.Hasher { return uhash.NewCarterWegman(seed) }
	}
}

// WithTabulation selects simple tabulation hashing (3-independent).
func WithTabulation() Option {
	return func(o *options) {
		o.mkHasher = func(seed uint64) uhash.Hasher { return uhash.NewTabulation(seed) }
	}
}

// WithSamplingResolution limits sampling decisions to d bits of hash,
// 1 ≤ d ≤ 64, as in the paper's Algorithm 2 (d = 30 there). The default 64
// is effectively continuous.
func WithSamplingResolution(d uint) Option { return func(o *options) { o.dBits = d } }

// New returns an S-bitmap that counts distinct items in [1, n] with
// theoretical RRMSE eps, using the smallest sufficient bitmap
// (Equation 7 of the paper).
func New(n float64, eps float64, opts ...Option) (*SBitmap, error) {
	cfg, err := core.NewConfigNE(n, eps)
	if err != nil {
		return nil, err
	}
	return fromConfig(cfg, opts...)
}

// NewWithMemory returns an S-bitmap that spends exactly mbits bits of
// bitmap to count distinct items in [1, n], achieving the best error the
// budget allows (the error is reported by Epsilon).
func NewWithMemory(mbits int, n float64, opts ...Option) (*SBitmap, error) {
	cfg, err := core.NewConfigMN(mbits, n)
	if err != nil {
		return nil, err
	}
	return fromConfig(cfg, opts...)
}

// Memory returns the bitmap size in bits that an S-bitmap needs for range
// [1, n] at RRMSE eps, without allocating one.
func Memory(n float64, eps float64) (int, error) { return core.MemoryForNE(n, eps) }

func buildOptions(opts []Option) options {
	o := options{seed: 1, dBits: 64}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// newHasher materializes the options' hash configuration: the selected
// family seeded with the selected seed, defaulting to the Mixer.
func (o options) newHasher() uhash.Hasher {
	if o.mkHasher != nil {
		return o.mkHasher(o.seed)
	}
	return uhash.NewMixer(o.seed)
}

func fromConfig(cfg *core.Config, opts ...Option) (*SBitmap, error) {
	o := buildOptions(opts)
	coreOpts := []core.Option{core.WithResolution(o.dBits)}
	if o.mkHasher != nil {
		coreOpts = append(coreOpts, core.WithHasher(o.mkHasher(o.seed)))
	}
	return &SBitmap{sk: *core.NewSketch(cfg, o.seed, coreOpts...)}, nil
}

// Add offers an item; it reports whether the sketch state changed.
func (s *SBitmap) Add(item []byte) bool { return s.sk.Add(item) }

// AddString offers a string item.
func (s *SBitmap) AddString(item string) bool { return s.sk.AddString(item) }

// AddUint64 offers a 64-bit item.
func (s *SBitmap) AddUint64(item uint64) bool { return s.sk.AddUint64(item) }

// Estimate returns the current distinct-count estimate n̂ = t_B.
func (s *SBitmap) Estimate() float64 { return s.sk.Estimate() }

// Epsilon returns the configured theoretical RRMSE (C−1)^{−1/2}; the
// estimate's error has this magnitude for every cardinality in [1, N].
func (s *SBitmap) Epsilon() float64 { return s.sk.Config().Epsilon() }

// N returns the configured cardinality upper bound.
func (s *SBitmap) N() float64 { return s.sk.Config().N() }

// SizeBits returns the bitmap size in bits (the summary-statistic memory
// footprint; hash seeds excluded, as in the paper's accounting).
func (s *SBitmap) SizeBits() int { return s.sk.SizeBits() }

// Footprint returns the sketch's resident process memory in bytes. Because
// the sampling-rate schedule is evaluated in closed form, this is the
// bitmap (m/8 bytes) plus a small constant — the paper's "about 30
// kilobits" claim holds of the process, not just the bitmap.
func (s *SBitmap) Footprint() int { return s.sk.Footprint() }

// FillLevel returns L, the number of set bits.
func (s *SBitmap) FillLevel() int { return s.sk.L() }

// Saturated reports whether the sketch has reached the truncation point
// k* = m − C/2: the stream's cardinality is at or beyond N and Estimate is
// pinned near N.
func (s *SBitmap) Saturated() bool { return s.sk.Saturated() }

// Reset clears the sketch for reuse under the same configuration.
func (s *SBitmap) Reset() { s.sk.Reset() }

// MarshalBinary serializes the sketch (configuration + bitmap) into the
// module's tagged envelope. The hash seed is not serialized; a
// deserialized sketch can Estimate immediately but needs the original seed
// (via Unmarshal's options) to keep counting.
func (s *SBitmap) MarshalBinary() ([]byte, error) {
	return marshalEnvelope(KindSBitmap, &s.sk)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler with the default
// hash configuration; use the package-level Unmarshal with options to
// restore under a custom seed or hash family.
func (s *SBitmap) UnmarshalBinary(data []byte) error {
	payload, err := payloadOfKind(data, KindSBitmap)
	if err != nil {
		return err
	}
	sk, err := core.UnmarshalSketch(payload, core.WithHasher(uhash.NewMixer(1)))
	if err != nil {
		return fmt.Errorf("sbitmap: %w", err)
	}
	s.sk = *sk
	return nil
}
