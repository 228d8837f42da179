package sbitmap

import (
	"repro/internal/adaptive"
	"repro/internal/exact"
	"repro/internal/fm"
	"repro/internal/hyperloglog"
	"repro/internal/linearcount"
	"repro/internal/loglog"
	"repro/internal/mrbitmap"
	"repro/internal/virtualbitmap"
)

// This file exposes the baseline sketches the paper compares against, all
// behind the same Counter interface and all dimensioned from a shared
// (memory budget, cardinality bound) vocabulary so that like-for-like
// comparisons — the whole point of the paper's Section 6 — are one
// constructor call away. Each constructor is the imperative twin of a
// Spec: NewHyperLogLog(mbits) ≡ Spec{Kind: KindHLL, MemoryBits: mbits}.New().

// NewLinearCounting returns a Whang et al. (1990) linear-counting sketch
// with mbits bits. Accurate while n stays well below mbits·ln(mbits);
// memory scales almost linearly with the counted cardinality.
func NewLinearCounting(mbits int, opts ...Option) Counter {
	o := buildOptions(opts)
	return &LinearCounting{sk: linearcount.NewWithHasher(mbits, o.newHasher())}
}

// NewVirtualBitmap returns an Estan et al. (2006) virtual bitmap: linear
// counting over a hash-sampled substream, dimensioned so its accurate band
// is centered on cardinalities near n.
func NewVirtualBitmap(mbits int, n float64, opts ...Option) Counter {
	o := buildOptions(opts)
	rate := virtualbitmap.RateFor(mbits, n)
	return &VirtualBitmap{sk: virtualbitmap.NewWithHasher(mbits, rate, o.newHasher())}
}

// NewMRBitmap returns an Estan et al. (2006) multiresolution bitmap
// dimensioned quasi-optimally for mbits bits and cardinalities up to n.
func NewMRBitmap(mbits int, n float64, opts ...Option) (Counter, error) {
	cfg, err := mrbitmap.Dimension(mbits, n)
	if err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	return &MRBitmap{sk: mrbitmap.NewWithHasher(cfg, o.newHasher())}, nil
}

// NewFM returns a Flajolet–Martin (1985) PCSA sketch fitted into mbits
// bits (32-bit registers).
func NewFM(mbits int, opts ...Option) Counter {
	o := buildOptions(opts)
	return &FM{sk: fm.NewWithHasher(fm.MemoryForBits(mbits), o.newHasher())}
}

// NewLogLog returns a Durand–Flajolet (2003) LogLog counter fitted into
// mbits bits (5-bit registers, power-of-two register count).
func NewLogLog(mbits int, opts ...Option) Counter {
	o := buildOptions(opts)
	return &LogLog{sk: loglog.NewWithHasher(loglog.KBitsForBudget(mbits), o.newHasher())}
}

// NewHyperLogLog returns a Flajolet et al. (2007) HyperLogLog counter
// fitted into mbits bits (5-bit registers, power-of-two register count).
func NewHyperLogLog(mbits int, opts ...Option) Counter {
	o := buildOptions(opts)
	return &HyperLogLog{sk: *hyperloglog.NewWithHasher(hyperloglog.KBitsForBudget(mbits), o.newHasher())}
}

// NewAdaptiveSampler returns Wegman's adaptive sampler (Flajolet 1990)
// fitted into mbits bits (64 bits per retained hash).
func NewAdaptiveSampler(mbits int, opts ...Option) Counter {
	o := buildOptions(opts)
	return &AdaptiveSampler{sk: adaptive.NewSamplerWithHasher(adaptive.CapacityForBits(mbits), o.newHasher())}
}

// NewExact returns the exact (linear-memory) distinct counter, useful as
// ground truth in tests and examples.
func NewExact() Counter { return &Exact{c: exact.New()} }
